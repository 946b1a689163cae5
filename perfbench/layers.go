package main

import (
	"fmt"
	"io"
)

// layerNames are the repository modules the per-layer metrics are named
// after, plus the benchmark's own spans.
var layerNames = []string{"bench", "server", "kairos", "core", "direct", "greedy", "model", "journal"}

// endToEndNames are the metrics a -trace 0 run puts in its result
// object; BENCHMARK.json lists the same set. Every workload measures each
// of them. The table also prints read_p99_ms, which every workload
// measures too, but whose spread between runs on a 2-core machine
// (0.07 to 0.31 over ten seeds) is too wide to gate on.
var endToEndNames = []string{
	"setup_s", "ok_frac", "daemon_rss_mb", "register_s", "plan_k", "plan_objective",
	"resolve_ack_s", "migrated_units", "ack_p50_ms", "ack_p99_ms",
}

// layerMetric is one per-layer metric and the end-to-end metrics it
// should move, by workload.
type layerMetric struct {
	name  string
	moves string
}

// layerMap is the layer → end-to-end metric map: which end-to-end metric
// each per-layer metric should move, and on which workload.
var layerMap = []layerMetric{
	{"direct.minimize_ms", "register_s on consolidate; nothing elsewhere"},
	{"core.eval_us", "register_s on consolidate; resolve_ack_s on drift (includes the disk model)"},
	{"core.price_add_ns", "register_s on consolidate; resolve_ack_s on drift, consolidate and ingest"},
	{"core.price_swap_ns", "register_s on consolidate; resolve_ack_s on drift, consolidate and ingest"},
	{"core.fevals", "register_s on consolidate; resolve_ack_s on drift"},
	{"greedy.pack_ms", "register_s on consolidate, drift and ingest"},
	{"model.predict_ns", "resolve_ack_s and register_s on drift only"},
	{"kairos.consolidate_s", "register_s on every workload"},
	{"kairos.observe_quiet_ms", "ack_p50_ms on every workload"},
	{"kairos.observe_resolve_ms", "resolve_ack_s and read_p99_ms on drift; resolve_ack_s elsewhere"},
	{"server.decode_ms", "ack_p50_ms and max_wps on ingest and drift; recovery_s on ingest"},
	{"server.body_bytes", "ack_p50_ms and max_wps on ingest and drift; recovery_s and wal_bytes_per_byte on ingest"},
	{"server.windows", "count; cross-checked against kairos_windows_ingested_total"},
	{"server.triggers", "count; cross-checked against kairos_triggers_total"},
	{"server.duplicates", "count of resends answered as duplicates (ingest)"},
	{"server.ingest_errors", "count; must stay 0"},
	{"journal.append_ms", "ack_p50_ms, ack_p99_ms and max_wps on ingest; nothing on consolidate or drift"},
	{"journal.fsync_ms", "ack_p99_ms and max_wps on ingest; nothing on consolidate or drift"},
	{"journal.syncs_per_append", "ack_p99_ms and max_wps on ingest; nothing on consolidate or drift"},
	{"journal.snapshot_ms", "the ack_p99_ms tail on ingest"},
	{"journal.snapshots", "the ack_p99_ms tail on ingest"},
	{"journal.record_bytes", "wal_bytes_per_byte and recovery_s on ingest"},
	{"journal.replay_mb_per_s", "recovery_s on ingest"},
	{"recovery.windows_replayed", "recovery_s on ingest"},
	{"bench.gen_lag_p99_ms", "generator health: must stay well below the latencies it times"},
	{"bench.trace_overhead", "tracer health: traced over untraced replay wall time, minus 1"},
}

// perLayerNames are the metrics a -trace 1 run reports; BENCHMARK.json
// lists the same set.
var perLayerNames = func() []string {
	var out []string
	for _, m := range layerMap {
		out = append(out, m.name)
	}
	for _, l := range layerNames {
		out = append(out, "trace."+l+"_self_ms")
	}
	return out
}()

func printLayerMap(w io.Writer) {
	fmt.Fprintln(w, "per-layer metric → end-to-end metric it should move")
	for _, m := range layerMap {
		fmt.Fprintf(w, "  %-28s %s\n", m.name, m.moves)
	}
	fmt.Fprintf(w, "  %-28s %s\n", "trace.<layer>_self_ms", "self time per layer in the traced replay")
}
