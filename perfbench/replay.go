package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"kairos"
	"kairos/internal/core"
	"kairos/internal/direct"
	"kairos/internal/greedy"
	"kairos/internal/journal"
	"kairos/internal/model"
	"kairos/internal/series"
	"kairos/internal/server"
)

// replaySpec is one workload's inputs for the in-process replay: the
// bodies the daemon received and the fleet options it registered with.
type replaySpec struct {
	regBody      []byte
	opts         server.OptionsWire
	quiet, drift []byte
	// resolveFevals reports core.fevals from the drift re-solve rather
	// than the registration solve (the solve the workload is about).
	resolveFevals bool
}

// Replay bounds: enough repetitions that each per-call time is a mean
// over at least tens of milliseconds.
const (
	evalReps     = 200
	directFevals = 2000
	predictReps  = 200_000
	swapPairs    = 20_000
	journalRecs  = 4
)

// replayLayers replays one workload's generated inputs in-process
// through each layer's public functions, in the order the daemon calls
// them: decode the registration, consolidate, then per window decode,
// journal and observe; then the solver's inner layers on the registered
// plan, and the journal's snapshot and replay.
func (r *run) replayLayers(tr *tracer, sp replaySpec) error {
	pass := tr.pass()
	ctx := context.Background()
	// The registration, as the handler runs it: decode, build the
	// session, consolidate.
	var req server.RegisterRequest
	var spec kairos.FleetSpec
	var fl *kairos.Fleet
	var plan *kairos.Plan
	var took time.Duration
	tr.request()
	_, err := tr.do("bench", "register", func() error {
		if _, err := tr.do("server", "decode_register", func() error { return json.Unmarshal(sp.regBody, &req) }); err != nil {
			return err
		}
		var err error
		if spec, err = fleetSpec(&req); err != nil {
			return err
		}
		if fl, err = kairos.NewFleet(spec, fleetOptions(sp.opts)...); err != nil {
			return err
		}
		took, err = tr.do("kairos", "consolidate", func() error {
			var err error
			plan, err = fl.Consolidate(ctx)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	r.layer.set("kairos.consolidate_s", "s", took.Seconds(), fmt.Sprintf("Fleet.Consolidate, K=%d", plan.K))
	fevals := plan.Fevals

	jdir := filepath.Join(r.work, "replay-journal-"+pass)
	if err := os.RemoveAll(jdir); err != nil {
		return err
	}
	jl, _, err := journal.Open(jdir, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	defer jl.Close()

	// One quiet and one drifted window, each as the handler runs it:
	// decode, journal, observe.
	var decodeMs, appendMs, recordBytes []float64
	var history [][]server.WorkloadWire
	for i, body := range [][]byte{sp.quiet, sp.drift} {
		tr.request()
		wantTrigger := i == 1
		var ev *kairos.ReconsolidationEvent
		var observeTook time.Duration
		_, err := tr.do("bench", "window", func() error {
			var wr server.WindowRequest
			took, err := tr.do("server", "decode_window", func() error { return json.NewDecoder(bytes.NewReader(body)).Decode(&wr) })
			if err != nil {
				return err
			}
			decodeMs = append(decodeMs, ms(took))
			history = append(history, wr.Workloads)
			rec, err := json.Marshal(server.RecordWire{Window: &server.WindowRecord{Fleet: req.ID, Workloads: wr.Workloads}})
			if err != nil {
				return err
			}
			recordBytes = append(recordBytes, float64(len(rec)))
			took, err = tr.do("journal", "append", func() error { _, err := jl.Append(rec); return err })
			if err != nil {
				return err
			}
			appendMs = append(appendMs, ms(took))
			window, err := libWorkloads(wr.Workloads)
			if err != nil {
				return err
			}
			observeTook, err = tr.do("kairos", "observe", func() error {
				var err error
				ev, err = fl.Observe(ctx, window)
				return err
			})
			return err
		})
		if err != nil {
			return err
		}
		if (ev != nil) != wantTrigger {
			return fmt.Errorf("in-process window %d: triggered=%v, want %v", i, ev != nil, wantTrigger)
		}
		if wantTrigger {
			r.layer.set("kairos.observe_resolve_ms", "ms", ms(observeTook), fmt.Sprintf("Fleet.Observe with a warm re-solve to K=%d", ev.Plan.K))
			if sp.resolveFevals {
				fevals = ev.Plan.Fevals
			}
		} else {
			r.layer.set("kairos.observe_quiet_ms", "ms", ms(observeTook), "Fleet.Observe of a quiet window")
		}
	}
	r.layer.set("server.decode_ms", "ms", mean(decodeMs), "JSON decode of one window body")
	r.layer.set("server.body_bytes", "bytes", float64(len(sp.quiet)), "one window body")
	r.layer.set("core.fevals", "count", float64(fevals), "objective evaluations in one solve")

	if err := r.replaySolver(tr, spec, plan); err != nil {
		return err
	}
	return r.replayJournal(tr, jl, jdir, &req, history, appendMs, recordBytes, pass)
}

// replaySolver times the solver's inner layers on the registered plan.
func (r *run) replaySolver(tr *tracer, spec kairos.FleetSpec, plan *kairos.Plan) error {
	p := &core.Problem{Workloads: spec.Workloads, Machines: spec.Machines, Disk: spec.Disk}
	ev, err := core.NewEvaluator(p)
	if err != nil {
		return err
	}
	assign, K := plan.Assign, plan.K
	tr.request()
	took, _ := tr.do("core", "eval", func() error {
		for i := 0; i < evalReps; i++ {
			ev.Eval(assign, K)
		}
		return nil
	})
	r.layer.set("core.eval_us", "us", float64(took.Microseconds())/evalReps, fmt.Sprintf("Evaluator.Eval at K=%d, mean of %d", K, evalReps))

	ls := core.NewLoadState(ev, assign, K)
	n := 0
	took, _ = tr.do("core", "price_add", func() error {
		for u := range assign {
			for j := 0; j < K; j++ {
				if j != assign[u] {
					ls.PriceAdd(u, j)
					n++
				}
			}
		}
		return nil
	})
	r.layer.set("core.price_add_ns", "ns", float64(took.Nanoseconds())/float64(n), fmt.Sprintf("LoadState.PriceAdd, mean of %d", n))
	n = 0
	took, _ = tr.do("core", "price_swap", func() error {
		for u := 0; u < len(assign) && n < swapPairs; u++ {
			for v := u + 1; v < len(assign) && n < swapPairs; v++ {
				if assign[u] != assign[v] {
					ls.PriceSwap(u, v)
					n++
				}
			}
		}
		return nil
	})
	r.layer.set("core.price_swap_ns", "ns", float64(took.Nanoseconds())/float64(n), fmt.Sprintf("LoadState.PriceSwap, mean of %d", n))

	nU := len(assign)
	lower, upper := make([]float64, nU), make([]float64, nU)
	for i := range upper {
		upper[i] = float64(K)
	}
	tmp := make([]int, nU)
	objective := func(x []float64) float64 {
		for i, v := range x {
			j := int(v)
			if j >= K {
				j = K - 1
			}
			tmp[i] = j
		}
		o, _ := ev.Eval(tmp, K)
		return o
	}
	took, err = tr.do("direct", "minimize", func() error {
		_, err := direct.Minimize(objective, lower, upper, direct.Options{MaxFevals: directFevals, Epsilon: 1e-4})
		return err
	})
	if err != nil {
		return err
	}
	r.layer.set("direct.minimize_ms", "ms", ms(took), fmt.Sprintf("%d-feval DIRECT at K=%d", directFevals, K))

	loads := [][]float64{make([]float64, nU), make([]float64, nU)}
	for u, w := range spec.Workloads {
		loads[0][u], loads[1][u] = w.CPU.Max(), w.RAMBytes.Max()
	}
	scratch := make([]int, 0, nU)
	fits := func(bin []int, item int) bool {
		scratch = append(append(scratch[:0], bin...), item)
		return ev.FitsOneMachine(0, scratch)
	}
	var packed bool
	took, err = tr.do("greedy", "pack", func() error {
		var err error
		_, packed, err = greedy.MultiResource(loads, fits, len(spec.Machines))
		return err
	})
	if err != nil {
		return err
	}
	if !packed {
		return fmt.Errorf("greedy packing failed")
	}
	r.layer.set("greedy.pack_ms", "ms", ms(took), "greedy.MultiResource over CPU and RAM peaks")

	dp := spec.Disk
	if dp == nil {
		raw, err := loadDiskFixture(r.root)
		if err != nil {
			return err
		}
		if dp, err = model.LoadProfile(bytes.NewReader(raw)); err != nil {
			return err
		}
	}
	w0 := spec.Workloads[0]
	nT := w0.WSBytes.Len()
	var sink float64
	took, _ = tr.do("model", "predict", func() error {
		for i := 0; i < predictReps; i++ {
			w := spec.Workloads[i%len(spec.Workloads)]
			t := (i / len(spec.Workloads)) % nT
			sink += dp.PredictWriteMBps(w.WSBytes.Values[t], w.UpdateRate.Values[t])
		}
		return nil
	})
	if math.IsNaN(sink) {
		return fmt.Errorf("disk model predicted NaN")
	}
	r.layer.set("model.predict_ns", "ns", float64(took.Nanoseconds())/predictReps, fmt.Sprintf("DiskProfile.PredictWriteMBps, mean of %d", predictReps))
	return nil
}

// replayJournal times the journal: appends (already made), an fsync on
// its own, a snapshot of the fleet's state, and replaying the log.
func (r *run) replayJournal(tr *tracer, jl *journal.Log, jdir string, req *server.RegisterRequest, history [][]server.WorkloadWire, appendMs, recordBytes []float64, pass string) error {
	tr.request()
	nodir := filepath.Join(r.work, "replay-nosync-"+pass)
	if err := os.RemoveAll(nodir); err != nil {
		return err
	}
	nl, _, err := journal.Open(nodir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		return err
	}
	rec, err := json.Marshal(server.RecordWire{Window: &server.WindowRecord{Fleet: req.ID, Workloads: history[0]}})
	if err != nil {
		return err
	}
	var fsyncMs []float64
	for i := 0; i < journalRecs; i++ {
		if _, err := nl.Append(rec); err != nil {
			return err
		}
		took, err := tr.do("journal", "fsync", nl.Sync)
		if err != nil {
			return err
		}
		fsyncMs = append(fsyncMs, ms(took))
	}
	if err := nl.Close(); err != nil {
		return err
	}
	for i := 0; i < journalRecs; i++ {
		took, err := tr.do("journal", "append", func() error { _, err := jl.Append(rec); return err })
		if err != nil {
			return err
		}
		appendMs = append(appendMs, ms(took))
		recordBytes = append(recordBytes, float64(len(rec)))
	}
	r.layer.set("journal.append_ms", "ms", median(appendMs), fmt.Sprintf("Log.Append with fsync=always, median of %d", len(appendMs)))
	r.layer.set("journal.fsync_ms", "ms", median(fsyncMs), fmt.Sprintf("Log.Sync of one window record, median of %d", len(fsyncMs)))
	r.layer.set("journal.record_bytes", "bytes", mean(recordBytes), "one window record")

	snap := server.SnapshotWire{Fleets: []server.FleetSnapshot{{Request: req, History: history}}}
	took, err := tr.do("journal", "snapshot", func() error {
		b, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		return jl.Snapshot(b)
	})
	if err != nil {
		return err
	}
	r.layer.set("journal.snapshot_ms", "ms", ms(took), "encode and write a snapshot of the fleet's request and window history")
	for i := 0; i < journalRecs; i++ {
		if _, err := jl.Append(rec); err != nil {
			return err
		}
	}
	st := jl.Stats()
	if !r.daemonJournal {
		r.layer.set("journal.snapshots", "count", float64(st.Snapshots), "in-process journal")
		r.layer.set("journal.syncs_per_append", "ratio", float64(st.Syncs)/float64(st.Appends), "in-process journal, fsync=always")
	}
	if err := jl.Close(); err != nil {
		return err
	}

	var replayed, windows int
	var payload int64
	took, err = tr.do("journal", "replay", func() error {
		l, recd, err := journal.Open(jdir, journal.Options{Sync: journal.SyncNone})
		if err != nil {
			return err
		}
		defer l.Close()
		all := [][]byte{recd.Snapshot}
		for _, rc := range recd.Records {
			all = append(all, rc.Payload)
		}
		for i, b := range all {
			payload += int64(len(b))
			if i == 0 {
				var s server.SnapshotWire
				if err := json.Unmarshal(b, &s); err != nil {
					return err
				}
				continue
			}
			var rw server.RecordWire
			if err := json.Unmarshal(b, &rw); err != nil {
				return err
			}
			replayed++
			if rw.Window != nil {
				windows++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer.set("journal.replay_mb_per_s", "MB/s", float64(payload)/1e6/took.Seconds(), fmt.Sprintf("open and decode a snapshot plus %d records, %d bytes", replayed, payload))
	if !r.daemonJournal {
		r.layer.set("recovery.windows_replayed", "count", float64(windows), "in-process replay")
	}
	return nil
}

// fleetSpec converts a decoded registration into the library spec, as
// the daemon does (auto machines only: the benchmark registers no other
// kind).
func fleetSpec(req *server.RegisterRequest) (kairos.FleetSpec, error) {
	spec := kairos.FleetSpec{Name: req.ID}
	wls, err := libWorkloads(req.Workloads)
	if err != nil {
		return spec, err
	}
	spec.Workloads = wls
	if req.AutoMachines == nil {
		return spec, fmt.Errorf("registration without auto_machines")
	}
	for i := 0; i < req.AutoMachines.Count; i++ {
		spec.Machines = append(spec.Machines, kairos.Machine{
			Name: fmt.Sprintf("target-%02d", i), CPUCapacity: 1.0, RAMBytes: 96e9, DiskWriteBps: 50e6, Headroom: 0.05,
		})
	}
	if len(req.DiskProfile) > 0 {
		if spec.Disk, err = model.LoadProfile(bytes.NewReader(req.DiskProfile)); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// fleetOptions maps registration options onto the library's, as the
// daemon does.
func fleetOptions(o server.OptionsWire) []kairos.FleetOption {
	solve := kairos.DefaultOptions()
	solve.SkipDirect = !o.FullSolve
	solve.Workers = o.Workers
	resolve := kairos.DefaultResolveOptions()
	resolve.SkipDirect = true
	resolve.Workers = o.Workers
	return []kairos.FleetOption{
		kairos.WithSolveOptions(solve),
		kairos.WithResolveOptions(resolve),
		kairos.WithDrift(kairos.DriftConfig{Threshold: 0.04, Cooldown: 1, History: o.History}),
	}
}

// libWorkloads converts wire workloads into library workloads.
func libWorkloads(ws []server.WorkloadWire) ([]kairos.Workload, error) {
	out := make([]kairos.Workload, len(ws))
	for i, w := range ws {
		start := time.Unix(w.StartUnix, 0).UTC()
		step := time.Duration(w.StepSeconds * float64(time.Second))
		mk := func(v []float64) *series.Series {
			if len(v) == 0 {
				return nil
			}
			return series.New(start, step, v)
		}
		out[i] = kairos.Workload{
			Name: w.Name, CPU: mk(w.CPU), RAMBytes: mk(w.RAMBytes), WSBytes: mk(w.WSBytes),
			UpdateRate: mk(w.UpdateRate), DiskWriteBps: mk(w.DiskWriteBps), Replicas: w.Replicas, PinTo: -1,
		}
		if w.CPU == nil || w.RAMBytes == nil {
			return nil, fmt.Errorf("workload %q without cpu or ram series", w.Name)
		}
	}
	return out, nil
}
