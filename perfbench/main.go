// Command perfbench is Kairos's end-to-end benchmark. It starts the real
// `kairos serve` daemon as a subprocess, drives it over loopback HTTP
// from this single generator process (at most nproc connections), checks
// every response, and prints the end-to-end metrics of one workload. With
// -trace 1 it also replays the workload's generated inputs in-process
// through the layers' public functions, with spans recorded here, and
// prints the per-layer metrics instead. See README.md.
//
// Run it through run.sh, which builds the daemon first:
//
//	bash perfbench/run.sh --workload consolidate --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark traffic mix. A run sets it up setups times,
// each with a fresh daemon, and measures seconds/slices after each of the
// last slices set-ups. A daemon process's own speed (heap layout, GC
// pacing, where it is scheduled) differs from the next one's by several
// percent, and pooling the samples of several daemons keeps that out of
// the run's medians; a workload whose operations are too long to give
// each daemon more than a cold first one measures one daemon instead.
type workload struct {
	name           string
	setups, slices int
	// notes describe what each pooled sample kind is on this workload.
	notes map[string]string
	// setup generates inputs, starts the daemon and registers the set-up
	// fleets; measure drives the daemon for d and pools what it sees in
	// r.s (last marks the final slice); replay runs the same inputs
	// in-process for the per-layer metrics.
	setup   func(r *run) (*env, error)
	measure func(r *run, e *env, d time.Duration, last bool) error
	replay  func(r *run, e *env, tr *tracer) error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// env is one set-up: the daemon and whatever the workload prepared.
type env struct {
	d     *daemon
	state any
}

// pooled is what the measured slices of a run observe. The end-to-end
// metrics are computed from it the same way on every workload.
type pooled struct {
	setups   []float64 // set-up times, s
	regs     []float64 // registration request times, s
	acks     []float64 // quiet window acks, ms
	resolves []float64 // re-solving acks, s (rise+fall pair means where load falls back)
	reads    []float64 // dashboard reads from due, ms
	lags     []float64 // generator's own lateness, ms
	// ks, objs and migrated describe the plans the workload is about:
	// registered or re-solved, per its notes.
	ks, objs, migrated []float64
	rss                []float64 // daemon RSS samples over the load, MB
	hwm                float64   // highest daemon peak RSS, MB

	// Counts, each cross-checked against the daemon's /metrics.
	windows, triggers, duplicates, ingestErrors int
	// Durable daemons only: journal counter deltas, bytes the daemons
	// wrote and bytes of the fresh window bodies they were sent.
	syncs, appends, snapshots float64
	written, bodyBytes        float64
}

// run is one benchmark invocation.
type run struct {
	root    string
	work    string // scratch directory of this run, removed at the end
	bin     string // the kairos binary
	seed    int64
	seconds time.Duration
	trace   bool
	conns   int
	c       *client

	// slice is the index of the current set-up; slice i registers its
	// own fleet instances.
	slice int
	s     pooled

	e2e   *report
	layer *report
	// daemonJournal marks journal and recovery counts as taken from the
	// durable daemon's /metrics, not from the in-process replay.
	daemonJournal bool
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		root    = flag.String("root", ".", "root of the kairos checkout")
		name    = flag.String("workload", "", "workload: consolidate, drift or ingest")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 24, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		layers  = flag.Bool("layers", false, "print the layer → end-to-end metric map and exit")
	)
	flag.Parse()
	if *layers {
		printLayerMap(os.Stdout)
		return nil
	}
	w := workloads[*name]
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	r := &run{
		root:    abs,
		bin:     filepath.Join(abs, ".bench_build", "kairos"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		conns:   runtime.NumCPU(),
		e2e:     newReport(),
		layer:   newReport(),
	}
	if _, err := os.Stat(r.bin); err != nil {
		return fmt.Errorf("daemon binary: %w (build it with perfbench/run.sh)", err)
	}
	r.work = filepath.Join(abs, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", w.name, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.work)
	r.c = newClient(r.conns)
	defer r.c.close()

	var e *env
	defer func() {
		if e != nil {
			e.d.kill()
		}
	}()
	per := r.seconds / time.Duration(w.slices)
	for r.slice = 0; r.slice < w.setups; r.slice++ {
		if e != nil {
			e.d.kill()
		}
		t0 := time.Now()
		if e, err = w.setup(r); err != nil {
			return fmt.Errorf("set-up %d: %w", r.slice, err)
		}
		r.s.setups = append(r.s.setups, time.Since(t0).Seconds())
		if r.slice < w.setups-w.slices {
			continue
		}
		if err := w.measure(r, e, per, r.slice == w.setups-1); err != nil {
			return err
		}
	}
	r.summarize(w)
	if r.trace {
		if err := r.traced(w, e); err != nil {
			return err
		}
	}
	e.d.stop(10 * time.Second)
	return r.print(w)
}

// summarize turns the pooled samples into the end-to-end metrics and the
// counts into per-layer ones.
func (r *run) summarize(w *workload) {
	s, n, e := &r.s, w.notes, r.e2e
	e.add("setup_s", "s", medianOf(s.setups), "inputs generated, daemon started, set-up fleets registered")
	e.add("register_s", "s", medianOf(s.regs), n["register"])
	e.set("plan_k", "count", mean(s.ks), n["plan"])
	e.set("plan_objective", "score", mean(s.objs), n["plan"])
	e.add("ack_p50_ms", "ms", medianOf(s.acks), n["ack"])
	e.add("ack_p99_ms", "ms", tailOf(s.acks, 0.99), n["ack"])
	e.add("resolve_ack_s", "s", medianOf(s.resolves), n["resolve"])
	e.set("migrated_units", "count", mean(s.migrated), fmt.Sprintf("mean units migrated over %d re-solves: %s", len(s.migrated), n["migrated"]))
	e.add("read_p99_ms", "ms", tailOf(s.reads, 0.99), n["read"])
	e.add("daemon_rss_mb", "MB", medianOf(s.rss), fmt.Sprintf("daemon resident set sampled every %v over %s; its peak (VmHWM) was %.1f MB", rssEvery, n["rss"], s.hwm))
	r.layer.set("server.windows", "count", float64(s.windows), "windows acked, cross-checked with kairos_windows_ingested_total")
	r.layer.set("server.triggers", "count", float64(s.triggers), "drift triggers, cross-checked with kairos_triggers_total")
	r.layer.set("server.duplicates", "count", float64(s.duplicates), "resends answered as duplicates")
	r.layer.set("server.ingest_errors", "count", float64(s.ingestErrors), "windows rejected, from kairos_ingest_errors_total")
	r.layer.add("bench.gen_lag_p99_ms", "ms", tailOf(s.lags, 0.99), "generator's own lateness: a send's start after it was due and its sender was free")
}

// rssEvery is the daemon RSS sampling period during the load.
const rssEvery = 100 * time.Millisecond

// sampleRSS samples the daemon's resident set until the returned stop
// function is called; stop also records the daemon's peak.
func (r *run) sampleRSS(d *daemon) (stop func()) {
	stopc, done := make(chan struct{}), make(chan struct{})
	var rss []float64
	go func() {
		defer close(done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := d.procStatusMB("VmRSS"); err == nil {
				rss = append(rss, mb)
			}
			select {
			case <-stopc:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(stopc)
		<-done
		r.s.rss = append(r.s.rss, rss...)
		if mb, err := d.procStatusMB("VmHWM"); err == nil && mb > r.s.hwm {
			r.s.hwm = mb
		}
	}
}

// stateDir returns a fresh per-set-up directory under the run's scratch.
func (r *run) stateDir(name string) (string, error) {
	dir := filepath.Join(r.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// report is a named set of metrics with units and the summary each rests on.
type report struct {
	names []string
	vals  map[string]reported
}

type reported struct {
	unit  string
	value float64
	note  string
}

func newReport() *report { return &report{vals: map[string]reported{}} }

// add records a timing summary.
func (rp *report) add(name, unit string, t tail, note string) {
	rp.set(name, unit, t.Value, fmt.Sprintf("%s; %s", t, note))
}

// set records a plain value.
func (rp *report) set(name, unit string, v float64, note string) {
	if _, ok := rp.vals[name]; !ok {
		rp.names = append(rp.names, name)
	}
	rp.vals[name] = reported{unit: unit, value: v, note: note}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable table and, as the last line of
// standard output, the result object.
func (r *run) print(w *workload) error {
	attempted, failed := r.c.attempted.Load(), r.c.failed.Load()
	if attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	okFrac := 1 - float64(failed)/float64(attempted)
	r.e2e.set("ok_frac", "frac", okFrac, fmt.Sprintf("failed_frac=%.4g (%d failed of %d attempted)", 1-okFrac, failed, attempted))

	rp, kind := r.e2e, "end-to-end"
	if r.trace {
		rp, kind = r.layer, "per-layer"
		// The traced run also prints the end-to-end figures it measured.
		printTable(os.Stdout, fmt.Sprintf("%s end-to-end (traced run, seed %d)", w.name, r.seed), r.e2e)
	}
	printTable(os.Stdout, fmt.Sprintf("%s %s (seed %d)", w.name, kind, r.seed), rp)

	want := endToEndNames
	if r.trace {
		want = perLayerNames
	}
	out := resultJSON{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, n := range want {
		v, ok := rp.vals[n]
		if !ok || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = metricJSON{Value: v.value, Unit: v.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func printTable(f *os.File, title string, rp *report) {
	fmt.Fprintf(f, "== %s\n", title)
	names := append([]string(nil), rp.names...)
	sort.Strings(names)
	for _, n := range names {
		v := rp.vals[n]
		fmt.Fprintf(f, "  %-28s %14.6g %-6s %s\n", n, v.value, v.unit, strings.TrimSpace(v.note))
	}
}
