package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run. Spans are recorded here, in the benchmark, around each
// call into a layer's public API: name, layer, start, end, parent span
// and request id. They stay in memory and are written out as JSON when
// the run ends.

// span is one timed call into a layer.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the parent span, -1 at the root
	Req     int    `json:"req"`
}

// tracer times layer calls and, when on, records them as spans. One
// goroutine uses it at a time: the replay is sequential.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// request starts a new request id for the spans that follow.
func (t *tracer) request() { t.req++ }

// do runs f as one call into layer and returns how long it took.
func (t *tracer) do(layer, name string, f func() error) (time.Duration, error) {
	id := -1
	if t.on {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		id = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Req: t.req, StartNs: time.Since(t.t0).Nanoseconds()})
		t.stack = append(t.stack, id)
	}
	start := time.Now()
	err := f()
	took := time.Since(start)
	if t.on {
		t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
	return took, err
}

// selfTimes sums each layer's self time: a span's duration minus the
// time its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Layer] += time.Duration(s.EndNs - s.StartNs - child[i])
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintln(w, "== self time per layer (traced replay)")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.1f ms %5.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(total))
	}
}

// traced runs the workload's in-process replay twice, untraced then
// traced; the traced pass gives the per-layer metrics and the difference
// in wall time is the tracing overhead.
func (r *run) traced(w *workload, e *env) error {
	off := newTracer(false)
	t0 := time.Now()
	if err := w.replay(r, e, off); err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	untraced := time.Since(t0)
	on := newTracer(true)
	t1 := time.Now()
	if err := w.replay(r, e, on); err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	traced := time.Since(t1)
	r.layer.set("bench.trace_overhead", "ratio", traced.Seconds()/untraced.Seconds()-1,
		fmt.Sprintf("traced %.3fs vs untraced %.3fs replay", traced.Seconds(), untraced.Seconds()))
	self := on.selfTimes()
	for _, l := range layerNames {
		r.layer.set("trace."+l+"_self_ms", "ms", ms(self[l]), "self time in the traced replay")
	}
	printSelfTimes(os.Stdout, self)
	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, r.seed))
	fmt.Printf("== %d spans written to %s\n", len(on.spans), path)
	return on.write(path)
}

// pass names the replay pass, for its scratch directories.
func (t *tracer) pass() string {
	if t.on {
		return "on"
	}
	return "off"
}
