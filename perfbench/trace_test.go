package main

import (
	"errors"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "window", Layer: "bench", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "decode", Layer: "server", StartNs: 5, EndNs: 35, Parent: 0},
		{Name: "observe", Layer: "kairos", StartNs: 40, EndNs: 90, Parent: 0},
		{Name: "append", Layer: "journal", StartNs: 50, EndNs: 60, Parent: 2},
	}}
	got := tr.selfTimes()
	want := map[string]time.Duration{"bench": 20, "server": 30, "kairos": 40, "journal": 10}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, got[l], d)
		}
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer(true)
	tr.request()
	boom := errors.New("boom")
	_, err := tr.do("bench", "outer", func() error {
		_, err := tr.do("core", "inner", func() error { return boom })
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("do returned %v, want the callee's error", err)
	}
	if len(tr.spans) != 2 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[1].Req != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
	off := newTracer(false)
	if _, err := off.do("core", "x", func() error { return nil }); err != nil || len(off.spans) != 0 {
		t.Fatalf("an untraced tracer recorded %d spans (err %v)", len(off.spans), err)
	}
}
