package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		q    float64
	}{
		{0, 0.99, 0.5},
		{5, 0.99, 0.5},   // too few samples for any tail: the median
		{19, 0.99, 0.5},  // 1-10/19 < 0.5
		{20, 0.99, 0.5},  // exactly ten beyond the median
		{40, 0.99, 0.75}, // ten beyond p75
		{100, 0.99, 0.9},
		{1000, 0.99, 0.99},
		{5000, 0.99, 0.99}, // never past the wanted percentile
	} {
		if got := tailQuantile(tc.n, tc.want); math.Abs(got-tc.q) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.q)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 20; n <= 3000; n += 37 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		tl := tailOf(xs, 0.99)
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond, want at least %d", n, tl.Q*100, beyond, minBeyond)
		}
		if tl.N != n {
			t.Fatalf("n=%d: summary counts %d samples", n, tl.N)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if q := quantile([]float64{0, 10}, 0.25); q != 2.5 {
		t.Errorf("interpolated quantile = %v", q)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 4}
	for i, want := range []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 2500 * time.Millisecond} {
		idx := []int{0, 1, 2, 10}[i]
		if got := s.due(idx).Sub(start); got != want {
			t.Errorf("due(%d) = +%v, want +%v", idx, got, want)
		}
	}
}

func TestSampleTimesFromDue(t *testing.T) {
	due := time.Unix(0, 0)
	// A send stalled 300ms behind an earlier one and served in 100ms is
	// charged 400ms: the open loop times from due, not from send.
	s := sample{due: due, sent: due.Add(300 * time.Millisecond), done: due.Add(400 * time.Millisecond)}
	if s.latency() != 400*time.Millisecond || s.lag() != 300*time.Millisecond {
		t.Fatalf("latency %v lag %v", s.latency(), s.lag())
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP kairos_fleets Registered fleets.
# TYPE kairos_fleets gauge
kairos_fleets 2
kairos_windows_ingested_total{fleet="i-a"} 12
kairos_windows_ingested_total{fleet="i-b"} 30
kairos_resolve_duration_seconds_bucket{fleet="i-a",le="0.5"} 1
kairos_resolve_duration_seconds_sum{fleet="i-a"} 0.4123
kairos_recovery_duration_seconds 1.5e-05
weird{fleet="a \"quoted\" id"} 7
`
	ss, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(ss))
	}
	if got := promSum(ss, "kairos_windows_ingested_total"); got != 42 {
		t.Errorf("windows sum = %v", got)
	}
	if got := promSum(ss, "kairos_recovery_duration_seconds"); got != 1.5e-05 {
		t.Errorf("float value = %v", got)
	}
	if ss[3].Labels["le"] != "0.5" || ss[3].Labels["fleet"] != "i-a" {
		t.Errorf("labels = %v", ss[3].Labels)
	}
	if ss[6].Labels["fleet"] != `a "quoted" id` {
		t.Errorf("quoted label = %q", ss[6].Labels["fleet"])
	}
	for _, bad := range []string{"novalue", `m{fleet="x"`, "m notanumber", `m{fleet=x} 1`} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}
