package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"kairos/internal/series"
)

// tightProblem is a synthetic fleet sized so capacity binds: every
// workload takes 30–55% of a machine's CPU on a phase-shifted curve and
// 6–10 GB of its 24 GB RAM, so bins close after two or three members.
func tightProblem() *Problem {
	const n, T = 40, 48
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	wls := make([]Workload, n)
	for i := range wls {
		base := 0.3 + 0.25*float64(i%7)/6
		phase := float64(i) * 0.7
		wls[i] = Workload{
			Name: fmt.Sprintf("w%d", i),
			CPU: series.FromFunc(start, step, T, func(_ time.Time, t int) float64 {
				return base * (0.8 + 0.2*math.Sin(2*math.Pi*float64(t)/T+phase))
			}),
			RAMBytes: series.Constant(start, step, T, float64(6+i%5)*1e9),
			PinTo:    -1,
		}
		if i%9 == 0 {
			wls[i].Replicas = 2
		}
	}
	ms := make([]Machine, n)
	for j := range ms {
		ms[j] = Machine{Name: fmt.Sprintf("m%d", j), CPUCapacity: 1, RAMBytes: 24e9, Headroom: 0.05}
	}
	return &Problem{Workloads: wls, Machines: ms}
}

// TestGreedyBinsForMatchesCappedPacking: the greedy seed a probe at K
// derives from the solve's one packing (greedyBinsFor) equals a fresh
// packing capped at K, for every K and at one and two workers. The fleet
// datasets are checked in greedyseed_fleet_test.go.
func TestGreedyBinsForMatchesCappedPacking(t *testing.T) {
	problems := map[string]*Problem{
		"tight":       tightProblem(),
		"random-disk": randomLoadStateProblem(rand.New(rand.NewSource(9)), 24, 24, true),
	}
	for name, p := range problems {
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		maxK := len(p.Machines)
		for _, w := range []int{1, 2} {
			all, _ := ev.GreedySeed(maxK, w)
			if all == nil {
				t.Fatalf("%s: greedy packing failed", name)
			}
			for K := 1; K <= maxK; K++ {
				want, ok := ev.GreedySeed(K, w)
				got := greedyBinsFor(all, K)
				if !ok && got != nil || ok && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s w=%d K=%d: derived %v, fresh packing %v (ok=%v)", name, w, K, got, want, ok)
				}
			}
		}
	}
}
