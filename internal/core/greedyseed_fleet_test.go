package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// TestGreedySeedCapAtKFleets: on the paper's fleets, a greedy packing
// capped at K is the full-budget packing when that fits in K bins and
// fails otherwise, for every K and at one and two workers. That is the
// rule Solve uses to derive every probe's greedy seed from one packing.
// Under -short or -race, K stops two past the packing's bin count (larger
// K repeat the full-budget packing) plus the full budget itself.
func TestGreedySeedCapAtKFleets(t *testing.T) {
	all197 := func() *core.Problem {
		f := fleet.All()
		ms := make([]core.Machine, len(f.Servers))
		for i := range ms {
			ms[i] = fleet.TargetMachine(fmt.Sprintf("t%d", i), 50e6, 0.05)
		}
		return &core.Problem{Workloads: f.Workloads(0.7), Machines: ms}
	}
	cases := []struct {
		name string
		p    *core.Problem
	}{
		{"SecondLife", fleetCase(fleet.SecondLife)},
		{"Wikipedia", fleetCase(fleet.Wikipedia)},
		{"ALL", all197()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := core.NewEvaluator(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			maxK := len(tc.p.Machines)
			for _, w := range []int{1, 2} {
				all, ok := ev.GreedySeed(maxK, w)
				if !ok {
					t.Fatalf("w=%d: greedy packing failed", w)
				}
				for K := 1; K <= maxK; K++ {
					if (testing.Short() || raceEnabled) && K > len(all)+2 && K < maxK {
						continue
					}
					got, ok := ev.GreedySeed(K, w)
					if fits := len(all) <= K; ok != fits || fits && !reflect.DeepEqual(got, all) {
						t.Fatalf("w=%d K=%d: capped packing ok=%v with %d bins; full-budget packing has %d bins",
							w, K, ok, len(got), len(all))
					}
				}
			}
		})
	}
}
