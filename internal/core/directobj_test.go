package core

import (
	"math"
	"math/rand"
	"testing"
)

// randomDirectProblem extends the LoadState test problem with every term
// Eval prices: first-replica pins (some beyond the K under test, so
// decoded points carry out-of-range units), explicit anti-affinity pairs
// including self pairs and duplicates of replica pairs, SLA caps, replicas
// and, optionally, the disk model with its saturation envelope.
func randomDirectProblem(rng *rand.Rand, withDisk bool) *Problem {
	p := randomLoadStateProblem(rng, 6+rng.Intn(8), 12+rng.Intn(24), withDisk)
	nW := len(p.Workloads)
	for i := range p.Workloads {
		if rng.Float64() < 0.2 {
			p.Workloads[i].PinTo = rng.Intn(len(p.Machines))
		}
	}
	for n := rng.Intn(5); n > 0; n-- {
		a, b := rng.Intn(nW), rng.Intn(nW)
		p.AntiAffinity = append(p.AntiAffinity, [2]int{a, b})
		if rng.Float64() < 0.3 {
			p.AntiAffinity = append(p.AntiAffinity, [2]int{b, a}) // duplicate pair
		}
	}
	for i, w := range p.Workloads {
		if w.Replicas > 1 && rng.Float64() < 0.5 {
			p.AntiAffinity = append(p.AntiAffinity, [2]int{i, i}) // repeats the replica conflict
		}
	}
	return p
}

// nextDirectPoint derives the next assignment from the previous one the
// way DIRECT's batches and the tests' adversarial cases do: a one- to
// three-coordinate step, a far jump to a fresh random point, or the
// all-centre point; a few entries land outside [0,K).
func nextDirectPoint(rng *rand.Rand, prev []int, K int) {
	switch r := rng.Float64(); {
	case r < 0.6:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			prev[rng.Intn(len(prev))] = rng.Intn(K)
		}
	case r < 0.85:
		for u := range prev {
			prev[u] = rng.Intn(K)
		}
	default:
		for u := range prev {
			prev[u] = K / 2
		}
	}
	if rng.Float64() < 0.15 {
		u := rng.Intn(len(prev))
		switch rng.Intn(3) {
		case 0:
			prev[u] = -1
		case 1:
			prev[u] = K
		default:
			prev[u] = K + 1 + rng.Intn(3)
		}
	}
}

// TestDirectObjectiveMatchesEval drives random point sequences through a
// fresh incremental objective per K and requires every value to equal
// Eval's objective bit for bit, with one Feval counted per call.
func TestDirectObjectiveMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials, points := 24, 300
	if testing.Short() {
		trials, points = 8, 100
	}
	for trial := 0; trial < trials; trial++ {
		p := randomDirectProblem(rng, trial%2 == 1)
		ref, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		nU := ref.NumUnits()
		for _, K := range []int{1, 2 + rng.Intn(3), len(p.Machines)} {
			ev := ref.Clone()
			inc := newDirectObjective(ev, K)
			a := make([]int, nU)
			for u := range a {
				a[u] = rng.Intn(K)
			}
			for i := 0; i < points; i++ {
				if i > 0 {
					nextDirectPoint(rng, a, K)
				}
				// Decoded DIRECT points honour pins; half the sequences
				// break them too, which Eval prices as penalties.
				if trial%4 < 2 {
					for u := range a {
						if ref.pin[u] >= 0 {
							a[u] = ref.pin[u]
						}
					}
				}
				before := ev.Fevals
				got := inc.eval(a)
				want, _ := ref.Eval(a, K)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d K=%d point %d: incremental %v (%#x), Eval %v (%#x); assign %v",
						trial, K, i, got, math.Float64bits(got), want, math.Float64bits(want), a)
				}
				if ev.Fevals != before+1 {
					t.Fatalf("trial %d K=%d point %d: Fevals advanced by %d, want 1", trial, K, i, ev.Fevals-before)
				}
			}
		}
	}
}

// TestDirectObjectiveAllocationFree: pricing a DIRECT point allocates
// nothing once the objective exists, including full re-pricing after a
// far jump.
func TestDirectObjectiveAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(3))
	p := randomDirectProblem(rng, true)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	const K = 4
	inc := newDirectObjective(ev, K)
	nU := ev.NumUnits()
	pts := make([][]int, 16)
	for i := range pts {
		pts[i] = make([]int, nU)
		for u := range pts[i] {
			pts[i][u] = rng.Intn(K)
		}
	}
	var sink float64
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		sink += inc.eval(pts[i%len(pts)])
		i++
	})
	if allocs != 0 {
		t.Errorf("incremental DIRECT pricing allocates %v objects per call, want 0", allocs)
	}
	_ = sink
}

// TestAppendAssignKeyDistinguishes: the value memo's key tells apart
// assignments a fixed-width byte encoding would confuse, and equal
// assignments share a key.
func TestAppendAssignKeyDistinguishes(t *testing.T) {
	base := []int{2, 2, 2}
	cases := [][]int{
		{2, 2, 2}, {1, 2, 2}, {2, 1, 2}, {2, 2, 1}, {1, 2, 3}, {3, 2, 1},
		{0, 258, 2}, {258, 0, 2}, {130, 1, 2}, {1, 130, 2}, {2, 2, 130}, {2, 130, 2},
	}
	seen := map[string]int{}
	for i, a := range cases {
		k := string(appendAssignKey(nil, a, base))
		if j, ok := seen[k]; ok {
			t.Errorf("assignments %v and %v share a key", cases[j], a)
		}
		seen[k] = i
		if again := string(appendAssignKey(nil, append([]int(nil), a...), base)); again != k {
			t.Errorf("assignment %v: key not stable", a)
		}
	}
}
