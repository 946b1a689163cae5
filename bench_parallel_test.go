// Benchmarks for the parallel consolidation engine: batch-parallel DIRECT
// evaluation, speculative K probing, and the sharded fleet solver. Unlike
// the figure benchmarks, these measure the solver itself, so they skip the
// disk-profile sweep and run directly against the generated fleets.
//
// BenchmarkDirectParallelEvaluation is the headline: the same DIRECT feval
// budget against the same consolidation objective, swept over worker
// counts. The search visits identical points at every worker count, so the
// per-op time ratio is pure evaluation speedup (near-linear until the
// candidate batches run out of width; ≥2x at 4 cores).
package kairos

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"kairos/internal/core"
	"kairos/internal/direct"
	"kairos/internal/fleet"
)

// workerSweep returns the worker counts worth benchmarking on this host.
func workerSweep() []int {
	sweep := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		sweep = append(sweep, n)
	}
	return sweep
}

// BenchmarkDirectParallelEvaluation measures one budgeted DIRECT run over
// the SecondLife consolidation objective (97 units, 288 time steps) per
// worker count — the batch-parallel evaluation path of Section 6's global
// search.
func BenchmarkDirectParallelEvaluation(b *testing.B) {
	p := fleetProblem(fleet.Generate(fleet.SecondLife), nil)
	ev, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	const K = 12
	const budget = 3000
	nU := ev.NumUnits()
	lower := make([]float64, nU)
	upper := make([]float64, nU)
	for i := range upper {
		upper[i] = float64(K)
	}
	var baseline float64
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res direct.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = direct.MinimizeParallel(func(int) direct.Objective {
					ce := ev.Clone()
					tmp := make([]int, nU)
					return func(x []float64) float64 {
						for d, v := range x {
							j := int(v)
							if j >= K {
								j = K - 1
							}
							tmp[d] = j
						}
						o, _ := ce.Eval(tmp, K)
						return o
					}
				}, lower, upper, direct.Options{MaxFevals: budget, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				baseline = perOp
			} else if baseline > 0 {
				b.ReportMetric(baseline/perOp, "speedup")
			}
			b.ReportMetric(float64(res.Fevals), "fevals")
		})
	}
}

// BenchmarkSpeculativeKProbing measures the full Solve pipeline — bounded
// binary search with speculative parallel K probes plus batched DIRECT —
// sequential versus parallel on one dataset. The plans are identical; only
// the wall clock moves.
func BenchmarkSpeculativeKProbing(b *testing.B) {
	p := fleetProblem(fleet.Generate(fleet.Wikipedia), nil)
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := core.DefaultSolveOptions()
			opt.Workers = workers
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(context.Background(), p, opt)
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Feasible {
					b.Fatal("infeasible plan")
				}
			}
		})
	}
}

// BenchmarkShardedFleetSolve compares the single global solve against the
// sharded engine on the 197-server ALL dataset — the fleet-scale path. The
// reported k metric shows how much consolidation quality the cross-shard
// merge pass preserves.
func BenchmarkShardedFleetSolve(b *testing.B) {
	p := fleetProblem(fleet.All(), nil)
	cases := []struct {
		name   string
		shards int
	}{
		{"unsharded", 1},
		{"shards=4", 4},
		{"shards=8", 8},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var k int
			for i := 0; i < b.N; i++ {
				opt := core.ShardOptions{Shards: tc.shards, Options: core.ParallelSolveOptions()}
				sol, err := core.SolveSharded(context.Background(), p, opt)
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Feasible {
					b.Fatal("infeasible plan")
				}
				k = sol.K
			}
			b.ReportMetric(float64(k), "machines")
		})
	}
}

// BenchmarkColdSolveALL measures one cold Solve of the 197-server ALL
// fleet with the default budgets — the ROADMAP's "cold 197-server solve"
// path: bounded-K binary search, incremental DIRECT per probe, and the
// polish at K* reusing the K* probe — sequentially and with one worker per
// CPU. k, objective and fevals are deterministic and identical across the
// two cases; only ns/op moves.
func BenchmarkColdSolveALL(b *testing.B) {
	p := fleetProblem(fleet.All(), nil)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := core.DefaultSolveOptions()
			opt.Workers = workers
			var sol *core.Solution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = core.Solve(context.Background(), p, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sol.K), "k")
			b.ReportMetric(sol.Objective, "objective")
			b.ReportMetric(float64(sol.Fevals), "fevals")
		})
	}
}
