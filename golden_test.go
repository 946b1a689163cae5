package kairos

import (
	"context"
	"fmt"
	"math"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/model"
)

// goldenSolve pins one cold solve's outcome bit for bit. The solver's
// speedups (incremental DIRECT pricing, probe reuse in the polish, one
// greedy packing per solve, the speculative probe schedule) must not move
// any of these values at any worker count.
type goldenSolve struct {
	name       string
	fleet      func() fleet.Fleet
	skipDirect bool
	disk       bool // price the synthetic disk model with its envelope
	shards     int  // >0 runs SolveSharded with this many shards

	k        int
	feasible bool
	objBits  uint64
	fevals   int
	assign   uint64 // assignHash of Solution.Assign
}

// assignHash is FNV-1a (64-bit) over the assignment, one little-endian
// uint32 per unit.
func assignHash(assign []int) uint64 {
	h := uint64(14695981039346656037)
	for _, j := range assign {
		v := uint32(j)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= 1099511628211
		}
	}
	return h
}

func secondLife() fleet.Fleet { return fleet.Generate(fleet.SecondLife) }
func wikipedia() fleet.Fleet  { return fleet.Generate(fleet.Wikipedia) }

// goldenSolves holds the cold-solve pins, each taken from the solver before
// it priced DIRECT incrementally and reused the K* probe in the polish.
var goldenSolves = []goldenSolve{
	{name: "ALL", fleet: fleet.All,
		k: 15, feasible: true, objBits: 0x403b5677f1cfa81b, fevals: 2414351, assign: 0x26e568e48e4fcb83},
	{name: "SecondLife", fleet: secondLife,
		k: 11, feasible: true, objBits: 0x4031df7e3d90ddbb, fevals: 145350, assign: 0xf745597d24fa547b},
	{name: "SecondLife/skip-direct", fleet: secondLife, skipDirect: true,
		k: 11, feasible: true, objBits: 0x4031e863a05fccd3, fevals: 67724, assign: 0x9d8c0904ab668ba9},
	{name: "SecondLife/disk", fleet: secondLife, disk: true,
		k: 23, feasible: true, objBits: 0x404455a4ba5c507f, fevals: 264550, assign: 0xf597fb1f10557cc5},
	{name: "Wikipedia", fleet: wikipedia,
		k: 5, feasible: true, objBits: 0x40214e635d668106, fevals: 37563, assign: 0x57fc991eb1ea6381},
	{name: "Wikipedia/skip-direct", fleet: wikipedia, skipDirect: true,
		k: 5, feasible: true, objBits: 0x4021604583787571, fevals: 12945, assign: 0x51badee138b1add2},
	{name: "ALL/shards=4", fleet: fleet.All, shards: 4,
		k: 16, feasible: true, objBits: 0x403c68bd8de80e8f, fevals: 139317, assign: 0x1baa826a1d6c9232},
}

// TestGoldenColdSolve runs every golden case at 1, 2 and 4 workers and
// requires K, feasibility, the objective's bits, Fevals and the assignment
// to match the pinned values exactly. Under -race only the cases below
// 100 workloads run.
func TestGoldenColdSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("golden 197-server cold solves take seconds; run without -short")
	}
	for _, gc := range goldenSolves {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", gc.name, workers), func(t *testing.T) {
				var dp *model.DiskProfile
				if gc.disk {
					dp = benchSyntheticDiskProfile()
				}
				p := fleetProblem(gc.fleet(), dp)
				if raceEnabled && len(p.Workloads) > 100 {
					t.Skip("197-server solves run minutes under -race; the smaller cases cover the same paths")
				}
				opt := core.DefaultSolveOptions()
				opt.SkipDirect = gc.skipDirect
				opt.Workers = workers
				var sol *core.Solution
				var err error
				if gc.shards > 0 {
					sol, err = core.SolveSharded(context.Background(), p, core.ShardOptions{Shards: gc.shards, Options: opt})
				} else {
					sol, err = core.Solve(context.Background(), p, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := goldenSolve{
					k:        sol.K,
					feasible: sol.Feasible,
					objBits:  math.Float64bits(sol.Objective),
					fevals:   sol.Fevals,
					assign:   assignHash(sol.Assign),
				}
				t.Logf("k=%d feasible=%v objective=%v (bits %#x) fevals=%d assign=%#x",
					got.k, got.feasible, sol.Objective, got.objBits, got.fevals, got.assign)
				if got.k != gc.k || got.feasible != gc.feasible || got.objBits != gc.objBits ||
					got.fevals != gc.fevals || got.assign != gc.assign {
					t.Errorf("solve moved: got k=%d feasible=%v obj=%v fevals=%d assign=%#x; want k=%d feasible=%v obj=%v fevals=%d assign=%#x",
						got.k, got.feasible, math.Float64frombits(got.objBits), got.fevals, got.assign,
						gc.k, gc.feasible, math.Float64frombits(gc.objBits), gc.fevals, gc.assign)
				}
			})
		}
	}
}
