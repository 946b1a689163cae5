package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"kairos/internal/direct"
	"kairos/internal/greedy"
)

// SolveOptions tunes the consolidation solver.
type SolveOptions struct {
	// DirectFevals is the DIRECT evaluation budget per K probed during the
	// binary search (default 2000).
	DirectFevals int
	// PolishFevals is the extra DIRECT budget for the final K (default
	// 2·DirectFevals).
	PolishFevals int
	// FixedK forces the solver to use exactly this many machines (0 = find
	// the minimum feasible K automatically).
	FixedK int
	// SkipDirect uses only greedy seeding plus hill climbing — the fast
	// path for very large instances.
	SkipDirect bool
	// Workers is the solver's evaluation parallelism: DIRECT candidate
	// batches and greedy seeding fan out across this many goroutines, and
	// the binary search over the machine count probes speculative next K
	// values concurrently, cancelling losers (0 or 1 = fully sequential).
	// At most Workers probes are in flight: with two workers the search
	// speculates only the lower-K half, with three or more both halves.
	// The computed plan is identical for every worker count — parallelism
	// only changes wall-clock time — so results stay reproducible.
	Workers int
	// MigrationWeight prices warm-restart migrations (Resolve only): a unit
	// placed away from its incumbent machine charges
	// MigrationWeight · (its peak working set / the fleet's mean peak
	// working set) on top of the balance objective, so heavy databases are
	// stickier than light ones. 0 disables migration pricing. Cold solves
	// (Solve, SolveSharded) ignore it — they have no incumbent.
	MigrationWeight float64
	// MaxMigrations caps how many units a warm re-solve may leave away from
	// their incumbent machine (Resolve only; 0 = unlimited). With a cap
	// set, Resolve skips the machine-count reduction pass, which migrates
	// whole machines at a time.
	MaxMigrations int
	// BucketWidth sets the coarse-pricing bucket width in time steps for
	// the local search's move screen (see Evaluator.SetBucketWidth): 0 uses
	// the default ⌈T/16⌉, a positive value is used as given, and a negative
	// value disables screening so every candidate is priced exactly. The
	// computed plan is bit-identical for every setting — the screen only
	// prunes candidates whose priced delta provably could not win.
	BucketWidth int
}

// workers normalizes the Workers option.
func (o SolveOptions) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// DefaultSolveOptions returns the standard budgets.
func DefaultSolveOptions() SolveOptions {
	return SolveOptions{DirectFevals: 2000}
}

// ParallelSolveOptions returns the standard budgets with one solver worker
// per available CPU.
func ParallelSolveOptions() SolveOptions {
	o := DefaultSolveOptions()
	o.Workers = runtime.GOMAXPROCS(0)
	return o
}

// kCandidate is one climbed assignment on K machines.
type kCandidate struct {
	assign []int
	obj    float64
	feas   bool
}

// better reports whether c beats b: feasibility first, then objective.
func (c kCandidate) better(b kCandidate) bool {
	return (c.feas && !b.feas) || (c.feas == b.feas && c.obj < b.obj)
}

// kProbe is one budgeted probe's outcome at machine count k, with what a
// polish at the same K can reuse (nil when the probe did not finish).
type kProbe struct {
	kCandidate
	k    int
	memo *probeMemo
}

// probeMemo is the work a finished probe at K shares with the polish at
// the same K: the climbed cold-seed candidates with the Fevals they cost,
// and the DIRECT objective values keyed by decoded assignment (see
// appendAssignKey). The polish runs the same cold seeds and, for its
// first iterations, visits the same DIRECT points, so it takes both from
// here and credits their Fevals exactly as if it had recomputed them.
// Solve keeps only the latest feasible probe's memo, in a local, and drops
// it when it returns.
type probeMemo struct {
	k          int
	seeds      []kCandidate
	seedFevals int
	values     map[string]float64
}

// Solve finds a consolidation plan: the minimum feasible machine count K'
// via binary search between the fractional lower bound and the greedy upper
// bound, then the most balanced assignment on K' machines (paper Section 6).
// Cancelling ctx aborts the solve between pricing units and returns
// ctx.Err(); the partial state is discarded.
func Solve(ctx context.Context, p *Problem, opt SolveOptions) (*Solution, error) {
	start := time.Now()
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	if opt.BucketWidth != 0 {
		ev.SetBucketWidth(opt.BucketWidth)
	}
	if opt.DirectFevals <= 0 {
		opt.DirectFevals = 2000
	}
	if opt.PolishFevals <= 0 {
		opt.PolishFevals = 2 * opt.DirectFevals
	}

	maxK := len(p.Machines)
	lo := ev.FractionalLowerBound()
	if lo > maxK {
		return nil, fmt.Errorf("core: fractional lower bound %d exceeds available machines %d", lo, maxK)
	}
	// Pinning forces machines up to the highest pinned index.
	for _, pin := range ev.pin {
		if pin >= 0 && pin+1 > lo {
			lo = pin + 1
		}
	}

	if opt.FixedK > 0 {
		if opt.FixedK > maxK {
			return nil, fmt.Errorf("core: FixedK %d exceeds available machines %d", opt.FixedK, maxK)
		}
		// A pin outside [0,FixedK) can never be honoured: every seed would
		// place the unit out of range. (Probing an infeasible-but-in-range
		// FixedK is still allowed; it returns Feasible=false.)
		for u, pin := range ev.pin {
			if pin >= opt.FixedK {
				return nil, fmt.Errorf("core: FixedK %d cannot honour workload unit %d pinned to machine %d", opt.FixedK, u, pin)
			}
		}
		bins, _ := ev.GreedySeed(opt.FixedK, opt.workers())
		best, _ := ev.solveK(ctx, opt.FixedK, opt, bins, true, nil)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return ev.finish(p, best.assign, opt.FixedK, best.obj, best.feas, start), nil
	}

	// Upper bound: greedy packing (validated against all constraints); if
	// greedy fails, fall back to every available machine. This one packing
	// also gives every probe its greedy seed (see greedyBinsFor).
	hi := maxK
	bins, ok := ev.GreedySeed(maxK, opt.workers())
	if ok {
		hi = len(bins)
	}
	if hi < lo {
		hi = lo
	}

	// Binary search the smallest feasible K. Feasibility at K is decided by
	// a budgeted solve; the search keeps the latest feasible probe.
	var found *kProbe
	if opt.workers() > 1 {
		found = ev.searchKSpeculative(ctx, lo, hi, opt, bins, &lo)
	} else {
		for lo < hi {
			mid := (lo + hi) / 2
			best, memo := ev.solveK(ctx, mid, opt, bins, false, nil)
			if best.feas {
				found = &kProbe{kCandidate: best, k: mid, memo: memo}
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}
	kStar := lo
	// Final run at K' with the polish budget, reusing the probe at K'.
	var prior *probeMemo
	if found != nil {
		prior = found.memo
	}
	best, _ := ev.solveK(ctx, kStar, opt, bins, true, prior)
	if !best.feas && found != nil && found.k == kStar {
		best = found.kCandidate
	}
	if !best.feas && kStar < maxK {
		// The bound search can be misled by budgeted solves; walk K upward
		// until feasible.
		for k := kStar + 1; k <= maxK; k++ {
			best, _ = ev.solveK(ctx, k, opt, bins, true, nil)
			if best.feas {
				kStar = k
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ev.finish(p, best.assign, kStar, best.obj, best.feas, start), nil
}

// searchKSpeculative runs the binary search over the machine count with
// speculative parallel probing: while the current midpoint K solves, the
// midpoints of the possible next intervals solve concurrently on cloned
// evaluators, and probes that fall outside the interval once the current
// result lands are cancelled via their context. At most opt.Workers probes
// are in flight: with two workers only the lower-K next midpoint is
// speculated (the greedy upper bound is feasible by construction and
// loose, so the search mostly moves down), with three or more both are.
// The sequence of consumed probes is exactly the sequential binary
// search's, and every probe is a deterministic function of its K, so the
// outcome (including Fevals, which only counts consumed probes) is
// identical to the sequential path. Only consumed probes' memos reach the
// caller. The final interval low bound is written to *loOut. Probe
// contexts derive from the caller's ctx, so cancelling it aborts every
// in-flight probe.
func (ev *Evaluator) searchKSpeculative(ctx context.Context, lo, hi int, opt SolveOptions, bins [][]int, loOut *int) *kProbe {
	type probeRes struct {
		best   kCandidate
		memo   *probeMemo
		fevals int
	}
	type future struct {
		cancel context.CancelFunc
		ch     chan probeRes
	}
	// Up to three probes (the current mid plus both speculative next mids)
	// run at once; splitting the worker budget across them keeps the
	// search's total goroutine count at most Workers. Which workers a probe
	// gets never changes its result, only its wall clock.
	maxProbes := opt.workers()
	probeOpt := opt
	if probeOpt.Workers = opt.workers() / 3; probeOpt.Workers < 1 {
		probeOpt.Workers = 1
	}
	launch := func(K int) *future {
		pctx, cancel := context.WithCancel(ctx)
		f := &future{cancel: cancel, ch: make(chan probeRes, 1)}
		pe := ev.Clone()
		go func() {
			best, memo := pe.solveK(pctx, K, probeOpt, bins, false, nil)
			f.ch <- probeRes{best, memo, pe.Fevals}
		}()
		return f
	}
	futures := map[int]*future{}
	ensure := func(K int) *future {
		if f, ok := futures[K]; ok {
			return f
		}
		f := launch(K)
		futures[K] = f
		return f
	}
	defer func() {
		for _, f := range futures {
			f.cancel()
		}
	}()

	var found *kProbe
	for lo < hi {
		mid := (lo + hi) / 2
		cur := ensure(mid)
		// Speculate the next probes while mid solves, lower half first, in
		// the slots the worker budget leaves. After pruning, the only probe
		// left over from the previous round is this mid, so mid itself
		// never waits for a slot.
		if next := (lo + mid) / 2; next < mid && len(futures) < maxProbes {
			ensure(next)
		}
		if next := (mid + 1 + hi) / 2; next > mid && next < hi && len(futures) < maxProbes {
			ensure(next)
		}
		r := <-cur.ch
		cur.cancel()
		delete(futures, mid)
		ev.Fevals += r.fevals
		if r.best.feas {
			found = &kProbe{kCandidate: r.best, k: mid, memo: r.memo}
			hi = mid
		} else {
			lo = mid + 1
		}
		// The interval moved: probes outside it can never be consumed.
		for K, f := range futures {
			if K < lo || K >= hi {
				f.cancel()
				delete(futures, K)
			}
		}
	}
	*loOut = lo
	return found
}

// finish assembles the Solution.
func (ev *Evaluator) finish(p *Problem, assign []int, k int, obj float64, feasible bool, start time.Time) *Solution {
	return &Solution{
		Assign:    assign,
		Units:     ev.Units(),
		K:         k,
		Feasible:  feasible,
		Objective: obj,
		Fevals:    ev.Fevals,
		Elapsed:   time.Since(start),
	}
}

// FractionalLowerBound computes the paper's optimistic bound: workloads are
// divisible and resources independent, so K must be at least the peak
// aggregate demand of each resource divided by per-machine capacity.
func (ev *Evaluator) FractionalLowerBound() int {
	T := ev.T
	cpuSum := make([]float64, T)
	ramSum := make([]float64, T)
	wsSum := make([]float64, T)
	rateSum := make([]float64, T)
	for u := range ev.units {
		for t := 0; t < T; t++ {
			cpuSum[t] += ev.cpu[u][t]
			ramSum[t] += ev.ram[u][t]
			wsSum[t] += ev.ws[u][t]
			rateSum[t] += ev.rate[u][t]
		}
	}
	m := ev.p.Machines[0]
	k := 1
	for t := 0; t < T; t++ {
		if need := int(math.Ceil(cpuSum[t] / m.capacity(m.CPUCapacity))); need > k {
			k = need
		}
		if need := int(math.Ceil(ramSum[t] / m.capacity(m.RAMBytes))); need > k {
			k = need
		}
	}
	if ev.p.Disk != nil {
		diskCap := m.capacity(m.DiskWriteBps)
		for t := 0; t < T; t++ {
			// Smallest split count making the disk model feasible; the
			// profile is monotone in both arguments, so scan upward.
			for n := k; n <= len(ev.p.Machines); n++ {
				pred := ev.p.Disk.PredictWriteMBps(wsSum[t]/float64(n), rateSum[t]/float64(n)) * 1e6
				ok := pred <= diskCap
				if ok && ev.p.Disk.HasEnvelope {
					// Boundary rule (model.EnvelopeFeasible): at the
					// envelope is feasible, beyond it is not.
					ok = rateSum[t]/float64(n) <= ev.envMax(wsSum[t]/float64(n))
				}
				if ok {
					if n > k {
						k = n
					}
					break
				}
				if n == len(ev.p.Machines) && n > k {
					k = n
				}
			}
		}
	}
	return k
}

// GreedySeed packs units into at most maxBins machines with the paper's
// single-resource greedy baseline (Section 7.3), using the full
// multi-resource feasibility check, and returns the bins (unit indices)
// and whether every unit was placed. Solve packs once with every machine
// available; the result is its upper bound on K and the greedy seed of
// each probe. With workers > 1 the per-resource packings run
// concurrently, each against its own evaluator clone; the bins are the
// same for every worker count.
func (ev *Evaluator) GreedySeed(maxBins, workers int) ([][]int, bool) {
	nU := len(ev.units)
	peak := func(vals [][]float64) []float64 {
		out := make([]float64, nU)
		for u := 0; u < nU; u++ {
			for _, v := range vals[u] {
				if v > out[u] {
					out[u] = v
				}
			}
		}
		return out
	}
	loads := [][]float64{peak(ev.cpu), peak(ev.ram)}
	if ev.p.Disk != nil {
		loads = append(loads, peak(ev.rate))
	}
	fitsFor := func(e *Evaluator) greedy.FitsFunc {
		// One scratch member list per closure: each greedy worker owns its
		// evaluator clone and its scratch, so checks stay allocation-light.
		scratch := make([]int, 0, nU)
		return func(bin []int, item int) bool {
			// Pins and conflicts cannot be checked bin-locally against machine
			// indices, so the greedy seed only enforces resources and
			// conflicts; pinning is repaired by hill climbing.
			for _, b := range bin {
				if e.conflicted(b, item) {
					return false
				}
			}
			scratch = append(append(scratch[:0], bin...), item)
			sl := e.serverEval(0, scratch)
			return sl.Violation == 0
		}
	}
	var bins [][]int
	var ok bool
	var err error
	if workers > 1 && len(loads) > 1 {
		bins, ok, err = greedy.MultiResourceParallel(loads, func(int) greedy.FitsFunc {
			return fitsFor(ev.Clone())
		}, maxBins, workers)
	} else {
		bins, ok, err = greedy.MultiResource(loads, fitsFor(ev), maxBins)
	}
	if err != nil || !ok {
		return nil, false
	}
	return bins, true
}

// greedyBinsFor returns the greedy seed bins for a probe at K given the
// packing GreedySeed made with the largest bin budget (nil when it
// failed): those bins iff they fit in K. This equals GreedySeed(K): a
// capped greedy.Pack follows the uncapped run until it would open bin K+1,
// and MultiResource keeps the fewest-bin packing, so capping at K either
// reproduces the fewest-bin packing or fails every resource.
func greedyBinsFor(bins [][]int, K int) [][]int {
	if bins == nil || len(bins) > K {
		return nil
	}
	return bins
}

// coldSeeds returns the deterministic cold-start assignments solveK climbs
// from — greedy packing (when it fits K bins) and round-robin spread, both
// with unplaced units parked on machine 0 and pins repaired. Resolve uses
// the same seeds as safety-net candidates, which is what guarantees a warm
// re-solve never loses to the cold local-search path at the same K.
func (ev *Evaluator) coldSeeds(K, workers int) [][]int {
	bins, _ := ev.GreedySeed(K, workers)
	return ev.coldSeedsFrom(bins, K)
}

// coldSeedsFrom is coldSeeds with the greedy packing already made: bins
// is any packing greedyBinsFor accepts (nil skips the greedy seed).
func (ev *Evaluator) coldSeedsFrom(bins [][]int, K int) [][]int {
	nU := len(ev.units)
	var seeds [][]int
	if bins = greedyBinsFor(bins, K); bins != nil {
		a := greedy.Assignment(bins, nU)
		for u := range a {
			if a[u] < 0 {
				a[u] = 0
			}
			if ev.pin[u] >= 0 {
				a[u] = ev.pin[u]
			}
		}
		seeds = append(seeds, a)
	}
	rr := make([]int, nU)
	for u := range rr {
		rr[u] = u % K
		if ev.pin[u] >= 0 {
			rr[u] = ev.pin[u]
		}
	}
	return append(seeds, rr)
}

// solveK finds the best assignment on exactly K machines with the given
// budget: greedy and spread seeds improved by hill climbing, plus an
// optional DIRECT global search, polished again. bins is the solve's
// greedy packing (see greedyBinsFor). Deterministic throughout for any
// worker count; a cancelled ctx aborts early with a best-effort result
// (speculative probes discard it anyway).
//
// A probe (polish false) also returns its probeMemo, or nil when ctx was
// cancelled before it finished. A polish given the memo of a probe at the
// same K reuses the probe's climbed seeds and DIRECT values instead of
// recomputing them; the result and Fevals are unchanged by the reuse.
func (ev *Evaluator) solveK(ctx context.Context, K int, opt SolveOptions, bins [][]int, polish bool, prior *probeMemo) (kCandidate, *probeMemo) {
	nU := len(ev.units)
	if prior != nil && prior.k != K {
		prior = nil
	}
	var memo *probeMemo
	if !polish {
		memo = &probeMemo{k: K}
	}
	var cands []kCandidate
	try := func(a []int) {
		a2, o2, f2 := ev.hillClimb(ctx, a, K)
		cands = append(cands, kCandidate{a2, o2, f2})
	}

	// Cold seeds: greedy bins plus round-robin spread.
	if prior != nil {
		cands = append(cands, prior.seeds...)
		ev.Fevals += prior.seedFevals
	} else {
		before := ev.Fevals
		for _, a := range ev.coldSeedsFrom(bins, K) {
			try(a)
		}
		if memo != nil {
			memo.seeds = append([]kCandidate(nil), cands...)
			memo.seedFevals = ev.Fevals - before
		}
	}

	// DIRECT global search over the compact encoding: one continuous
	// variable per unit in [0, K), floor() gives the machine index. With
	// workers > 1 each DIRECT iteration's candidate batch is evaluated
	// across the worker pool, every worker owning an evaluator clone and
	// its own incremental objective.
	if !opt.SkipDirect {
		budget := opt.DirectFevals
		if polish {
			budget = opt.PolishFevals
		}
		lower := make([]float64, nU)
		upper := make([]float64, nU)
		for i := range upper {
			upper[i] = float64(K)
		}
		decode := func(x []float64, out []int) []int {
			for i, v := range x {
				j := int(v)
				if j >= K {
					j = K - 1
				}
				if ev.pin[i] >= 0 {
					j = ev.pin[i]
				}
				out[i] = j
			}
			return out
		}
		var prevValues map[string]float64
		if prior != nil {
			prevValues = prior.values
		}
		centre := make([]float64, nU)
		for i := range centre {
			centre[i] = float64(K) / 2
		}
		keyBase := decode(centre, make([]int, nU))
		// workerObjective builds worker w's DIRECT objective over ce: the
		// prior probe's values are served by key, everything else is
		// priced incrementally, and a probe records every value it prices
		// in records[w] for a later polish. A value depends only on its
		// key, so merging the workers' records is order-free.
		workers := opt.workers()
		records := make([]map[string]float64, workers)
		workerObjective := func(w int, ce *Evaluator) direct.Objective {
			var record map[string]float64
			if memo != nil {
				record = map[string]float64{}
				records[w] = record
			}
			inc := newDirectObjective(ce, K)
			tmp := make([]int, nU)
			var key []byte
			return func(x []float64) float64 {
				a := decode(x, tmp)
				if prevValues != nil || record != nil {
					key = appendAssignKey(key[:0], a, keyBase)
				}
				if v, ok := prevValues[string(key)]; ok {
					ce.Fevals++ // as if recomputed
					return v
				}
				v := inc.eval(a)
				if record != nil {
					record[string(key)] = v
				}
				return v
			}
		}
		dopt := direct.Options{MaxFevals: budget, Epsilon: 1e-4, Ctx: ctx}
		var res direct.Result
		var derr error
		if workers > 1 {
			dopt.Workers = workers
			clones := make([]*Evaluator, workers)
			res, derr = direct.MinimizeParallel(func(w int) direct.Objective {
				clones[w] = ev.Clone()
				return workerObjective(w, clones[w])
			}, lower, upper, dopt)
			// Fold worker counters back in fixed order: the total is the
			// batch-point count, independent of scheduling.
			for _, ce := range clones {
				if ce != nil {
					ev.Fevals += ce.Fevals
				}
			}
		} else {
			res, derr = direct.Minimize(workerObjective(0, ev), lower, upper, dopt)
		}
		if memo != nil {
			memo.values = records[0]
			for _, r := range records[1:] {
				for k, v := range r {
					memo.values[k] = v
				}
			}
		}
		if derr == nil {
			try(decode(res.X, make([]int, nU)))
		}
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if c.better(best) {
			best = c
		}
	}
	if ctx.Err() != nil {
		memo = nil
	}
	return best, memo
}

// hillClimb is deterministic best-improvement local search — the
// "polishing" phase of Section 6 — with single-unit moves plus 2-exchange
// swap sweeps. Candidate moves are priced in O(T) against the incremental
// LoadState, so a full move sweep costs O(U·K·T) and a swap sweep O(U²·T),
// instead of the O(·units-per-server·T) factor a scratch re-aggregation
// needs per candidate.
func (ev *Evaluator) hillClimb(ctx context.Context, assign []int, K int) ([]int, float64, bool) {
	return ev.hillClimbRounds(ctx, assign, K, 100)
}

// hillClimbRounds is hillClimb with an explicit sweep budget (the sharded
// solver's cross-shard rebalance pass uses a small one).
func (ev *Evaluator) hillClimbRounds(ctx context.Context, assign []int, K int, maxRounds int) ([]int, float64, bool) {
	return ev.hillClimbMig(ctx, assign, K, maxRounds, nil)
}

// hillClimbMig is the full local search: rounds of single-unit move sweeps,
// falling back to a 2-exchange swap sweep whenever moves stall — swaps
// escape the local optima single-unit moves cannot (two units that should
// trade places but neither fits alongside the other). A non-nil mig adds
// warm-restart migration pricing (Resolve). Accepted moves and swaps
// re-materialize the touched machines' sums canonically inside LoadState,
// and the final plan is re-priced through the canonical Eval, so the
// incremental pricing never drifts into the result. Deterministic: sweep
// order is fixed and independent of worker counts.
func (ev *Evaluator) hillClimbMig(ctx context.Context, assign []int, K int, maxRounds int, mig *migration) ([]int, float64, bool) {
	ls := NewLoadState(ev, assign, K)
	for rounds := 0; rounds < maxRounds && ctx.Err() == nil; rounds++ {
		if !ev.sweepMoves(ctx, ls, K, mig) {
			if !ev.sweepSwaps(ctx, ls, K, mig) {
				break
			}
		}
	}
	// Canonical final pricing through Eval keeps all callers consistent.
	cur := ls.Assignment()
	obj, feas := ev.Eval(cur, K)
	return cur, obj, feas
}

// bestMove returns unit u's best strictly-improving destination machine
// under the current LoadState (and optional migration pricing), or u's
// current machine when no move improves. Counts one Feval per candidate
// priced. Shared by the move sweeps and the warm-seed placement of units
// with no incumbent.
func (ev *Evaluator) bestMove(ls *LoadState, u, K int, mig *migration) int {
	from := ls.Assign(u)
	cFromNew := ls.PriceRemove(u)
	bestJ := from
	bestDelta := -1e-9 // strict improvement required
	screen := ls.Screened()
	for j := 0; j < K; j++ {
		if j == from {
			continue
		}
		if !mig.allows(mig.awayDelta(u, from, j)) {
			continue
		}
		// Fevals counts candidates considered, screened or exactly priced,
		// so its semantics (and every warm-vs-cold comparison built on it)
		// are independent of the coarse screen.
		ev.Fevals++
		if screen {
			// Coarse-to-fine: the O(T/B) lower bound on the destination's
			// new contribution prunes candidates that provably cannot beat
			// the best delta so far. The bound delta mirrors the exact
			// delta expression with ScreenAdd ≤ PriceAdd substituted, so
			// pruned candidates are exactly ones the exact pricing would
			// have rejected — the chosen move is bit-identical.
			lo := ls.ScreenAdd(u, j)
			if (cFromNew+lo)-(ls.Contrib(from)+ls.Contrib(j))+mig.delta(u, from, j) >= bestDelta {
				continue
			}
		}
		cToNew := ls.PriceAdd(u, j)
		delta := (cFromNew + cToNew) - (ls.Contrib(from) + ls.Contrib(j)) + mig.delta(u, from, j)
		if delta < bestDelta {
			bestDelta = delta
			bestJ = j
		}
	}
	return bestJ
}

// sweepMoves runs one best-improvement sweep of single-unit moves, applying
// improving moves as it goes. Reports whether anything moved. A cancelled
// ctx stops the sweep between units, bounding abort latency by one unit's
// O(K·T) pricing rather than a whole sweep.
func (ev *Evaluator) sweepMoves(ctx context.Context, ls *LoadState, K int, mig *migration) bool {
	improved := false
	for u := 0; u < ls.NumUnits(); u++ {
		if ctx.Err() != nil {
			return false
		}
		if ev.pin[u] >= 0 {
			continue
		}
		from := ls.Assign(u)
		if bestJ := ev.bestMove(ls, u, K, mig); bestJ != from {
			mig.note(mig.awayDelta(u, from, bestJ))
			ls.Move(u, bestJ)
			improved = true
		}
	}
	return improved
}

// sweepSwaps runs one best-improvement sweep of 2-exchange swaps: for every
// unit, the best partner on another machine is found by pricing both sides
// of the exchange as two O(T) LoadState deltas, and the best strictly
// improving swap per unit is applied immediately. Reports whether any swap
// was applied. A cancelled ctx stops the sweep between units.
func (ev *Evaluator) sweepSwaps(ctx context.Context, ls *LoadState, K int, mig *migration) bool {
	improved := false
	n := ls.NumUnits()
	screen := ls.Screened()
	for u := 0; u < n; u++ {
		if ctx.Err() != nil {
			return false
		}
		if ev.pin[u] >= 0 {
			continue
		}
		a := ls.Assign(u)
		bestV := -1
		bestDelta := -1e-9 // strict improvement required
		for v := u + 1; v < n; v++ {
			if ev.pin[v] >= 0 {
				continue
			}
			b := ls.Assign(v)
			if b == a {
				continue
			}
			if !mig.allows(mig.awayDelta(u, a, b) + mig.awayDelta(v, b, a)) {
				continue
			}
			ev.Fevals++ // candidates considered, screened or priced
			if screen {
				// Coarse-to-fine, staged: first prune against u's side
				// alone (the other side contributes at least exp(0) = 1),
				// then against both sides' lower bounds. Each stage's
				// bound delta mirrors the exact delta expression — same
				// floating-point shape, termwise lower bounds substituted
				// — so pruned swaps are exactly ones the exact pricing
				// would have rejected.
				loU := ls.screenExchange(a, u, v)
				if (loU+1)-(ls.Contrib(a)+ls.Contrib(b))+
					mig.delta(u, a, b)+mig.delta(v, b, a) >= bestDelta {
					continue
				}
				loV := ls.screenExchange(b, v, u)
				if (loU+loV)-(ls.Contrib(a)+ls.Contrib(b))+
					mig.delta(u, a, b)+mig.delta(v, b, a) >= bestDelta {
					continue
				}
			}
			nu, nv := ls.PriceSwap(u, v)
			delta := (nu + nv) - (ls.Contrib(a) + ls.Contrib(b)) +
				mig.delta(u, a, b) + mig.delta(v, b, a)
			if delta < bestDelta {
				bestDelta = delta
				bestV = v
			}
		}
		if bestV >= 0 {
			b := ls.Assign(bestV)
			mig.note(mig.awayDelta(u, a, b) + mig.awayDelta(bestV, b, a))
			ls.Swap(u, bestV)
			improved = true
		}
	}
	return improved
}
