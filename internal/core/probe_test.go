package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// flipCtx reports cancellation from its n-th Err call on, closing Done at
// the same moment: a deterministic "cancelled mid-run" that does not
// depend on timing.
type flipCtx struct {
	context.Context
	after int64
	calls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newFlipCtx(after int64) *flipCtx {
	return &flipCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) >= c.after {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

// probeProblem is a mid-sized instance whose bounded-K search takes
// several probes, with the disk model on.
func probeProblem(t *testing.T) (*Evaluator, [][]int, SolveOptions) {
	t.Helper()
	p := randomLoadStateProblem(rand.New(rand.NewSource(5)), 30, 24, true)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	bins, ok := ev.GreedySeed(len(p.Machines), 1)
	if !ok {
		t.Fatal("greedy packing failed")
	}
	opt := DefaultSolveOptions()
	opt.DirectFevals = 600
	opt.PolishFevals = 1200
	return ev, bins, opt
}

// sameMemo reports whether two probe memos hold the same reusable work.
func sameMemo(a, b *probeMemo) bool {
	return a.k == b.k && a.seedFevals == b.seedFevals &&
		reflect.DeepEqual(a.seeds, b.seeds) && reflect.DeepEqual(a.values, b.values)
}

// TestCancelledProbeLeavesNoMemo: a probe whose context is cancelled,
// before it starts or partway through, hands nothing to the polish; a
// finished probe hands over its seeds and every DIRECT value it priced.
func TestCancelledProbeLeavesNoMemo(t *testing.T) {
	ev, bins, opt := probeProblem(t)
	K := len(bins)

	done, memo := ev.Clone().solveK(context.Background(), K, opt, bins, false, nil)
	if memo == nil || memo.k != K || len(memo.seeds) != 2 || len(memo.values) == 0 || memo.seedFevals <= 0 {
		t.Fatalf("finished probe memo = %+v", memo)
	}
	if !done.feas {
		t.Fatalf("probe at the greedy bound K=%d infeasible", K)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, m := ev.Clone().solveK(pre, K, opt, bins, false, nil); m != nil {
		t.Error("probe cancelled before it started left a memo")
	}
	for _, after := range []int64{50, 2000} {
		ctx := newFlipCtx(after)
		if _, m := ev.Clone().solveK(ctx, K, opt, bins, false, nil); m != nil {
			t.Errorf("probe cancelled after %d context checks left a memo", after)
		}
	}
}

// TestPolishReuseMatchesRecompute: a polish handed the memo of the probe
// at its K returns exactly what a polish from scratch returns, with the
// same Fevals; a memo from another K is ignored. With SkipDirect the
// reused polish equals the probe itself.
func TestPolishReuseMatchesRecompute(t *testing.T) {
	ev, bins, opt := probeProblem(t)
	K := len(bins)
	for _, skip := range []bool{false, true} {
		o := opt
		o.SkipDirect = skip
		pe := ev.Clone()
		probe, memo := pe.solveK(context.Background(), K, o, bins, false, nil)

		fresh := ev.Clone()
		want, _ := fresh.solveK(context.Background(), K, o, bins, true, nil)
		reuse := ev.Clone()
		got, _ := reuse.solveK(context.Background(), K, o, bins, true, memo)
		if !reflect.DeepEqual(got, want) || reuse.Fevals != fresh.Fevals {
			t.Errorf("skip=%v: reused polish (obj %v, %d fevals) differs from recomputed (obj %v, %d fevals)",
				skip, got.obj, reuse.Fevals, want.obj, fresh.Fevals)
		}
		if skip && (!reflect.DeepEqual(got, probe) || reuse.Fevals != pe.Fevals) {
			t.Errorf("SkipDirect polish differs from its probe")
		}

		other := ev.Clone()
		alt, _ := other.solveK(context.Background(), K+1, o, bins, true, memo)
		base := ev.Clone()
		wantAlt, _ := base.solveK(context.Background(), K+1, o, bins, true, nil)
		if !reflect.DeepEqual(alt, wantAlt) || other.Fevals != base.Fevals {
			t.Errorf("skip=%v: polish at K+1 used the memo of K", skip)
		}
	}
}

// TestSpeculativeSearchHandsOverConsumedProbe: at two and four workers
// the speculative search returns the probe the sequential search ends on,
// with exactly the memo a sequential probe at that K records — never a
// cancelled loser's.
func TestSpeculativeSearchHandsOverConsumedProbe(t *testing.T) {
	ev, bins, opt := probeProblem(t)
	lo := ev.FractionalLowerBound()
	hi := len(bins)
	if hi-lo < 2 {
		t.Fatalf("search interval [%d,%d) too narrow to speculate", lo, hi)
	}
	for _, workers := range []int{2, 4} {
		o := opt
		o.Workers = workers
		end := lo
		found := ev.Clone().searchKSpeculative(context.Background(), lo, hi, o, bins, &end)
		if found == nil || found.memo == nil || found.memo.k != found.k || found.k != end {
			t.Fatalf("workers=%d: found %+v, search ended at %d", workers, found, end)
		}
		_, want := ev.Clone().solveK(context.Background(), found.k, opt, bins, false, nil)
		if !sameMemo(found.memo, want) {
			t.Errorf("workers=%d: memo of K=%d differs from a sequential probe's", workers, found.k)
		}
	}
}

// TestSolveCancelMidSearch: cancelling a solve partway through the
// bounded-K search returns ctx.Err() and no plan, sequentially and on the
// speculative path.
func TestSolveCancelMidSearch(t *testing.T) {
	ev, _, opt := probeProblem(t)
	for _, workers := range []int{1, 2, 4} {
		o := opt
		o.Workers = workers
		sol, err := Solve(newFlipCtx(400), ev.p, o)
		if !errors.Is(err, context.Canceled) || sol != nil {
			t.Errorf("workers=%d: cancelled solve returned (%v, %v), want context.Canceled", workers, sol, err)
		}
	}
}

// TestEvaluatorHoldsNoProbeState: probe reuse lives in Solve's locals,
// never on the Evaluator, so nothing a solve recorded outlives the call.
func TestEvaluatorHoldsNoProbeState(t *testing.T) {
	forbidden := []reflect.Type{
		reflect.TypeOf((*probeMemo)(nil)),
		reflect.TypeOf((*kProbe)(nil)),
		reflect.TypeOf([]kCandidate(nil)),
		reflect.TypeOf(map[string]float64(nil)),
		reflect.TypeOf((*directObjective)(nil)),
	}
	et := reflect.TypeOf(Evaluator{})
	for i := 0; i < et.NumField(); i++ {
		f := et.Field(i)
		for _, bad := range forbidden {
			if f.Type == bad {
				t.Errorf("Evaluator.%s has type %v: solve reuse state must stay local to Solve", f.Name, f.Type)
			}
		}
	}
}
