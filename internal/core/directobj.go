package core

import (
	"encoding/binary"
	"math"
)

// directObjective prices DIRECT's decoded points for one K incrementally.
// Successive points of a DIRECT run differ in a handful of coordinates, so
// most machines keep their member set from one point to the next. The
// objective keeps the last priced assignment and, per machine, the member
// list in ascending unit order, the count of conflicting member pairs and
// the balance-plus-violation contribution; a new point re-prices only the
// machines whose member set changed, with the same accumulateInto/evalSums
// calls Eval makes, and then adds the terms up in Eval's exact order. The
// result is bit-identical to Eval's objective.
//
// A changed machine is always re-summed from scratch in member order:
// replacing that with an add/remove delta on the old sums would change the
// floating-point result. One directObjective serves one worker of one
// DIRECT run; it is not safe for concurrent use.
type directObjective struct {
	ev *Evaluator
	K  int

	assign  []int     // last priced assignment (all -1 before the first)
	members [][]int   // per machine, members in ascending unit order
	pairs   []int     // per machine, conflicting member pairs
	contrib []float64 // per machine, exp(norm)+penaltyWeight·viol (0 if empty)
	dirty   []bool    // per machine, member set changed since last pricing

	// penalties counts the units of assign priced one penaltyWeight each
	// before the machine terms: assignments outside [0,K) and broken pins.
	penalties int

	cpu, ram, ws, rate []float64 // aggregate scratch, length T
}

// newDirectObjective returns an incremental objective over K machines
// pricing with ev (whose Fevals it counts and whose memos it uses). It
// starts from every unit unplaced, so the first point is a diff like any
// other. Every member list is sized for all units up front, so pricing
// never allocates.
func newDirectObjective(ev *Evaluator, K int) *directObjective {
	nU := len(ev.units)
	backing := make([]int, K*nU)
	o := &directObjective{
		ev:        ev,
		K:         K,
		assign:    make([]int, nU),
		penalties: nU,
		members:   make([][]int, K),
		pairs:     make([]int, K),
		contrib:   make([]float64, K),
		dirty:     make([]bool, K),
		cpu:       make([]float64, ev.T),
		ram:       make([]float64, ev.T),
		ws:        make([]float64, ev.T),
		rate:      make([]float64, ev.T),
	}
	for j := range o.members {
		o.members[j] = backing[j*nU : j*nU : (j+1)*nU]
	}
	for u := range o.assign {
		o.assign[u] = -1
	}
	return o
}

// penalized reports whether unit u on machine j costs one penaltyWeight
// in Eval's unit loop: off the machine range, or away from its pin.
//
//kairos:hotpath
func (o *directObjective) penalized(u, j int) bool {
	if j < 0 || j >= o.K {
		return true
	}
	pin := o.ev.pin[u]
	return pin >= 0 && pin != j
}

// searchUnit returns the index of the first entry of the ascending unit
// list m that is not below u (len(m) when every entry is).
//
//kairos:hotpath
func searchUnit(m []int, u int) int {
	lo, hi := 0, len(m)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// remove deletes unit u from machine j's ascending member list.
//
//kairos:hotpath
func (o *directObjective) remove(j, u int) {
	m := o.members[j]
	i := searchUnit(m, u)
	copy(m[i:], m[i+1:])
	o.members[j] = m[:len(m)-1]
}

// insert adds unit u to machine j's ascending member list. The list's
// capacity holds every unit, so the reslice never reallocates.
//
//kairos:hotpath
func (o *directObjective) insert(j, u int) {
	m := o.members[j]
	i := searchUnit(m, u)
	m = m[:len(m)+1]
	copy(m[i+1:], m[i:])
	m[i] = u
	o.members[j] = m
}

// reprice recomputes machine j's conflict pairs and contribution from its
// current members. The pair count is an integer, so counting each pair
// from its lower unit through the sorted conflict lists matches Eval's
// all-pairs scan exactly; the contribution uses Eval's own calls.
//
//kairos:hotpath
func (o *directObjective) reprice(j int) {
	ev := o.ev
	m := o.members[j]
	pairs := 0
	for _, a := range m {
		prev := -1
		for _, b := range ev.conflicts[a] {
			// conflicts[a] is sorted and may repeat a partner (a replica
			// pair also named in AntiAffinity); Eval counts a pair once.
			if b != prev && b > a && o.assign[b] == j {
				pairs++
			}
			prev = b
		}
	}
	o.pairs[j] = pairs
	if len(m) == 0 {
		o.contrib[j] = 0
		return
	}
	ev.accumulateInto(m, o.cpu, o.ram, o.ws, o.rate)
	_, _, _, viol, norm := ev.evalSums(j, o.cpu, o.ram, o.ws, o.rate, ev.slaCap(m))
	o.contrib[j] = math.Exp(norm) + penaltyWeight*viol
}

// eval returns Eval(next, K)'s objective, bit for bit, and counts one
// Feval. next is read, not retained.
//
//kairos:hotpath
func (o *directObjective) eval(next []int) float64 {
	o.ev.Fevals++
	for u, j := range next {
		i := o.assign[u]
		if i == j {
			continue
		}
		if o.penalized(u, i) {
			o.penalties--
		}
		if o.penalized(u, j) {
			o.penalties++
		}
		if i >= 0 && i < o.K {
			o.remove(i, u)
			o.dirty[i] = true
		}
		if j >= 0 && j < o.K {
			o.insert(j, u)
			o.dirty[j] = true
		}
		o.assign[u] = j
	}
	for j, d := range o.dirty {
		if d {
			o.reprice(j)
			o.dirty[j] = false
		}
	}

	// Eval's summation order: unit penalties first, then per machine its
	// conflict penalties followed by its contribution.
	var obj float64
	for i := 0; i < o.penalties; i++ {
		obj += penaltyWeight
	}
	for j := 0; j < o.K; j++ {
		for i := 0; i < o.pairs[j]; i++ {
			obj += penaltyWeight
		}
		if len(o.members[j]) > 0 {
			obj += o.contrib[j]
		}
	}
	return obj
}

// appendAssignKey appends a byte key identifying assign exactly among
// assignments of its length: the (unit, machine) pairs where it differs
// from base, as uvarints in unit order. Uvarints are prefix-free, so
// distinct assignments never share a key; entries must be non-negative.
// DIRECT's points stay a few coordinates away from the box centre, so
// keys against the centre's decode are a few bytes long.
func appendAssignKey(dst []byte, assign, base []int) []byte {
	for u, j := range assign {
		if j != base[u] {
			dst = binary.AppendUvarint(dst, uint64(u))
			dst = binary.AppendUvarint(dst, uint64(j))
		}
	}
	return dst
}
