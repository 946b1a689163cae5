package core

import (
	"math"
	"sort"
)

// penaltyWeight scales constraint violations so that any violating solution
// scores worse than any feasible one (a feasible K-server solution is at
// most K·e ≈ 2.72·K; violations add penaltyWeight per unit of relative
// excess) — the "constraint violation penalty" wall in Figure 5.
const penaltyWeight = 1e6

// Evaluator computes the consolidation objective for assignments of a fixed
// problem. It precomputes flat per-unit demand arrays so evaluation is tight
// loops over []float64.
type Evaluator struct {
	p       *Problem
	units   []unit
	T       int
	weights Weights

	// Per-unit demand arrays (length T each). Every slice is a window into
	// one contiguous per-resource backing block (SoA layout), so the
	// pricing loops walk sequential memory instead of chasing the original
	// workloads' scattered series buffers.
	cpu  [][]float64
	ram  [][]float64
	ws   [][]float64
	rate [][]float64

	// scale[u] multiplies unit u's demands (per-replica load scaling).
	scale []float64
	// pin[u] is the required machine for unit u, or -1.
	pin []int
	// conflicts[u] lists units that must not share a machine with u,
	// sorted ascending so conflicted can binary-search (it runs inside
	// every PriceAdd/priceExchange call).
	conflicts [][]int
	// slaCapU[u] is the utilization cap unit u's latency SLA imposes on its
	// host machine (1 when the workload declares no SLA).
	slaCapU []float64

	// envKeys/envVals memoize Disk.MaxRowsPerSec keyed by the raw bits of
	// the aggregate working set (direct-mapped, envMemoSize slots). Local
	// search re-prices the same aggregate sums over and over — the remove
	// side of every candidate move, and both sides again on the next sweep —
	// so the envelope polynomial is mostly evaluated on working sets it has
	// already seen. A hit returns exactly the value the polynomial would,
	// so memoization cannot perturb pricing at the bit level. nil when the
	// problem has no saturation envelope. Not safe for concurrent use;
	// Clone gives each worker its own copy.
	envKeys []uint64
	envVals []float64

	// predWS/predRate/predVals memoize Disk.PredictWriteMBps keyed on the
	// raw bit pair of the aggregate (working set, update rate) — the same
	// direct-mapped discipline as the envelope memo. The exact pricing loop
	// evaluates the fitted Poly2D once per time step per candidate, and
	// local search re-prices the same aggregates over and over, so most
	// evaluations hit working points already seen. A hit is bit-identical
	// to the polynomial, so the memo cannot perturb pricing. nil when the
	// problem has no disk model. Not safe for concurrent use; Clone gives
	// each worker its own copy.
	predWS   []uint64
	predRate []uint64
	predVals []float64

	// coarse holds the bucketed per-unit demand extrema backing the
	// coarse-to-fine move screen (see coarse.go); nil disables screening.
	coarse *coarse

	// Per-machine usable capacities after headroom, precomputed so the
	// per-candidate pricers avoid re-deriving them (and copying Machine
	// structs) on every call. Identical bit-for-bit to
	// Machine.capacity(raw).
	capCPU  []float64
	capRAM  []float64
	capDisk []float64

	// Reusable scratch for Eval: per-machine member lists plus one set of
	// aggregate demand buffers, grown once and reused across calls so the
	// thousands of evaluations a DIRECT run performs allocate nothing.
	// Clone resets them — scratch is mutable state and must not be shared
	// across goroutines.
	emMembers                  [][]int
	esCPU, esRAM, esWS, esRate []float64

	// Fevals counts full-assignment evaluations.
	Fevals int
}

// envMemoBits sizes the envelope memo (2^13 slots × 16 bytes = 128 KiB per
// evaluator — small enough to clone per worker, large enough that a sweep's
// working-set values rarely collide).
const envMemoBits = 13

// predMemoBits sizes the disk-prediction memo (2^15 slots × 24 bytes =
// 768 KiB per evaluator). The working points are (ws, rate) pairs — one per
// machine per time step plus the candidate perturbations a sweep prices —
// so the memo is bigger than the envelope's single-key table.
const predMemoBits = 15

// envRateFloor (rows/sec) bounds the denominator of the envelope violation
// term. The clamped envelope can reach exactly 0 for large working sets; a
// positive rate there is a real violation (the disk cannot sustain any
// updates), and the floor keeps its penalty finite instead of dividing by
// zero — or, as the old `maxRate > 0` guard did, skipping the check
// entirely and calling the placement feasible.
const envRateFloor = 1.0

// NewEvaluator validates the problem and prepares the evaluation arrays.
func NewEvaluator(p *Problem) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := p.Weights
	if w.CPU == 0 && w.RAM == 0 && w.Disk == 0 {
		w = DefaultWeights()
	}
	units := p.units()
	ev := &Evaluator{
		p:       p,
		units:   units,
		T:       p.Workloads[0].CPU.Len(),
		weights: w,
		cpu:     make([][]float64, len(units)),
		ram:     make([][]float64, len(units)),
		ws:      make([][]float64, len(units)),
		rate:    make([][]float64, len(units)),
		scale:   make([]float64, len(units)),
		pin:     make([]int, len(units)),
		slaCapU: make([]float64, len(units)),
	}
	// Contiguous per-resource backing blocks (SoA): unit u's series live at
	// [u·T, (u+1)·T), so sweeps that touch many units stream through memory
	// instead of dereferencing each workload's own buffer. Values are copied
	// verbatim — pricing is bit-identical to reading the source series.
	T := ev.T
	cpuBuf := make([]float64, len(units)*T)
	ramBuf := make([]float64, len(units)*T)
	wsBuf := make([]float64, len(units)*T)
	rateBuf := make([]float64, len(units)*T)
	for u, un := range units {
		wl := &p.Workloads[un.w]
		ev.cpu[u] = cpuBuf[u*T : (u+1)*T : (u+1)*T]
		ev.ram[u] = ramBuf[u*T : (u+1)*T : (u+1)*T]
		ev.ws[u] = wsBuf[u*T : (u+1)*T : (u+1)*T]
		ev.rate[u] = rateBuf[u*T : (u+1)*T : (u+1)*T]
		copy(ev.cpu[u], wl.CPU.Values)
		copy(ev.ram[u], wl.RAMBytes.Values)
		if wl.WSBytes != nil {
			copy(ev.ws[u], wl.WSBytes.Values)
		}
		if wl.UpdateRate != nil {
			copy(ev.rate[u], wl.UpdateRate.Values)
		}
		ev.scale[u] = 1
		if un.replica < len(wl.ReplicaLoadScale) {
			ev.scale[u] = wl.ReplicaLoadScale[un.replica]
		}
		ev.pin[u] = -1
		if un.replica == 0 && wl.PinTo >= 0 {
			ev.pin[u] = wl.PinTo
		}
		ev.slaCapU[u] = 1
		if wl.SLA != nil {
			ev.slaCapU[u] = wl.SLA.MaxUtilization()
		}
	}

	// Conflicts: replicas of the same workload, plus explicit pairs.
	byWorkload := map[int][]int{}
	for u, un := range units {
		byWorkload[un.w] = append(byWorkload[un.w], u)
	}
	ev.conflicts = make([][]int, len(units))
	addConflict := func(a, b int) {
		ev.conflicts[a] = append(ev.conflicts[a], b)
		ev.conflicts[b] = append(ev.conflicts[b], a)
	}
	for _, us := range byWorkload {
		for i := 0; i < len(us); i++ {
			for j := i + 1; j < len(us); j++ {
				addConflict(us[i], us[j])
			}
		}
	}
	for _, pair := range p.AntiAffinity {
		for _, a := range byWorkload[pair[0]] {
			for _, b := range byWorkload[pair[1]] {
				addConflict(a, b)
			}
		}
	}
	// Sort each conflict list so conflicted can binary-search. Construction
	// order above is deterministic, and sorting makes the final lists a
	// pure function of the problem regardless of it.
	for _, c := range ev.conflicts {
		sort.Ints(c)
	}
	if p.Disk != nil && p.Disk.HasEnvelope {
		ev.envKeys = make([]uint64, 1<<envMemoBits)
		ev.envVals = make([]float64, 1<<envMemoBits)
		// Seed every slot coherently: key 0 is the bits of ws=+0, so the
		// matching value must be the envelope at 0 for hits to be exact.
		v0 := p.Disk.MaxRowsPerSec(0)
		for i := range ev.envVals {
			ev.envVals[i] = v0
		}
	}
	ev.capCPU = make([]float64, len(p.Machines))
	ev.capRAM = make([]float64, len(p.Machines))
	ev.capDisk = make([]float64, len(p.Machines))
	for j, m := range p.Machines {
		ev.capCPU[j] = m.capacity(m.CPUCapacity)
		ev.capRAM[j] = m.capacity(m.RAMBytes)
		ev.capDisk[j] = m.capacity(m.DiskWriteBps)
	}
	if p.Disk != nil {
		ev.predWS = make([]uint64, 1<<predMemoBits)
		ev.predRate = make([]uint64, 1<<predMemoBits)
		ev.predVals = make([]float64, 1<<predMemoBits)
		// Same coherent seeding as the envelope memo: the zeroed key arrays
		// describe the pair (ws=+0, rate=+0), so every slot must hold the
		// polynomial's value there for hits to be exact.
		v00 := p.Disk.PredictWriteMBps(0, 0)
		for i := range ev.predVals {
			ev.predVals[i] = v00
		}
	}
	ev.SetBucketWidth(0)
	return ev, nil
}

// envMax returns Disk.MaxRowsPerSec(wsBytes) through the per-evaluator memo.
// The memo is keyed on the exact float bits, so a hit is bit-identical to
// evaluating the polynomial; misses fill the slot (direct-mapped, newest
// wins). Zero allocations.
//
//kairos:hotpath
func (ev *Evaluator) envMax(wsBytes float64) float64 {
	if ev.envKeys == nil {
		return ev.p.Disk.MaxRowsPerSec(wsBytes)
	}
	bits := math.Float64bits(wsBytes)
	slot := (bits * 0x9E3779B97F4A7C15) >> (64 - envMemoBits)
	if ev.envKeys[slot] == bits {
		return ev.envVals[slot]
	}
	v := ev.p.Disk.MaxRowsPerSec(wsBytes)
	ev.envKeys[slot] = bits
	ev.envVals[slot] = v
	return v
}

// predict returns Disk.PredictWriteMBps(wsBytes, rowsPerSec) through the
// per-evaluator memo, keyed on the exact bit pair of both arguments — a hit
// is bit-identical to evaluating the fitted polynomial, so memoization
// cannot perturb pricing. Direct-mapped, newest wins, zero allocations.
//
//kairos:hotpath
func (ev *Evaluator) predict(wsBytes, rowsPerSec float64) float64 {
	if ev.predVals == nil {
		return ev.p.Disk.PredictWriteMBps(wsBytes, rowsPerSec)
	}
	wb := math.Float64bits(wsBytes)
	rb := math.Float64bits(rowsPerSec)
	slot := ((wb*0x9E3779B97F4A7C15 ^ rb) * 0xBF58476D1CE4E5B9) >> (64 - predMemoBits)
	if ev.predWS[slot] == wb && ev.predRate[slot] == rb {
		return ev.predVals[slot]
	}
	v := ev.p.Disk.PredictWriteMBps(wsBytes, rowsPerSec)
	ev.predWS[slot] = wb
	ev.predRate[slot] = rb
	ev.predVals[slot] = v
	return v
}

// Clone returns an evaluator that shares ev's immutable problem data (the
// demand arrays, pins, conflict lists and coarse bucket tables are never
// written after NewEvaluator) but counts its own Fevals, so each worker
// goroutine of a parallel solve can evaluate assignments without locking.
// The envelope and disk-prediction memos are mutable state and are
// deep-copied — sharing them across goroutines would race — and the Eval
// scratch buffers are dropped so each clone lazily grows its own. Callers
// that care about totals add the clone's Fevals back deterministically.
func (ev *Evaluator) Clone() *Evaluator {
	c := *ev
	c.Fevals = 0
	if ev.envKeys != nil {
		c.envKeys = append([]uint64(nil), ev.envKeys...)
		c.envVals = append([]float64(nil), ev.envVals...)
	}
	if ev.predVals != nil {
		c.predWS = append([]uint64(nil), ev.predWS...)
		c.predRate = append([]uint64(nil), ev.predRate...)
		c.predVals = append([]float64(nil), ev.predVals...)
	}
	c.emMembers = nil
	c.esCPU, c.esRAM, c.esWS, c.esRate = nil, nil, nil, nil
	return &c
}

// NumUnits returns the number of placement units (workloads × replicas).
func (ev *Evaluator) NumUnits() int { return len(ev.units) }

// Units returns the unit descriptors in assignment order.
func (ev *Evaluator) Units() []UnitRef {
	out := make([]UnitRef, len(ev.units))
	for i, u := range ev.units {
		out[i] = UnitRef{Workload: u.w, Replica: u.replica}
	}
	return out
}

// ServerLoad holds one machine's aggregate demands under an assignment.
type ServerLoad struct {
	Machine  int
	Used     bool
	CPU      []float64 // aggregate CPU over time
	RAMPeak  float64
	CPUPeak  float64
	DiskPeak float64 // predicted write bytes/sec at the worst time step
	// Violation is the summed relative excess over capacity (0 = feasible).
	Violation float64
	// NormLoad is the weighted normalized load in [0,1] used by the
	// balance objective.
	NormLoad float64
}

// accumulateInto zeroes the four sum buffers (each length T) and adds every
// member's scaled demand series. Member order is significant at the bit
// level: LoadState re-materializes sums with the same loop so its canonical
// state matches serverEval exactly.
//
//kairos:hotpath
func (ev *Evaluator) accumulateInto(members []int, cpuSum, ramSum, wsSum, rateSum []float64) {
	T := ev.T
	for t := 0; t < T; t++ {
		cpuSum[t], ramSum[t], wsSum[t], rateSum[t] = 0, 0, 0, 0
	}
	for _, u := range members {
		cu, ru, wu, qu := ev.cpu[u], ev.ram[u], ev.ws[u], ev.rate[u]
		k := ev.scale[u]
		for t := 0; t < T; t++ {
			cpuSum[t] += k * cu[t]
			ramSum[t] += k * ru[t]
			wsSum[t] += k * wu[t]
			rateSum[t] += k * qu[t]
		}
	}
}

// evalSums prices one machine's aggregated demand vectors: resource peaks,
// the summed relative violation and the normalized balance load. slaCap is
// the utilization cap the member set imposes (1 when no member declares an
// SLA). It allocates nothing, so it can run on reusable scratch buffers —
// the LoadState move-pricing hot path.
//
//kairos:hotpath
func (ev *Evaluator) evalSums(j int, cpuSum, ramSum, wsSum, rateSum []float64, slaCap float64) (cpuPeak, ramPeak, diskPeak, viol, norm float64) {
	T := ev.T
	for t := 0; t < T; t++ {
		if cpuSum[t] > cpuPeak {
			cpuPeak = cpuSum[t]
		}
		if ramSum[t] > ramPeak {
			ramPeak = ramSum[t]
		}
	}

	cpuCap := ev.capCPU[j]
	ramCap := ev.capRAM[j]
	if cpuPeak > cpuCap {
		viol += (cpuPeak - cpuCap) / cpuCap
	}
	if ramPeak > ramCap {
		viol += (ramPeak - ramCap) / ramCap
	}

	var diskNorm float64
	if ev.p.Disk != nil {
		diskCap := ev.capDisk[j]
		for t := 0; t < T; t++ {
			pred := ev.predict(wsSum[t], rateSum[t]) * 1e6
			if pred > diskPeak {
				diskPeak = pred
			}
			// Boundary rule (model.EnvelopeFeasible): exactly at the
			// envelope is feasible, and a clamped-to-zero envelope admits
			// only a zero rate — strict excess is always a violation, with
			// the denominator floored so the penalty stays finite.
			if ev.p.Disk.HasEnvelope {
				if maxRate := ev.envMax(wsSum[t]); rateSum[t] > maxRate {
					den := maxRate
					if den < envRateFloor {
						den = envRateFloor
					}
					viol += (rateSum[t] - maxRate) / den / float64(T)
				}
			}
		}
		if diskPeak > diskCap {
			viol += (diskPeak - diskCap) / diskCap
		}
		diskNorm = diskPeak / diskCap
	}

	// Latency SLAs: the strictest member SLA caps this machine's
	// utilization; exceeding it is a violation even when raw capacity
	// would allow more packing.
	if slaCap < 1 {
		util := cpuPeak / cpuCap
		if r := ramPeak / ramCap; r > util {
			util = r
		}
		if diskNorm > util {
			util = diskNorm
		}
		if util > slaCap {
			viol += (util - slaCap) / slaCap
		}
	}

	// Balance term: weighted normalized load, clamped to [0,1] so exp stays
	// within sane numeric range (the paper normalizes the exponent too).
	w := ev.weights
	denom := w.CPU + w.RAM + w.Disk
	norm = (w.CPU*cpuPeak/cpuCap + w.RAM*ramPeak/ramCap + w.Disk*diskNorm) / denom
	if norm > 1 {
		norm = 1
	}
	if norm < 0 {
		norm = 0
	}
	return cpuPeak, ramPeak, diskPeak, viol, norm
}

// serverEval computes one machine's load, violation and objective
// contribution given the member unit set, re-aggregating every member's
// full time series. This is the canonical scratch pricer; LoadState
// maintains the same sums incrementally for the local-search hot path.
func (ev *Evaluator) serverEval(j int, members []int) ServerLoad {
	sl := ServerLoad{Machine: j, Used: len(members) > 0}
	if !sl.Used {
		return sl
	}
	T := ev.T
	cpuSum := make([]float64, T)
	ramSum := make([]float64, T)
	wsSum := make([]float64, T)
	rateSum := make([]float64, T)
	ev.accumulateInto(members, cpuSum, ramSum, wsSum, rateSum)
	cpuPeak, ramPeak, diskPeak, viol, norm := ev.evalSums(j, cpuSum, ramSum, wsSum, rateSum, ev.slaCap(members))
	sl.CPU = cpuSum
	sl.CPUPeak = cpuPeak
	sl.RAMPeak = ramPeak
	sl.DiskPeak = diskPeak
	sl.Violation = viol
	sl.NormLoad = norm
	return sl
}

// contribution converts a server load into its objective term.
func contribution(sl ServerLoad) float64 {
	if !sl.Used {
		return 0
	}
	return math.Exp(sl.NormLoad) + penaltyWeight*sl.Violation
}

// evalScratch returns the per-machine member scratch sized for K machines
// and ensures the aggregate demand buffers exist, growing both once and
// reusing them across calls: DIRECT calls Eval thousands of times per
// solve, and allocating a fresh [][]int plus four sum buffers per machine
// per evaluation dominated its profile. Each slot keeps its backing array
// between calls, so steady-state evaluations allocate nothing.
func (ev *Evaluator) evalScratch(K int) [][]int {
	if cap(ev.emMembers) < K {
		ev.emMembers = make([][]int, K)
	}
	members := ev.emMembers[:K]
	for j := range members {
		members[j] = members[j][:0]
	}
	if len(ev.esCPU) < ev.T {
		ev.esCPU = make([]float64, ev.T)
		ev.esRAM = make([]float64, ev.T)
		ev.esWS = make([]float64, ev.T)
		ev.esRate = make([]float64, ev.T)
	}
	return members
}

// Eval computes the full objective of an assignment over the first K
// machines. An assignment outside [0,K) is a pin-style violation: the unit
// is priced as unplaced (one penaltyWeight, infeasible) and contributes no
// load — exactly the units Report and Plan.String drop — so a plan can
// never price feasible while displaying a missing workload.
//
//kairos:hotpath
func (ev *Evaluator) Eval(assign []int, K int) (obj float64, feasible bool) {
	ev.Fevals++
	members := ev.evalScratch(K) //kairoslint:allow hotcall: allocates only on first growth; steady state is alloc-free and AllocsPerRun-asserted
	feasible = true
	for u, j := range assign {
		if j < 0 || j >= K {
			obj += penaltyWeight
			feasible = false
			continue
		}
		members[j] = append(members[j], u) //kairoslint:allow hotalloc: amortized — scratch keeps capacity across Evals
		if ev.pin[u] >= 0 && ev.pin[u] != j {
			obj += penaltyWeight
			feasible = false
		}
	}
	for j := 0; j < K; j++ {
		// Anti-affinity: count conflicting pairs sharing this machine.
		for ai, a := range members[j] {
			for _, b := range members[j][ai+1:] {
				if ev.conflicted(a, b) {
					obj += penaltyWeight
					feasible = false
				}
			}
		}
		if len(members[j]) == 0 {
			continue
		}
		// Price the machine on the shared scratch buffers — the same
		// accumulation order and pricing as serverEval, minus its per-call
		// allocations (Eval never needs the aggregate CPU series back).
		ev.accumulateInto(members[j], ev.esCPU, ev.esRAM, ev.esWS, ev.esRate)
		_, _, _, viol, norm := ev.evalSums(j, ev.esCPU, ev.esRAM, ev.esWS, ev.esRate, ev.slaCap(members[j]))
		if viol > 0 {
			feasible = false
		}
		obj += math.Exp(norm) + penaltyWeight*viol
	}
	return obj, feasible
}

// conflicted reports whether units a and b must not share a machine.
// conflicts[a] is sorted, so this is a binary search — it runs inside
// every PriceAdd/priceExchange call, where the old linear scan showed up
// on fleets with wide anti-affinity sets.
//
//kairos:hotpath
func (ev *Evaluator) conflicted(a, b int) bool {
	s := ev.conflicts[a]
	i := searchUnit(s, b)
	return i < len(s) && s[i] == b
}

// FitsOneMachine reports whether the given units can share machine j within
// every resource constraint and without anti-affinity conflicts. Baselines
// (the greedy packer) and what-if tools use it directly.
func (ev *Evaluator) FitsOneMachine(j int, units []int) bool {
	for ai, a := range units {
		for _, b := range units[ai+1:] {
			if ev.conflicted(a, b) {
				return false
			}
		}
	}
	return ev.serverEval(j, units).Violation == 0
}

// ServerContrib prices one machine from scratch: the balance and violation
// contribution of the member set plus anti-affinity penalties, re-summing
// every member over all T steps. It is the canonical reference pricer —
// LoadState computes the identical quantity incrementally — and the
// baseline the load-state benchmarks compare against.
func (ev *Evaluator) ServerContrib(j int, members []int) float64 {
	c := contribution(ev.serverEval(j, members))
	for ai, a := range members {
		for _, b := range members[ai+1:] {
			if ev.conflicted(a, b) {
				c += penaltyWeight
			}
		}
	}
	return c
}

// Report computes per-machine loads for a final assignment. Units assigned
// outside [0,K) are dropped, matching Eval's pricing of them as unplaced
// violations.
func (ev *Evaluator) Report(assign []int, K int) []ServerLoad {
	members := make([][]int, K)
	for u, j := range assign {
		if j >= 0 && j < K {
			members[j] = append(members[j], u)
		}
	}
	out := make([]ServerLoad, K)
	for j := 0; j < K; j++ {
		out[j] = ev.serverEval(j, members[j])
	}
	return out
}
