package main

import (
	"fmt"
	"time"

	"kairos/internal/server"
)

// consolidate: an in-memory daemon and one closed-loop client that
// registers the 197-server ALL fleet with full_solve (the cold bounded-K
// DIRECT + polish path) and workers = nproc, reads the plan, sends
// quietPerCycle quiet windows, then a rise and a fall in load (the plan's
// first warm corrections), and deregisters. A dashboard polls the fleet list
// beside it.
func init() {
	register(&workload{
		name:   "consolidate",
		setups: 5,
		slices: 1,
		notes: map[string]string{
			"register": "POST /v1/fleets to 201 with the plan, full_solve",
			"plan":     "registered plans",
			"migrated": "each cycle's rise and fall re-solves",
			"ack":      "quiet window ack, in memory",
			"resolve":  "mean of each rise and fall pair of re-solve acks",
			"rss":      "the load",
			"read":     "dashboard GET /v1/fleets from due",
		},
		setup:   consolidateSetup,
		measure: consolidateMeasure,
		replay:  consolidateReplay,
	})
}

// quietPerCycle is how many quiet windows each cycle sends before the
// drifted one.
const quietPerCycle = 4

type consolidateState struct {
	opts server.OptionsWire
	// first is the slice's first cycle's inputs, generated during set-up.
	first *cycleInputs
}

// cycleInputs is one cycle's fleet instance: its registration body and
// its quiet and drifted windows.
type cycleInputs struct {
	id           string
	regBody      []byte
	quiet, drift *template
}

// cycle generates the inputs of cycle k of the current slice: every
// cycle registers its own instance of the fleet.
func (st *consolidateState) cycle(r *run, k int) (*cycleInputs, error) {
	in, err := newInputs("all", r.seed, 100+100*int64(r.slice)+int64(k), nil)
	if err != nil {
		return nil, err
	}
	c := &cycleInputs{id: fmt.Sprintf("c-%d", k)}
	if c.regBody, err = in.registerBody(c.id, st.opts); err != nil {
		return nil, err
	}
	if c.quiet, err = in.newTemplate(1); err != nil {
		return nil, err
	}
	if c.drift, err = in.newTemplate(driftLevel); err != nil {
		return nil, err
	}
	return c, nil
}

func consolidateSetup(r *run) (*env, error) {
	st := &consolidateState{opts: server.OptionsWire{FullSolve: true, Workers: r.conns}}
	var err error
	if st.first, err = st.cycle(r, 0); err != nil {
		return nil, err
	}
	d, err := startDaemon(r.bin, r.work+"/daemon.log", r.c)
	if err != nil {
		return nil, err
	}
	return &env{d: d, state: st}, nil
}

// consolidateMeasure runs cycles until dur has passed, at least one.
func consolidateMeasure(r *run, e *env, dur time.Duration, _ bool) error {
	st := e.state.(*consolidateState)
	d := e.d
	stopRSS := r.sampleRSS(d)
	defer stopRSS()
	_, _, err := r.load(d, func(int) string { return d.url("/v1/fleets") }, func() (counts, error) {
		c := counts{appends: -1}
		deadline := time.Now().Add(dur)
		for k := 0; k == 0 || time.Now().Before(deadline); k++ {
			ci := st.first
			if k > 0 {
				var err error
				if ci, err = st.cycle(r, k); err != nil {
					return c, err
				}
			}
			r.consolidateCycle(d, ci, &c)
		}
		return c, nil
	})
	return err
}

// consolidateCycle registers one fleet instance, checks its plan, sends
// its windows and deregisters it.
func (r *run) consolidateCycle(d *daemon, ci *cycleInputs, c *counts) {
	id := ci.id
	status, ok := r.registerFleet(d, ci.regBody)
	if !ok {
		return
	}
	if p, ok := r.fetchPlan(d, id, status.K); ok {
		r.s.ks = append(r.s.ks, float64(p.K))
		r.s.objs = append(r.s.objs, p.Objective)
	}
	for i := 0; i < quietPerCycle; i++ {
		if a, ok := r.postWindow(d, id, ci.quiet.body(windowStart(i)), false); ok {
			r.s.acks = append(r.s.acks, ms(a.took))
			c.windows++
		}
	}
	// A rise to the drifted level fires the plan's first warm re-solve;
	// one more window there is the cool-down; the fall back fires a
	// second (with the default two-window forecast the rise was planned
	// for the midpoint, which the fall drifts past).
	var rise float64
	for i, step := range []struct {
		t       *template
		trigger bool
	}{{ci.drift, true}, {ci.drift, false}, {ci.quiet, true}} {
		a, ok := r.postWindow(d, id, step.t.body(windowStart(quietPerCycle+i)), step.trigger)
		if !ok {
			continue
		}
		c.windows++
		if !step.trigger {
			continue
		}
		c.triggers++
		r.s.migrated = append(r.s.migrated, float64(a.resp.Event.Migrated))
		r.fetchPlan(d, id, a.resp.Event.K)
		if i == 0 {
			rise = a.took.Seconds()
		} else {
			r.s.resolves = append(r.s.resolves, (rise+a.took.Seconds())/2)
		}
	}
	r.c.attempt()
	code, resp, err := r.c.do("DELETE", d.url("/v1/fleets/"+id), nil)
	r.c.expect("deregister "+id, 204, code, resp, err)
}

func consolidateReplay(r *run, e *env, tr *tracer) error {
	st := e.state.(*consolidateState)
	c := st.first
	return r.replayLayers(tr, replaySpec{
		regBody: c.regBody, opts: st.opts,
		quiet: c.quiet.body(windowStart(0)), drift: c.drift.body(windowStart(quietPerCycle)),
	})
}
