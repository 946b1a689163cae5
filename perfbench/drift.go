package main

import (
	"time"

	"kairos/internal/server"
)

// driftBlock is how many consecutive windows share one load level.
const driftBlock = 3

// drift: an in-memory daemon with the 97-server SecondLife fleet
// registered with the committed disk-profile fixture and the default
// server options (local search, warm re-solves, no DIRECT), except a
// one-window forecast history: a re-solve then plans for the level it
// just saw, so exactly the first window of each block triggers. One
// closed-loop collector streams windows whose level alternates between
// the registered level and +10% every driftBlock windows; a dashboard
// polls the fleet's status and plan beside it.
func init() {
	register(&workload{
		name:   "drift",
		setups: 5,
		slices: 5,
		notes: map[string]string{
			"register": "set-up registration (default options, disk model)",
			"plan":     "each slice's first rise and fall re-solves",
			"migrated": "each slice's first rise and fall re-solves",
			"ack":      "quiet window ack, in memory",
			"resolve":  "mean block-change ack (warm re-solve) of each rise and fall pair",
			"rss":      "the load",
			"read":     "dashboard status/plan reads from due",
		},
		setup:   driftSetup,
		measure: driftMeasure,
		replay:  driftReplay,
	})
}

const driftFleet = "sl-97"

type driftState struct {
	in    *inputs
	opts  server.OptionsWire
	quiet []*template
	drift []*template
}

// driftTemplates is how many noise draws per level the collector cycles
// through.
const driftTemplates = 4

func driftSetup(r *run) (*env, error) {
	disk, err := loadDiskFixture(r.root)
	if err != nil {
		return nil, err
	}
	in, err := newInputs("secondlife", r.seed, 200+int64(r.slice), disk)
	if err != nil {
		return nil, err
	}
	st := &driftState{in: in, opts: server.OptionsWire{History: 1}}
	for i := 0; i < driftTemplates; i++ {
		q, err := in.newTemplate(1)
		if err != nil {
			return nil, err
		}
		dr, err := in.newTemplate(driftLevel)
		if err != nil {
			return nil, err
		}
		st.quiet, st.drift = append(st.quiet, q), append(st.drift, dr)
	}
	body, err := in.registerBody(driftFleet, st.opts)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(r.bin, r.work+"/daemon.log", r.c)
	if err != nil {
		return nil, err
	}
	r.registerFleet(d, body)
	return &env{d: d, state: st}, nil
}

// window returns window i's template and whether it opens a new block
// at another level (and so must trigger).
func (st *driftState) window(i int) (*template, bool) {
	block := i / driftBlock
	t := st.quiet
	if block%2 == 1 {
		t = st.drift
	}
	return t[i%len(t)], i > 0 && i%driftBlock == 0
}

// driftMeasure streams windows until dur has passed and the last rise
// has been followed by its fall.
func driftMeasure(r *run, e *env, dur time.Duration, _ bool) error {
	st := e.state.(*driftState)
	d := e.d
	paths := []string{"/v1/fleets/" + driftFleet, "/v1/fleets/" + driftFleet + "/plan"}
	stopRSS := r.sampleRSS(d)
	defer stopRSS()
	_, _, err := r.load(d, func(i int) string { return d.url(paths[i%2]) }, func() (counts, error) {
		c := counts{appends: -1}
		var rise float64
		deadline := time.Now().Add(dur)
		for i := 0; c.triggers%2 == 1 || c.triggers == 0 || time.Now().Before(deadline); i++ {
			t, change := st.window(i)
			a, ok := r.postWindow(d, driftFleet, t.body(windowStart(i)), change)
			if !ok {
				if change {
					return c, nil // a missed trigger would shift every later pair
				}
				continue
			}
			c.windows++
			if !change {
				r.s.acks = append(r.s.acks, ms(a.took))
				continue
			}
			ev := a.resp.Event
			if c.triggers < 2 {
				r.s.ks = append(r.s.ks, float64(ev.K))
				r.s.objs = append(r.s.objs, ev.Objective)
				r.s.migrated = append(r.s.migrated, float64(ev.Migrated))
			}
			if c.triggers%2 == 0 {
				rise = a.took.Seconds()
			} else {
				r.s.resolves = append(r.s.resolves, (rise+a.took.Seconds())/2)
			}
			c.triggers++
			r.fetchPlan(d, driftFleet, ev.K)
		}
		return c, nil
	})
	return err
}

func driftReplay(r *run, e *env, tr *tracer) error {
	st := e.state.(*driftState)
	body, err := st.in.registerBody(driftFleet, st.opts)
	if err != nil {
		return err
	}
	return r.replayLayers(tr, replaySpec{
		regBody: body, opts: st.opts,
		quiet: st.quiet[0].body(windowStart(0)), drift: st.drift[0].body(windowStart(1)),
		resolveFevals: true,
	})
}
