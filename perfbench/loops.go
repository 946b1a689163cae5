package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"kairos/internal/server"
)

// dashRate is the dashboard client's fixed poll rate (reads per second).
const dashRate = 20

// dashboard is an open-loop reader on a fixed schedule: one read at a
// time, each timed from when it was due, so a read stalled behind a
// re-solve also charges the reads queued after it.
type dashboard struct {
	stopc chan struct{}
	done  chan struct{}

	mu   sync.Mutex
	lats []float64 // ms from due to response (guarded by mu)
	lags []float64 // ms the generator itself started late (guarded by mu)
}

// startDashboard polls url(i) for read i until stopped. Each answer must
// be 200 with a body checkRead accepts.
func (r *run) startDashboard(url func(i int) string) *dashboard {
	db := &dashboard{stopc: make(chan struct{}), done: make(chan struct{})}
	sch := schedule{start: time.Now(), rate: dashRate}
	go func() {
		defer close(db.done)
		var free time.Time // when the previous read ended
		for i := 0; ; i++ {
			due := sch.due(i)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-db.stopc:
					return
				case <-time.After(wait):
				}
			}
			select {
			case <-db.stopc:
				return
			default:
			}
			u := url(i)
			sent := time.Now()
			r.c.attempt()
			st, body, err := r.c.dashGet(u)
			done := time.Now()
			ready := due
			if free.After(ready) {
				ready = free
			}
			free = done
			if !r.c.expect("dashboard GET "+u, 200, st, body, err) {
				continue
			}
			if err := checkRead(u, body); err != nil {
				r.c.fail("dashboard GET %s: %v", u, err)
				continue
			}
			db.mu.Lock()
			db.lats = append(db.lats, ms(done.Sub(due)))
			db.lags = append(db.lags, ms(sent.Sub(ready)))
			db.mu.Unlock()
		}
	}()
	return db
}

// stop ends the dashboard and waits for its last read.
func (db *dashboard) stop() (lats, lags []float64) {
	close(db.stopc)
	<-db.done
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lats, db.lags
}

// checkRead validates a dashboard response: a fleet status, a fleet
// list, or a plan, each describing a usable plan.
func checkRead(u string, body []byte) error {
	switch {
	case len(u) > 5 && u[len(u)-5:] == "/plan":
		var p server.PlanWire
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		if p.K < 1 || !p.Feasible || len(p.Assignments) == 0 {
			return fmt.Errorf("plan K=%d feasible=%v with %d assignments", p.K, p.Feasible, len(p.Assignments))
		}
	case len(u) > 10 && u[len(u)-10:] == "/v1/fleets":
		var l []server.FleetStatus
		return json.Unmarshal(body, &l)
	default:
		var st server.FleetStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		if st.K < 1 || !st.Feasible {
			return fmt.Errorf("status K=%d feasible=%v", st.K, st.Feasible)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// registerFleet posts a registration body and checks for a 201 carrying
// a feasible plan; its time is pooled into register_s.
func (r *run) registerFleet(d *daemon, body []byte) (server.FleetStatus, bool) {
	var st server.FleetStatus
	r.c.attempt()
	t0 := time.Now()
	code, resp, err := r.c.do("POST", d.url("/v1/fleets"), body)
	el := time.Since(t0)
	if !r.c.expect("register", 201, code, resp, err) {
		return st, false
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		r.c.fail("register: %v", err)
		return st, false
	}
	if st.K < 1 || !st.Feasible {
		r.c.fail("register %s: plan K=%d feasible=%v", st.ID, st.K, st.Feasible)
		return st, false
	}
	r.s.regs = append(r.s.regs, el.Seconds())
	return st, true
}

// fetchPlan reads a fleet's served plan and checks its K.
func (r *run) fetchPlan(d *daemon, id string, wantK int) (server.PlanWire, bool) {
	var p server.PlanWire
	r.c.attempt()
	code, body, err := r.c.get(d.url("/v1/fleets/" + id + "/plan"))
	if !r.c.expect("plan "+id, 200, code, body, err) {
		return p, false
	}
	if err := json.Unmarshal(body, &p); err != nil {
		r.c.fail("plan %s: %v", id, err)
		return p, false
	}
	if !p.Feasible || (wantK > 0 && p.K != wantK) {
		r.c.fail("plan %s: K=%d feasible=%v, want K=%d", id, p.K, p.Feasible, wantK)
		return p, false
	}
	return p, true
}

// windowAck is one acknowledged window.
type windowAck struct {
	resp server.WindowResponse
	took time.Duration
}

// postWindow sends one window and checks the acknowledgement: 200, and
// triggered exactly when wantTrigger (a trigger must carry its event).
func (r *run) postWindow(d *daemon, id string, body []byte, wantTrigger bool) (windowAck, bool) {
	var a windowAck
	r.c.attempt()
	t0 := time.Now()
	code, resp, err := r.c.do("POST", d.url("/v1/fleets/"+id+"/windows"), body)
	a.took = time.Since(t0)
	if !r.c.expect("window "+id, 200, code, resp, err) {
		return a, false
	}
	if err := json.Unmarshal(resp, &a.resp); err != nil {
		r.c.fail("window %s: %v", id, err)
		return a, false
	}
	if a.resp.Triggered != wantTrigger || (a.resp.Triggered && a.resp.Event == nil) {
		r.c.fail("window %s #%d: triggered=%v, want %v", id, a.resp.Window, a.resp.Triggered, wantTrigger)
		return a, false
	}
	return a, true
}

// scrape reads the daemon's /metrics.
func (r *run) scrape(d *daemon) ([]promSample, error) {
	code, body, err := r.c.get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseProm(string(body))
}

// crossCheck compares a /metrics counter delta with the benchmark's own
// count; a mismatch is a failed check.
func (r *run) crossCheck(before, after []promSample, name string, want int) float64 {
	delta := promSum(after, name) - promSum(before, name)
	r.c.attempt()
	if int(delta) != want {
		r.c.fail("/metrics %s delta %v, benchmark counted %d", name, delta, want)
	}
	return delta
}

// counts is what one slice's load should have made the daemon count.
type counts struct {
	windows, triggers int
	// appends is the journal records the load should have written; -1
	// for an in-memory daemon.
	appends int
}

// load runs one slice's load on d: it scrapes /metrics before and after,
// runs the dashboard (reading dash(i)) while fn drives the daemon, and
// cross-checks the counters against what fn counted. It returns the two
// scrapes.
func (r *run) load(d *daemon, dash func(i int) string, fn func() (counts, error)) (before, after []promSample, err error) {
	if before, err = r.scrape(d); err != nil {
		return nil, nil, err
	}
	db := r.startDashboard(dash)
	c, err := fn()
	lats, lags := db.stop()
	if err != nil {
		return nil, nil, err
	}
	r.s.reads = append(r.s.reads, lats...)
	r.s.lags = append(r.s.lags, lags...)
	if after, err = r.scrape(d); err != nil {
		return nil, nil, err
	}
	r.crossCheck(before, after, "kairos_windows_ingested_total", c.windows)
	r.crossCheck(before, after, "kairos_triggers_total", c.triggers)
	if c.appends >= 0 {
		r.crossCheck(before, after, "kairos_journal_appends_total", c.appends)
	}
	r.s.windows += c.windows
	r.s.triggers += c.triggers
	r.s.ingestErrors += int(promSum(after, "kairos_ingest_errors_total") - promSum(before, "kairos_ingest_errors_total"))
	return before, after, nil
}
