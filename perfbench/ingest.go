package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"kairos/internal/server"
)

// ingest: a durable daemon (-state-dir, -fsync always) with two ALL-197
// fleets registered. An open loop sends quiet windows alternately to the
// two fleets, at the heavy fixed rate; every resendEvery-th send repeats
// an already-acked window, which must come back as a duplicate. A rise
// and a fall in load per fleet then fire two journaled re-solves each.
// The last slice also climbs a ladder of rates for max_wps, then kills
// the daemon and restarts it on the same state directory to time
// recovery.
func init() {
	register(&workload{
		name:   "ingest",
		setups: 3,
		slices: 3,
		notes: map[string]string{
			"register": "set-up registrations, journaled, default options",
			"plan":     "registered plans",
			"migrated": "each fleet's rise and fall re-solves",
			"ack":      fmt.Sprintf("journaled ack from due at %g windows/s", heavyRate),
			"resolve":  "mean of each rise and fall pair of re-solve acks, journaled",
			"rss":      "the heavy fixed-rate phase",
			"read":     "dashboard status/plan reads from due, beside the heavy rate and the re-solves",
		},
		setup:   ingestSetup,
		measure: ingestMeasure,
		replay:  ingestReplay,
	})
}

const (
	// heavyRate is the heavy fixed offered rate, windows per second
	// across both fleets, offered for heavyShare of each slice.
	heavyRate  = 3.0
	heavyShare = 0.6
	// ackLimitMs is the ack latency limit behind max_wps: a ladder rung
	// passes when its slowest ack (from due) stays within it and the
	// generator ends the rung less than one send behind schedule.
	ackLimitMs = 1500.0
	// The ladder runs in the last slice for ladderShare of the measured
	// time. It climbs from heavyRate by coarseStep per rung until a rung
	// fails, then from the last passing rate by fineStep.
	ladderShare = 0.3
	coarseStep  = 1.5
	fineStep    = 1.1
	// rungSeconds is how long each ladder rate is offered.
	rungSeconds = 2.0
	// resendEvery makes every resendEvery-th send a resend.
	resendEvery = 10
	// snapshotEvery is the daemon's snapshot interval in windows, small
	// enough that a run crosses several snapshots.
	snapshotEvery = 16
	// ingestTemplates is how many noise draws the sender cycles through.
	ingestTemplates = 4
)

var ingestFleets = [2]string{"i-a", "i-b"}

type ingestState struct {
	dir string
	// Per fleet: its instance's quiet window templates, drifted window
	// and registration body.
	quiet   [2][]*template
	drift   [2]*template
	regBody [2][]byte
	// next is each fleet's next fresh window index.
	next [2]int
}

func ingestSetup(r *run) (*env, error) {
	st := &ingestState{}
	for f, id := range ingestFleets {
		in, err := newInputs("all", r.seed, 300+10*int64(r.slice)+int64(f), nil)
		if err != nil {
			return nil, err
		}
		for i := 0; i < ingestTemplates; i++ {
			t, err := in.newTemplate(1)
			if err != nil {
				return nil, err
			}
			st.quiet[f] = append(st.quiet[f], t)
		}
		if st.drift[f], err = in.newTemplate(driftLevel); err != nil {
			return nil, err
		}
		if st.regBody[f], err = in.registerBody(id, server.OptionsWire{}); err != nil {
			return nil, err
		}
	}
	var err error
	if st.dir, err = r.stateDir("state"); err != nil {
		return nil, err
	}
	d, err := startDaemon(r.bin, r.work+"/daemon.log", r.c, st.daemonFlags()...)
	if err != nil {
		return nil, err
	}
	for f := range ingestFleets {
		if status, ok := r.registerFleet(d, st.regBody[f]); ok {
			if p, ok := r.fetchPlan(d, ingestFleets[f], status.K); ok {
				r.s.ks = append(r.s.ks, float64(p.K))
				r.s.objs = append(r.s.objs, p.Objective)
			}
		}
	}
	return &env{d: d, state: st}, nil
}

func (st *ingestState) daemonFlags() []string {
	return []string{"-state-dir", st.dir, "-fsync", "always", "-snapshot-every", fmt.Sprint(snapshotEvery)}
}

// sendJob is one scheduled window send.
type sendJob struct {
	fleet  int
	key    int64
	body   []byte
	resend bool
	want   int // a resend's original window index
	due    time.Time
}

// sender is the open loop's send side: one worker per loop connection,
// each with one request in flight, fed by the scheduler through an unbuffered channel,
// so a send due while every worker is busy waits (and its lateness
// shows in the generator lag).
type sender struct {
	r    *run
	d    *daemon
	jobs chan sendJob
	wg   sync.WaitGroup

	mu         sync.Mutex
	acked      [2]map[int64]int // fresh key -> acked window index (guarded by mu)
	lastKey    [2]int64         // latest acked fresh key per fleet (guarded by mu)
	fresh      [2]int           // fresh windows acked per fleet (guarded by mu)
	dups       int              // resends answered as duplicates (guarded by mu)
	freshBytes int64            // body bytes of acked fresh windows (guarded by mu)
	samples    []sample         // every completed send (guarded by mu)
	ownLags    []float64        // ms a send started after its worker was free and it was due (guarded by mu)
	inflight   int              // sends handed out and not done (guarded by mu)
}

func newSender(r *run, d *daemon) *sender {
	s := &sender{r: r, d: d, jobs: make(chan sendJob)}
	for i := range s.acked {
		s.acked[i] = map[int64]int{}
	}
	for w := 0; w < loopConns(r.conns); w++ {
		s.wg.Add(1)
		go s.work()
	}
	return s
}

func (s *sender) work() {
	defer s.wg.Done()
	var free time.Time // when this worker's previous send ended
	for j := range s.jobs {
		sent := time.Now()
		ok, resp := s.post(j)
		done := time.Now()
		ready := j.due
		if free.After(ready) {
			ready = free
		}
		free = done
		s.mu.Lock()
		s.inflight--
		s.ownLags = append(s.ownLags, ms(sent.Sub(ready)))
		if ok {
			s.samples = append(s.samples, sample{due: j.due, sent: sent, done: done})
			if j.resend {
				s.dups++
			} else {
				s.acked[j.fleet][j.key] = resp.Window
				s.fresh[j.fleet]++
				s.freshBytes += int64(len(j.body))
				if j.key > s.lastKey[j.fleet] {
					s.lastKey[j.fleet] = j.key
				}
			}
		}
		s.mu.Unlock()
	}
}

// post sends one window and checks its acknowledgement.
func (s *sender) post(j sendJob) (bool, server.WindowResponse) {
	var resp server.WindowResponse
	id := ingestFleets[j.fleet]
	c := s.r.c
	c.attempt()
	code, body, err := c.do("POST", s.d.url("/v1/fleets/"+id+"/windows"), j.body)
	if !c.expect("window "+id, 200, code, body, err) {
		return false, resp
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("window %s: %v", id, err)
		return false, resp
	}
	switch {
	case resp.Triggered:
		c.fail("window %s key %d: a quiet window triggered", id, j.key)
		return false, resp
	case j.resend && (!resp.Duplicate || resp.Window != j.want):
		c.fail("resend %s key %d: duplicate=%v window=%d, want duplicate of window %d", id, j.key, resp.Duplicate, resp.Window, j.want)
		return false, resp
	case !j.resend && resp.Duplicate:
		c.fail("window %s key %d: fresh window answered as a duplicate", id, j.key)
		return false, resp
	}
	return true, resp
}

// phase offers rate windows per second for dur and returns the samples
// of the sends it scheduled once all of them are done.
func (s *sender) phase(st *ingestState, seq *int, rate float64, dur time.Duration) []sample {
	s.mu.Lock()
	first := len(s.samples)
	s.mu.Unlock()
	sch := schedule{start: time.Now(), rate: rate}
	end := sch.start.Add(dur)
	for i := 0; ; i++ {
		due := sch.due(i)
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		j := s.nextJob(st, *seq, due)
		*seq++
		s.mu.Lock()
		s.inflight++
		s.mu.Unlock()
		s.jobs <- j
	}
	s.drain()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sample(nil), s.samples[first:]...)
}

// nextJob builds send seq: fleets alternate, and every resendEvery-th
// send repeats that fleet's latest acked window when it has one.
func (s *sender) nextJob(st *ingestState, seq int, due time.Time) sendJob {
	f := seq % 2
	if seq%resendEvery == resendEvery-1 {
		s.mu.Lock()
		key := s.lastKey[f]
		want := s.acked[f][key]
		s.mu.Unlock()
		if key != 0 {
			n := int(key/dayUnix) - 1
			return sendJob{fleet: f, key: key, body: st.quiet[f][n%ingestTemplates].body(key), resend: true, want: want, due: due}
		}
	}
	n := st.next[f]
	st.next[f]++
	key := windowStart(n)
	return sendJob{fleet: f, key: key, body: st.quiet[f][n%ingestTemplates].body(key), due: due}
}

// drain waits until no send is in flight.
func (s *sender) drain() {
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *sender) close() {
	close(s.jobs)
	s.wg.Wait()
}

// ladder offers rising rates until the deadline and returns the highest
// rate that passed, with a description of the climb. A rung passes when
// its slowest ack, timed from due, is within ackLimitMs and the
// generator finished it less than one send behind schedule.
func (s *sender) ladder(st *ingestState, seq *int, deadline time.Time) (float64, string) {
	pass, step := heavyRate, coarseStep
	rate := pass * step
	rungs, capped := 0, true
	for time.Now().Add(time.Duration(rungSeconds * float64(time.Second))).Before(deadline) {
		ss := s.phase(st, seq, rate, time.Duration(rungSeconds*float64(time.Second)))
		rungs++
		lat := latencies(ss)
		worst, behind := math.Inf(1), math.Inf(1)
		if len(ss) > 0 {
			worst = sorted(lat)[len(lat)-1]
			last := ss[0]
			for _, x := range ss {
				if x.due.After(last.due) {
					last = x
				}
			}
			behind = last.lag().Seconds() * rate
		}
		ok := worst <= ackLimitMs && behind < 1
		fmt.Fprintf(os.Stderr, "perfbench: ladder rung %.3g/s: %d sends, slowest %.4gms, %.2f sends behind: pass=%v\n", rate, len(ss), worst, behind, ok)
		switch {
		case ok:
			pass = rate
		case step == coarseStep:
			step = fineStep
		default:
			capped = false
		}
		if !capped {
			break
		}
		rate = pass * step
	}
	note := fmt.Sprintf("highest rate passing a ladder from %g/s (x%g rungs, then x%g) of %gs rungs: slowest ack from due <= %gms and <1 send behind; %d rungs", heavyRate, coarseStep, fineStep, rungSeconds, ackLimitMs, rungs)
	if capped {
		note += ", stopped by the time limit"
	}
	return pass, note
}

// latencies returns each sample's latency from due, ms.
func latencies(ss []sample) []float64 {
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = ms(s.latency())
	}
	return lat
}

// ingestMeasure offers the heavy rate for heavyShare of dur, then gives
// each fleet a rise and a fall of load, beside the dashboard. The last
// slice first climbs the ladder, and at the end kills and restarts the
// daemon.
func ingestMeasure(r *run, e *env, dur time.Duration, last bool) error {
	st := e.state.(*ingestState)
	d := e.d
	w0, err := d.writtenBytes()
	if err != nil {
		return err
	}
	paths := []string{"/v1/fleets/" + ingestFleets[0], "/v1/fleets/" + ingestFleets[1] + "/plan"}
	s := newSender(r, d)
	seq := 0
	if last {
		// The ladder runs first and beside no dashboard: its overload
		// would otherwise decide the read tail.
		maxWPS, note := s.ladder(st, &seq, time.Now().Add(time.Duration(ladderShare*float64(r.seconds))))
		r.e2e.set("max_wps", "1/s", maxWPS, note)
	}
	s.mu.Lock()
	ladderFresh := s.fresh[0] + s.fresh[1]
	s.mu.Unlock()
	var finalK [2]int
	before, after, err := r.load(d, func(i int) string { return d.url(paths[i%2]) }, func() (counts, error) {
		stopRSS := r.sampleRSS(d)
		heavy := s.phase(st, &seq, heavyRate, time.Duration(heavyShare*float64(dur)))
		stopRSS()
		r.s.acks = append(r.s.acks, latencies(heavy)...)
		s.close()
		r.s.lags = append(r.s.lags, s.ownLags...)
		r.s.duplicates += s.dups
		n := s.fresh[0] + s.fresh[1] - ladderFresh
		c := counts{windows: n, appends: n}
		// Per fleet, a rise to the drifted level (a journaled re-solve),
		// one more window at that level (cool-down, quiet) and a fall back
		// (a second re-solve: with the default two-window forecast the
		// plan was solved for the midpoint, which the fall drifts past).
		// No quiet window may follow: it would drift past that midpoint
		// too.
		for f, id := range ingestFleets {
			var rise float64
			for i, step := range []struct {
				t       *template
				trigger bool
			}{{st.drift[f], true}, {st.drift[f], false}, {st.quiet[f][0], true}} {
				key := windowStart(st.next[f])
				st.next[f]++
				body := step.t.body(key)
				a, ok := r.postWindow(d, id, body, step.trigger)
				if !ok {
					continue
				}
				s.fresh[f]++
				s.freshBytes += int64(len(body))
				c.windows++
				c.appends++
				if !step.trigger {
					continue
				}
				c.triggers++
				c.appends++ // the advance record
				r.s.migrated = append(r.s.migrated, float64(a.resp.Event.Migrated))
				finalK[f] = a.resp.Event.K
				r.fetchPlan(d, id, a.resp.Event.K)
				if i == 0 {
					rise = a.took.Seconds()
				} else {
					r.s.resolves = append(r.s.resolves, (rise+a.took.Seconds())/2)
				}
			}
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	w1, err := d.writtenBytes()
	if err != nil {
		return err
	}
	r.s.written += w1 - w0
	r.s.bodyBytes += float64(s.freshBytes)
	r.s.syncs += promSum(after, "kairos_journal_syncs_total") - promSum(before, "kairos_journal_syncs_total")
	r.s.appends += promSum(after, "kairos_journal_appends_total") - promSum(before, "kairos_journal_appends_total")
	r.s.snapshots += promSum(after, "kairos_journal_snapshots_total") - promSum(before, "kairos_journal_snapshots_total")
	if !last {
		return nil
	}
	r.layer.set("journal.syncs_per_append", "ratio", r.s.syncs/r.s.appends, fmt.Sprintf("%v fsyncs over %v appends, from /metrics", r.s.syncs, r.s.appends))
	r.layer.set("journal.snapshots", "count", r.s.snapshots, "snapshots during the loads, from /metrics")
	r.e2e.set("wal_bytes_per_byte", "ratio", r.s.written/r.s.bodyBytes, fmt.Sprintf("bytes written by the daemons over %.0f bytes of fresh window bodies", r.s.bodyBytes))

	// Crash and recover: SIGKILL, restart on the same state directory,
	// and time the first successful ack.
	d.kill()
	t1 := time.Now()
	d2, err := startDaemon(r.bin, r.work+"/daemon.log", r.c, st.daemonFlags()...)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	e.d = d2
	probe := windowStart(st.next[0])
	st.next[0]++
	recovered := false
	for !recovered && time.Since(t1) < 60*time.Second {
		code, _, err := r.c.do("POST", d2.url("/v1/fleets/"+ingestFleets[0]+"/windows"), st.quiet[0][0].body(probe))
		recovered = err == nil && code == 200
		if !recovered {
			time.Sleep(time.Millisecond)
		}
	}
	recovery := time.Since(t1)
	r.c.attempt()
	if !recovered {
		r.c.fail("no successful ack within 60s of the restart")
	}
	s.fresh[0]++
	r.checkRecovered(d2, s.fresh, finalK)
	m, err := r.scrape(d2)
	if err != nil {
		return err
	}
	r.layer.set("recovery.windows_replayed", "count", promSum(m, "kairos_recovery_windows_replayed"), "window records the restart replayed, from /metrics")
	r.e2e.set("recovery_s", "s", recovery.Seconds(), "SIGKILL restart to the first successful ack")
	// The restarted daemon's peak is recovery's, which scales with the
	// journal left since the last snapshot; daemon_rss_mb is the load's.
	if mb, err := d2.procStatusMB("VmHWM"); err == nil {
		r.e2e.set("recovery_rss_mb", "MB", mb, "peak RSS of the restarted daemon (recovery)")
	}
	r.daemonJournal = true
	return nil
}

// checkRecovered verifies the restarted daemon lists both fleets with
// the acked window counts and the plan K they had before the kill.
func (r *run) checkRecovered(d *daemon, fresh [2]int, k [2]int) {
	r.c.attempt()
	code, body, err := r.c.get(d.url("/v1/fleets"))
	if !r.c.expect("list after restart", 200, code, body, err) {
		return
	}
	var list []server.FleetStatus
	if err := json.Unmarshal(body, &list); err != nil {
		r.c.fail("list after restart: %v", err)
		return
	}
	if len(list) != len(ingestFleets) {
		r.c.fail("after restart %d fleets listed, want %d", len(list), len(ingestFleets))
		return
	}
	for i, st := range list {
		if st.ID != ingestFleets[i] || st.Windows != fresh[i] || (k[i] > 0 && st.K != k[i]) {
			r.c.fail("after restart fleet %+v, want %s with %d windows and K=%d", st, ingestFleets[i], fresh[i], k[i])
		}
	}
}

func ingestReplay(r *run, e *env, tr *tracer) error {
	st := e.state.(*ingestState)
	return r.replayLayers(tr, replaySpec{
		regBody: st.regBody[0],
		quiet:   st.quiet[0][0].body(windowStart(0)), drift: st.drift[0].body(windowStart(1)),
	})
}
