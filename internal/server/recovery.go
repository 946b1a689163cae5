package server

// Crash recovery for the durable control plane. The journal (see
// internal/journal) holds a snapshot of the full registry plus an ordered
// suffix of mutation records (RecordWire); replay restores the snapshot,
// then reconsumes each record through the same state machines the live
// server used — windows detect-only (so the drift detector cannot
// double-fire on a replayed window), advances from their journaled
// incumbents (no re-solve) — and finally starts a reconcile loop per
// recovered fleet.
//
// Convention (see CONTRIBUTING.md): every new control-plane mutation
// needs a RecordWire field, an append at its live mutation site, and a
// replay case in this file.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"kairos"
	"kairos/internal/journal"
)

// RecoveryStats summarizes one journal replay for logs and /metrics.
type RecoveryStats struct {
	// SnapshotFleets is how many fleets the snapshot restored.
	SnapshotFleets int
	// Fleets is the registry size after the full replay.
	Fleets int
	// Windows, Advances and Rearms count replayed journal records.
	Windows  int
	Advances int
	Rearms   int
	// Healed counts pending triggers re-armed by the self-heal rule: a
	// journaled trigger whose outcome (advance or rearm) never made the
	// journal before the crash.
	Healed int
	// TornTail reports the journal ended in a truncated partial record.
	TornTail bool
	// Elapsed is how long the replay took.
	Elapsed time.Duration
}

// appendRecord journals one control-plane mutation as RecordWire JSON:
// window records are spliced from the bytes the collector sent
// (windowPayload), every other record is marshalled. A nil journal (no
// state dir) accepts everything: the in-memory server behaves exactly as
// before durability existed.
func (s *Server) appendRecord(rec *RecordWire) error {
	if s.jl == nil {
		return nil
	}
	var b []byte
	var err error
	if rec.Window != nil {
		b, err = windowPayload(rec.Window)
	} else {
		b, err = json.Marshal(rec)
	}
	if err != nil {
		return err
	}
	_, err = s.jl.Append(b)
	return err
}

// windowPayload renders a window record without re-encoding its series:
// {"window":{"fleet":<id quoted by encoding/json>,"workloads":<span>}}
// with one workloads member per span of w.Raw.
func windowPayload(w *WindowRecord) ([]byte, error) {
	if len(w.Raw) == 0 {
		return nil, fmt.Errorf("window record for fleet %q carries no request bytes", w.Fleet)
	}
	fleet, err := json.Marshal(w.Fleet)
	if err != nil {
		return nil, err
	}
	const head, member, tail = `{"window":{"fleet":`, `,"workloads":`, `}}`
	n := len(head) + len(fleet) + len(tail)
	for _, span := range w.Raw {
		n += len(member) + len(span)
	}
	b := make([]byte, 0, n)
	b = append(b, head...)
	b = append(b, fleet...)
	for _, span := range w.Raw {
		b = append(b, member...)
		b = append(b, span...)
	}
	return append(b, tail...), nil
}

// installHook wires the session's advance hook: every drift-triggered
// incumbent advance is journaled before the library publishes it, so a
// recovered server can never serve an older plan than one a client
// already saw. A refused append aborts the advance (the detector
// re-arms and the drift fires again).
func (s *Server) installHook(sess *session) {
	sess.fleet.SetAdvanceHook(func(ev *kairos.ReconsolidationEvent) error {
		return s.appendRecord(&RecordWire{Advance: &AdvanceRecord{
			Fleet:     sess.id,
			Incumbent: ev.Plan.Incumbent(),
			Event:     eventWire(ev),
		}})
	})
}

// jitterDuration returns a uniformly random duration in [0, d).
func jitterDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d)))
}

// restoreSession rebuilds one fleet session from its registration
// request and durable incumbent, without solving. Shared by snapshot
// restore and RegisterRecord replay; the reconcile loop is started by
// the caller once the whole journal has replayed.
func (s *Server) restoreSession(req *RegisterRequest, inc *kairos.Incumbent) (*session, error) {
	if req == nil || req.ID == "" {
		return nil, fmt.Errorf("registration record has no request")
	}
	if inc == nil {
		return nil, fmt.Errorf("fleet %q journaled without an incumbent", req.ID)
	}
	dp, err := toDiskProfile(req.DiskProfile)
	if err != nil {
		return nil, fmt.Errorf("fleet %q disk_profile: %w", req.ID, err)
	}
	machines, err := toMachines(req)
	if err != nil {
		return nil, fmt.Errorf("fleet %q: %w", req.ID, err)
	}
	workloads, err := toWorkloads(req.Workloads, dp != nil)
	if err != nil {
		return nil, fmt.Errorf("fleet %q: %w", req.ID, err)
	}
	if err := uniqueNames(workloads); err != nil {
		return nil, fmt.Errorf("fleet %q: %w", req.ID, err)
	}
	fleet, err := kairos.NewFleet(
		kairos.FleetSpec{Name: req.ID, Workloads: workloads, Machines: machines, Disk: dp},
		toFleetOptions(req.Options)...)
	if err != nil {
		return nil, fmt.Errorf("fleet %q spec: %w", req.ID, err)
	}
	if _, err := fleet.AdoptIncumbent(inc); err != nil {
		return nil, fmt.Errorf("fleet %q incumbent: %w", req.ID, err)
	}
	sess := &session{
		id:        req.ID,
		req:       req,
		fleet:     fleet,
		workloads: workloads,
		machines:  machines,
		needDisk:  dp != nil,
		ingest:    make(chan ingestReq),
		done:      make(chan struct{}),
		acks:      map[int64]AckWire{},
	}
	s.installHook(sess)
	return sess, nil
}

// replay rebuilds the registry from a recovered journal, then starts the
// reconcile loops. It runs inside Open, before the HTTP surface accepts
// traffic (Handler answers 503 while s.recovering), but still holds s.mu
// throughout so the registry writes satisfy the lock contract the live
// paths rely on. Records referencing unknown fleets — possible after a
// snapshot compacted away their registration and deregistration — are
// skipped; structurally invalid records are fatal (they can only mean a
// software bug, the CRC already vouched for the bytes).
func (s *Server) replay(rec *journal.Recovered) (*RecoveryStats, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := &RecoveryStats{TornTail: rec.TornTail}
	if rec.TornTail {
		s.logf("journal tail torn at byte %d: truncated (last records were never acked)", rec.TornOffset)
	}

	if len(rec.Snapshot) > 0 {
		var snap SnapshotWire
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("decoding snapshot: %w", err)
		}
		for i := range snap.Fleets {
			fs := &snap.Fleets[i]
			sess, err := s.restoreSession(fs.Request, fs.Incumbent)
			if err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
			if fs.Detector.Windows > 0 || len(fs.History) > 0 {
				cp := &kairos.FleetCheckpoint{
					Incumbent: fs.Incumbent,
					Windows:   fs.Detector.Windows,
					Armed:     fs.Detector.Armed,
					Cooldown:  fs.Detector.Cooldown,
				}
				if len(fs.Baseline) > 0 {
					if cp.Baseline, err = toWorkloads(fs.Baseline, sess.needDisk); err != nil {
						return nil, fmt.Errorf("snapshot fleet %q baseline: %w", sess.id, err)
					}
				}
				if cp.History, err = toHistory(fs.History, sess.needDisk); err != nil {
					return nil, fmt.Errorf("snapshot fleet %q: %w", sess.id, err)
				}
				if err := sess.fleet.RestoreWatch(cp); err != nil {
					return nil, fmt.Errorf("snapshot fleet %q watch state: %w", sess.id, err)
				}
			}
			sess.mu.Lock()
			sess.events = append(sess.events, fs.Events...)
			for _, a := range fs.Acks {
				if _, ok := sess.acks[a.StartUnix]; !ok {
					sess.ackOrder = append(sess.ackOrder, a.StartUnix)
				}
				sess.acks[a.StartUnix] = a
			}
			sess.failures = fs.Failures
			sess.mu.Unlock()
			s.fleets[sess.id] = sess
		}
		stats.SnapshotFleets = len(snap.Fleets)
	}

	// pending marks fleets whose last replayed window fired a trigger with
	// no journaled outcome yet. Live, the outcome record (advance or
	// rearm) immediately follows; a crash between them leaves the trigger
	// dangling, and the self-heal re-arms it so the drift fires again.
	pending := map[string]bool{}
	heal := func(id string) {
		if pending[id] {
			if sess := s.fleets[id]; sess != nil {
				sess.fleet.RearmDetector()
				stats.Healed++
			}
			delete(pending, id)
		}
	}
	for _, r := range rec.Records {
		var rw RecordWire
		if err := json.Unmarshal(r.Payload, &rw); err != nil {
			return nil, fmt.Errorf("decoding journal record %d: %w", r.Seq, err)
		}
		switch {
		case rw.Register != nil:
			sess, err := s.restoreSession(rw.Register.Request, rw.Register.Incumbent)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", r.Seq, err)
			}
			s.fleets[sess.id] = sess
		case rw.Window != nil:
			id := rw.Window.Fleet
			sess := s.fleets[id]
			if sess == nil {
				s.logf("journal record %d: window for unknown fleet %q skipped", r.Seq, id)
				continue
			}
			heal(id)
			window, err := toWorkloads(rw.Window.Workloads, sess.needDisk)
			if err != nil {
				// The live server journaled before validating against the
				// session; a window it went on to reject replays as rejected.
				s.logf("journal record %d: window for %q rejected on replay (as live): %v", r.Seq, id, err)
				continue
			}
			triggered, err := sess.fleet.ObserveDetectOnly(window)
			if err != nil {
				s.logf("journal record %d: window for %q rejected on replay (as live): %v", r.Seq, id, err)
				continue
			}
			stats.Windows++
			if triggered {
				pending[id] = true
			}
			if key := windowKey(rw.Window.Workloads); key != 0 {
				s.recordAck(sess, key, ingestResp{window: sess.fleet.Window() - 1, triggered: triggered})
			}
		case rw.Advance != nil:
			id := rw.Advance.Fleet
			sess := s.fleets[id]
			if sess == nil {
				s.logf("journal record %d: advance for unknown fleet %q skipped", r.Seq, id)
				continue
			}
			if _, err := sess.fleet.ReplayAdvance(rw.Advance.Incumbent); err != nil {
				return nil, fmt.Errorf("record %d: replaying advance for %q: %w", r.Seq, id, err)
			}
			if rw.Advance.Event != nil {
				sess.mu.Lock()
				sess.events = append(sess.events, rw.Advance.Event)
				sess.mu.Unlock()
			}
			delete(pending, id)
			stats.Advances++
		case rw.Rearm != nil:
			id := rw.Rearm.Fleet
			if sess := s.fleets[id]; sess != nil {
				sess.fleet.RearmDetector()
				stats.Rearms++
			}
			delete(pending, id)
		case rw.Deregister != nil:
			delete(pending, rw.Deregister.Fleet)
			delete(s.fleets, rw.Deregister.Fleet)
		default:
			return nil, fmt.Errorf("journal record %d has no operation", r.Seq)
		}
	}
	for id := range pending {
		heal(id)
	}

	stats.Fleets = len(s.fleets)
	for _, sess := range s.fleets {
		ctx, cancel := context.WithCancel(s.ctx)
		sess.cancel = cancel
		s.wg.Add(1)
		go s.reconcile(ctx, sess)
	}
	s.met.setFleets(len(s.fleets))
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// maybeSnapshot compacts the journal into a snapshot once enough windows
// have been ingested since the last one. Called by reconcile loops after
// releasing the snapshot read-lock; a failed snapshot is logged and
// retried after the next window (the journal keeps growing but loses
// nothing).
func (s *Server) maybeSnapshot() {
	if s.jl == nil {
		return
	}
	if s.sinceSnap.Add(1) < s.snapEvery {
		return
	}
	if err := s.snapshot(); err != nil {
		s.logf("snapshot failed (journal retained, will retry): %v", err)
	}
}

// snapshot checkpoints every fleet under the ingestion write-lock and
// hands the marshalled registry to the journal, which swaps it in and
// truncates the replayed prefix. Quiescing ingestion guarantees the
// snapshot observes no window between its journal record and its
// effects.
func (s *Server) snapshot() error {
	s.pauseRW.Lock()
	defer s.pauseRW.Unlock()
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.fleets))
	for _, sess := range s.fleets {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	// Deterministic order keeps snapshots byte-comparable across runs.
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	snap := SnapshotWire{Fleets: make([]FleetSnapshot, 0, len(sessions))}
	for _, sess := range sessions {
		cp := sess.fleet.Checkpoint()
		fs := FleetSnapshot{
			Request:   sess.req,
			Incumbent: cp.Incumbent,
			Baseline:  fromWorkloads(cp.Baseline),
			History:   fromHistory(cp.History),
			Detector:  DetectorWire{Windows: cp.Windows, Armed: cp.Armed, Cooldown: cp.Cooldown},
		}
		sess.mu.Lock()
		fs.Events = append([]*EventWire(nil), sess.events...)
		for _, k := range sess.ackOrder {
			fs.Acks = append(fs.Acks, sess.acks[k])
		}
		fs.Failures = sess.failures
		sess.mu.Unlock()
		snap.Fleets = append(snap.Fleets, fs)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := s.jl.Snapshot(b); err != nil {
		return err
	}
	s.sinceSnap.Store(0)
	return nil
}
