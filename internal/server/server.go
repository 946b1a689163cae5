package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kairos"
	"kairos/internal/journal"
)

// maxBodyBytes caps every /v1/ request body (http.MaxBytesReader): a
// hostile or broken collector posting an unbounded JSON stream gets a 413
// instead of OOMing the daemon. Sixteen MiB holds a multi-thousand-server
// observation window with week-long series.
const maxBodyBytes = 16 << 20

// ackRingSize bounds the per-fleet idempotent-ingest ring: the most
// recent acks, keyed by window start time, kept for collector retries.
const ackRingSize = 512

// Config configures a control plane for Open.
type Config struct {
	// Logf receives one line per lifecycle event (register, trigger,
	// deregister, recovery); nil discards them.
	Logf func(format string, args ...any)
	// StateDir enables durability: every control-plane mutation is
	// journaled there before it is acked or published, and Open replays
	// snapshot + journal to rebuild the registry. Empty runs in-memory,
	// exactly as a server without durability always has.
	StateDir string
	// Journal tunes the write-ahead log (fsync policy, test fault
	// injection). Ignored without StateDir.
	Journal journal.Options
	// SnapshotEvery compacts the journal into a snapshot after this many
	// ingested windows (0 = 256).
	SnapshotEvery int
	// BackoffBase and BackoffCap bound the exponential backoff a fleet's
	// reconcile loop applies after a failed re-solve (0 = 1s base, 60s
	// cap). Windows arriving during backoff are monitored but never
	// trigger a solve.
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// Server is the control plane state: the fleet registry, one reconcile
// loop per registered fleet, the metrics registry, and (with a state
// dir) the durability journal. Create it with Open (or New for a pure
// in-memory plane), mount Handler on an http.Server, and Close it on
// shutdown — Close cancels every reconcile loop, waits for them to
// drain, and snapshots the journal.
type Server struct {
	mu     sync.Mutex
	fleets map[string]*session // guarded by mu
	closed bool                // guarded by mu

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	met  *metrics
	mux  *http.ServeMux
	logf func(format string, args ...any)

	// jl is the durability journal; nil without a state dir.
	jl *journal.Log
	// pauseRW quiesces ingestion for snapshots: every reconcile loop
	// holds the read side across one window's journal-append + apply +
	// ack, so the write side observes no window between its journal
	// record and its effects.
	pauseRW sync.RWMutex
	// recovering gates the HTTP surface while the journal replays:
	// requests get a degraded 503 + Retry-After instead of racing the
	// rebuild.
	recovering atomic.Bool
	// recovery summarizes the last replay for /metrics; nil without a
	// state dir.
	recovery *RecoveryStats
	// sinceSnap counts ingested windows since the last snapshot.
	sinceSnap atomic.Int64
	snapEvery int64

	backoffBase time.Duration
	backoffCap  time.Duration
}

// session is one registered fleet: the library session handle plus the
// channel its reconcile loop serializes ingestion through, the
// server-side event log, and the idempotent-ingest ring.
type session struct {
	id        string
	req       *RegisterRequest // registration request, reissued in snapshots
	fleet     *kairos.Fleet
	workloads []kairos.Workload
	machines  []kairos.Machine
	needDisk  bool
	ingest    chan ingestReq
	cancel    context.CancelFunc
	done      chan struct{}

	mu sync.Mutex
	// events is the fleet's re-consolidation event log in wire form —
	// server-owned so recovery can restore it from the journal without
	// reconstructing library event objects (guarded by mu).
	events []*EventWire
	// acks and ackOrder are the idempotent-ingest ring: original
	// acknowledgements keyed by window start time, eviction in arrival
	// order (guarded by mu).
	acks     map[int64]AckWire
	ackOrder []int64 // guarded by mu
	// failures counts consecutive failed re-solves; backoffUntil is when
	// the loop may solve again (guarded by mu).
	failures     int
	backoffUntil time.Time // guarded by mu
}

// ingestReq carries one observation window into the reconcile loop and
// the channel the loop acknowledges it on. key is the window's
// idempotency key (windowKey) and raw its workloads bytes as received,
// journaled verbatim (WindowRecord.Raw).
type ingestReq struct {
	window []kairos.Workload
	key    int64
	raw    []json.RawMessage
	reply  chan ingestResp
}

// ingestResp is the reconcile loop's acknowledgement of one window.
type ingestResp struct {
	window    int
	triggered bool
	event     *kairos.ReconsolidationEvent
	// duplicate marks an idempotent resend answered from the ack ring.
	duplicate bool
	// journalErr reports the window could not be made durable; the
	// client must retry (503), nothing was applied.
	journalErr error
	err        error
}

// New creates a pure in-memory control plane (no state dir). logf
// receives one line per lifecycle event; nil discards them.
func New(logf func(format string, args ...any)) *Server {
	s, err := Open(Config{Logf: logf})
	if err != nil {
		// Unreachable: only journal recovery can fail, and New opens none.
		panic(err)
	}
	return s
}

// Open creates a control plane from cfg. With a state dir it opens the
// journal, replays snapshot + journal to rebuild every registered fleet
// — incumbents, detector state, event logs, ack rings — and only then
// returns; requests hitting Handler during the replay get a degraded
// 503. A torn journal tail is truncated and logged, never fatal; a
// corrupt snapshot is fatal (see the journal package).
func Open(cfg Config) (*Server, error) {
	//kairoslint:allow ctxflow: control-plane root context; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		fleets:      map[string]*session{},
		ctx:         ctx,
		cancel:      cancel,
		met:         newMetrics(),
		logf:        cfg.Logf,
		snapEvery:   int64(cfg.SnapshotEvery),
		backoffBase: cfg.BackoffBase,
		backoffCap:  cfg.BackoffCap,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if s.snapEvery <= 0 {
		s.snapEvery = 256
	}
	if s.backoffBase <= 0 {
		s.backoffBase = time.Second
	}
	if s.backoffCap <= 0 {
		s.backoffCap = 60 * time.Second
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleets", s.handleRegister)
	mux.HandleFunc("GET /v1/fleets", s.handleList)
	mux.HandleFunc("GET /v1/fleets/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/fleets/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/fleets/{id}/windows", s.handleWindow)
	mux.HandleFunc("GET /v1/fleets/{id}/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/fleets/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux

	if cfg.StateDir != "" {
		l, rec, err := journal.Open(cfg.StateDir, cfg.Journal)
		if err != nil {
			cancel()
			return nil, err
		}
		s.jl = l
		s.recovering.Store(true)
		stats, err := s.replay(rec)
		s.recovering.Store(false)
		if err != nil {
			l.Close() //kairoslint:allow errflow: already failing with the replay error; a close error would mask it
			cancel()
			return nil, fmt.Errorf("server: recovering from %s: %w", cfg.StateDir, err)
		}
		s.recovery = stats
		if stats.Fleets > 0 || stats.Windows > 0 || stats.TornTail {
			s.logf("recovered %d fleets from %s: %d windows, %d advances, %d rearms replayed (torn tail: %v) in %v",
				stats.Fleets, cfg.StateDir, stats.Windows, stats.Advances, stats.Rearms, stats.TornTail, stats.Elapsed)
		}
	}
	return s, nil
}

// Handler returns the HTTP handler serving the /v1/ API and /metrics.
// It degrades to 503 + Retry-After while journal replay is in progress
// and bounds every /v1/ request body.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.recovering.Load() {
			writeUnavailable(w, "recovering: replaying journal")
			return
		}
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/") {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Close stops every reconcile loop and waits for them to exit, then
// snapshots and closes the journal. The server rejects new work
// afterwards; in-flight ingest requests are answered with a shutdown
// error.
func (s *Server) Close() error {
	return s.close(true)
}

// Kill is Close without the graceful snapshot or journal flush attempt —
// the crash-matrix tests' SIGKILL analogue: whatever the journal holds
// is what recovery gets.
func (s *Server) Kill() error {
	return s.close(false)
}

// close implements Close/Kill. Callers hold no locks.
func (s *Server) close(snapshot bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	if s.jl == nil {
		return nil
	}
	if snapshot {
		// Best effort: a failed shutdown snapshot just means the next
		// start replays the journal instead.
		if err := s.snapshot(); err != nil {
			s.logf("shutdown snapshot failed (journal replay will recover): %v", err)
		}
	}
	return s.jl.Close()
}

// writeJSON writes v as a JSON response with the given status. A JSON
// body is how mutations are acknowledged to clients, so in any handler
// that journals, the append must come first.
//
//kairos:ack — journal before acking.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //kairoslint:allow errflow: status already committed; an encode failure only truncates the body, which the client sees
}

// writeNoContent acknowledges a mutation that has no response body.
//
//kairos:ack — same contract as writeJSON: journal before acking.
func writeNoContent(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNoContent)
}

// writeErr writes an ErrorResponse.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeUnavailable writes a 503 with a Retry-After header: every
// retryable condition (shutdown, recovery, journal unavailable) tells
// the collector when to resend. Resent windows are idempotent — ingest
// is keyed by window start time, so a retry of an already-acked window
// returns the original ack.
func writeUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, format, args...)
}

// writeDecodeErr maps a request-body decode failure: an oversized body
// (http.MaxBytesReader tripped) is 413, anything else 400.
func writeDecodeErr(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge, "decoding %s: body exceeds %d bytes", what, mbe.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "decoding %s: %v", what, err)
}

// readBody reads a whole request body, bounded by Handler's
// MaxBytesReader and sized up front from Content-Length when the client
// sent one.
func readBody(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// lookup finds a registered session, or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.fleets[id]
	s.mu.Unlock()
	if sess == nil {
		writeErr(w, http.StatusNotFound, "unknown fleet %q", id)
		return nil
	}
	return sess
}

// handleRegister is POST /v1/fleets: validate the spec, run the initial
// consolidation synchronously (the response carries the plan summary),
// commit the session to the registry, and start its reconcile loop.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeErr(w, "register request", err)
		return
	}
	if req.ID == "" || strings.ContainsAny(req.ID, "/ ") {
		writeErr(w, http.StatusBadRequest, "fleet id must be non-empty without '/' or spaces, got %q", req.ID)
		return
	}
	s.mu.Lock()
	_, exists := s.fleets[req.ID]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeUnavailable(w, "server shutting down")
		return
	}
	if exists {
		writeErr(w, http.StatusConflict, "fleet %q already registered", req.ID)
		return
	}
	dp, err := toDiskProfile(req.DiskProfile)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "disk_profile: %v", err)
		return
	}
	machines, err := toMachines(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	workloads, err := toWorkloads(req.Workloads, dp != nil)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := uniqueNames(workloads); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	fleet, err := kairos.NewFleet(
		kairos.FleetSpec{Name: req.ID, Workloads: workloads, Machines: machines, Disk: dp},
		toFleetOptions(req.Options)...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid fleet spec: %v", err)
		return
	}
	// The initial solve runs in the request: registration returns the plan
	// it will serve, and a spec the solver rejects never enters the
	// registry. The solve aborts when the server shuts down (s.ctx) or the
	// client goes away (r.Context()).
	solveCtx, solveCancel := context.WithCancel(s.ctx)
	stopAfter := context.AfterFunc(r.Context(), solveCancel)
	plan, err := fleet.Consolidate(solveCtx)
	stopAfter()
	solveCancel()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			writeUnavailable(w, "consolidation aborted: %v", err)
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, "initial consolidation failed: %v", err)
		return
	}

	ctx, cancel := context.WithCancel(s.ctx)
	sess := &session{
		id:        req.ID,
		req:       &req,
		fleet:     fleet,
		workloads: workloads,
		machines:  machines,
		needDisk:  dp != nil,
		ingest:    make(chan ingestReq),
		cancel:    cancel,
		done:      make(chan struct{}),
		acks:      map[int64]AckWire{},
	}
	s.installHook(sess)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		writeUnavailable(w, "server shutting down")
		return
	}
	if _, raced := s.fleets[req.ID]; raced {
		s.mu.Unlock()
		cancel()
		writeErr(w, http.StatusConflict, "fleet %q already registered", req.ID)
		return
	}
	// Journal the registration before committing it: a fleet the registry
	// serves is a fleet recovery can rebuild. Lock order: s.mu → journal.
	if err := s.appendRecord(&RecordWire{Register: &RegisterRecord{
		Request: &req, Incumbent: plan.Incumbent(),
	}}); err != nil {
		s.mu.Unlock()
		cancel()
		writeUnavailable(w, "journaling registration: %v", err)
		return
	}
	s.fleets[req.ID] = sess
	n := len(s.fleets)
	s.mu.Unlock()
	s.met.setFleets(n)

	s.wg.Add(1)
	go s.reconcile(ctx, sess)
	s.logf("fleet %q registered: %d workloads -> K=%d (feasible=%v)",
		req.ID, len(workloads), plan.K, plan.Feasible)
	writeJSON(w, http.StatusCreated, s.status(sess))
}

// uniqueNames enforces the name-matching contract windows rely on.
func uniqueNames(wls []kairos.Workload) error {
	seen := make(map[string]bool, len(wls))
	for _, w := range wls {
		if seen[w.Name] {
			return fmt.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	return nil
}

// reconcile is a fleet's control loop: it owns all Observe calls for the
// session, so windows from any number of collectors apply in a single
// serial order, and re-solves never overlap. It exits when the session is
// deregistered or the server shuts down. Each window's
// journal-append + apply + ack runs under the snapshot read-lock, so a
// snapshot never captures state a journaled record has not yet produced.
func (s *Server) reconcile(ctx context.Context, sess *session) {
	defer s.wg.Done()
	defer close(sess.done)
	for {
		select {
		case <-ctx.Done():
			return
		case req := <-sess.ingest:
			s.pauseRW.RLock()
			resp := s.processWindow(ctx, sess, req)
			s.pauseRW.RUnlock()
			req.reply <- resp
			s.maybeSnapshot()
		}
	}
}

// windowKey is the idempotency key of an ingested window: the start time
// of its first series. Zero (collectors that do not timestamp windows)
// disables deduplication for that window.
func windowKey(wire []WorkloadWire) int64 {
	if len(wire) == 0 {
		return 0
	}
	return wire[0].StartUnix
}

// processWindow applies one observation window: dedupe against the ack
// ring, journal it, observe (detect-only while backing off after solver
// failures), and record the ack. Runs on the reconcile goroutine under
// the snapshot read-lock.
func (s *Server) processWindow(ctx context.Context, sess *session, req ingestReq) ingestResp {
	// Idempotent resend: a window already acked under this start-time key
	// returns its original acknowledgement without being re-applied.
	key := req.key
	if key != 0 {
		sess.mu.Lock()
		ack, dup := sess.acks[key]
		sess.mu.Unlock()
		if dup {
			return ingestResp{window: ack.Window, triggered: ack.Triggered, duplicate: true}
		}
	}
	// Journal before applying: a window the client sees acked must exist
	// in the journal, or a crash would silently drop it. A failed append
	// refuses the window entirely (retryable 503) — nothing was applied.
	if err := s.appendRecord(&RecordWire{Window: &WindowRecord{Fleet: sess.id, Raw: req.raw}}); err != nil {
		return ingestResp{journalErr: err}
	}

	sess.mu.Lock()
	inBackoff := time.Now().Before(sess.backoffUntil)
	sess.mu.Unlock()
	if inBackoff {
		// Solver backoff: keep the detector and history moving, but
		// suppress re-solves. A trigger during backoff re-arms (journaled,
		// so replay re-arms too) and the drift fires again once the
		// backoff expires.
		triggered, err := sess.fleet.ObserveDetectOnly(req.window)
		if err != nil {
			s.met.observeWindow(sess.id, true)
			return ingestResp{err: err}
		}
		if triggered {
			if err := s.appendRecord(&RecordWire{Rearm: &RearmRecord{Fleet: sess.id}}); err != nil {
				// The trigger is journaled as pending; recovery self-heals
				// an unresolved trigger by re-arming.
				s.logf("fleet %q: journaling backoff re-arm: %v", sess.id, err)
			}
			sess.fleet.RearmDetector()
		}
		s.met.observeWindow(sess.id, false)
		resp := ingestResp{window: sess.fleet.Window() - 1}
		s.recordAck(sess, key, resp)
		return resp
	}

	// The loop's ctx rides into the solver: Server.Close (or a
	// deregister) aborts a drift-triggered re-solve mid-flight. The
	// advance hook journals the new incumbent before Observe publishes it.
	ev, err := sess.fleet.Observe(ctx, req.window)
	if err != nil {
		var re *kairos.ResolveError
		if errors.As(err, &re) && !errors.Is(err, context.Canceled) {
			// The window was consumed and the detector re-armed by the
			// library; journal the re-arm and back off before solving again.
			if jerr := s.appendRecord(&RecordWire{Rearm: &RearmRecord{Fleet: sess.id}}); jerr != nil {
				s.logf("fleet %q: journaling failed-solve re-arm: %v", sess.id, jerr)
			}
			n, delay := s.bumpBackoff(sess)
			s.met.setResolveFailures(sess.id, n)
			s.logf("fleet %q: re-solve failed (%d consecutive), backing off %v: %v", sess.id, n, delay, err)
		}
		s.met.observeWindow(sess.id, true)
		return ingestResp{err: err}
	}
	sess.mu.Lock()
	sess.failures = 0
	sess.backoffUntil = time.Time{}
	sess.mu.Unlock()
	s.met.setResolveFailures(sess.id, 0)
	s.met.observeWindow(sess.id, false)
	resp := ingestResp{window: sess.fleet.Window() - 1}
	if ev != nil {
		resp.triggered = true
		resp.event = ev
		sess.mu.Lock()
		sess.events = append(sess.events, eventWire(ev))
		sess.mu.Unlock()
		s.met.observeTrigger(sess.id, ev.Plan.Fevals, ev.Plan.Migrated, ev.Plan.Elapsed)
		s.logf("fleet %q: %v", sess.id, ev)
	}
	s.recordAck(sess, key, resp)
	return resp
}

// recordAck stores a window's acknowledgement in the idempotent-ingest
// ring, evicting the oldest entry beyond ackRingSize. Entering the ring
// makes resends return the original ack, so the window must already be
// journaled.
//
//kairos:ack — journal before acking.
func (s *Server) recordAck(sess *session, key int64, resp ingestResp) {
	if key == 0 {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if _, ok := sess.acks[key]; !ok {
		sess.ackOrder = append(sess.ackOrder, key)
		if len(sess.ackOrder) > ackRingSize {
			delete(sess.acks, sess.ackOrder[0])
			sess.ackOrder = sess.ackOrder[1:]
		}
	}
	sess.acks[key] = AckWire{StartUnix: key, Window: resp.window, Triggered: resp.triggered}
}

// bumpBackoff records one more consecutive solver failure and extends
// the session's backoff window exponentially (full jitter on the upper
// half, bounded by backoffCap).
func (s *Server) bumpBackoff(sess *session) (int, time.Duration) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.failures++
	shift := min(sess.failures-1, 20)
	d := min(s.backoffCap, s.backoffBase<<shift)
	// Full jitter on the upper half: concurrent fleets failing against a
	// shared cause don't re-solve in lockstep.
	d = d/2 + jitterDuration(d/2)
	sess.backoffUntil = time.Now().Add(d)
	return sess.failures, d
}

// handleWindow is POST /v1/fleets/{id}/windows: decode the window in one
// pass (decodeWindow), hand it to the fleet's reconcile loop, and
// acknowledge once it has been applied (including whether it triggered
// a re-solve).
func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	body, err := readBody(r)
	if err != nil {
		writeDecodeErr(w, "window", err)
		return
	}
	req, raw, err := decodeWindow(body)
	if err != nil {
		writeDecodeErr(w, "window", err)
		return
	}
	window, err := toWorkloads(req.Workloads, sess.needDisk)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ir := ingestReq{window: window, key: windowKey(req.Workloads), raw: raw, reply: make(chan ingestResp, 1)}
	select {
	case sess.ingest <- ir:
	case <-sess.done:
		s.writeStopped(w, sess, "")
		return
	case <-r.Context().Done():
		return
	}
	writeResp := func(resp ingestResp) {
		if resp.journalErr != nil {
			// The window never reached the journal, so it was not applied;
			// the collector retries against this or a restarted server.
			writeUnavailable(w, "journaling window: %v", resp.journalErr)
			return
		}
		if resp.err != nil {
			if errors.Is(resp.err, context.Canceled) {
				// The re-solve was aborted by shutdown or deregistration,
				// not rejected on its merits.
				writeUnavailable(w, "re-consolidation aborted: %v", resp.err)
				return
			}
			// The window was structurally valid JSON but the watch loop
			// rejected it (unknown workload, series shape mismatch, ...).
			writeErr(w, http.StatusUnprocessableEntity, "%v", resp.err)
			return
		}
		out := WindowResponse{Window: resp.window, Triggered: resp.triggered, Duplicate: resp.duplicate}
		if resp.event != nil {
			out.Event = eventWire(resp.event)
		}
		writeJSON(w, http.StatusOK, out)
	}
	select {
	case resp := <-ir.reply:
		writeResp(resp)
	case <-sess.done:
		// The loop may have answered and exited in the same instant; a
		// buffered reply wins over the stop notice.
		select {
		case resp := <-ir.reply:
			writeResp(resp)
		default:
			s.writeStopped(w, sess, " during ingest")
		}
	}
}

// writeStopped answers a window whose reconcile loop has exited: 503 when
// the whole server is shutting down (retryable against a replacement), 410
// when just this fleet was deregistered.
func (s *Server) writeStopped(w http.ResponseWriter, sess *session, phase string) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeUnavailable(w, "server shutting down")
		return
	}
	writeErr(w, http.StatusGone, "fleet %q deregistered%s", sess.id, phase)
}

// status snapshots a session for the wire.
func (s *Server) status(sess *session) FleetStatus {
	st := FleetStatus{
		ID:        sess.id,
		Workloads: len(sess.workloads),
		Machines:  len(sess.machines),
	}
	if p := sess.fleet.Plan(); p != nil {
		st.K, st.Feasible = p.K, p.Feasible
	}
	st.Windows = sess.fleet.Drift().Windows
	// Trigger counters come from the server-owned event log, which (unlike
	// the library's) survives recovery.
	sess.mu.Lock()
	st.Triggers, st.LastTrigger = len(sess.events), -1
	if n := len(sess.events); n > 0 {
		st.LastTrigger = sess.events[n-1].Window
	}
	sess.mu.Unlock()
	return st
}

// handleList is GET /v1/fleets.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.fleets))
	for _, sess := range s.fleets {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	out := make([]FleetStatus, len(sessions))
	for i, sess := range sessions {
		out[i] = s.status(sess)
	}
	// Deterministic listing order for clients and tests.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /v1/fleets/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookup(w, r); sess != nil {
		writeJSON(w, http.StatusOK, s.status(sess))
	}
}

// handlePlan is GET /v1/fleets/{id}/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	p := sess.fleet.Plan()
	if p == nil {
		writeErr(w, http.StatusNotFound, "fleet %q has no plan yet", sess.id)
		return
	}
	writeJSON(w, http.StatusOK, planWire(p, sess.workloads, sess.machines))
}

// handleEvents is GET /v1/fleets/{id}/events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	// The server-owned wire log, not fleet.Events(): recovery restores it
	// across restarts, which library event objects cannot be.
	sess.mu.Lock()
	out := make([]*EventWire, len(sess.events))
	copy(out, sess.events)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleDelete is DELETE /v1/fleets/{id}: remove the fleet and stop its
// reconcile loop.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.fleets[id]
	if sess == nil {
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, "unknown fleet %q", id)
		return
	}
	// Journal the deregistration before removing it: recovery must not
	// resurrect a fleet the client saw deleted. A refused append keeps
	// the fleet registered (retryable).
	if err := s.appendRecord(&RecordWire{Deregister: &DeregisterRecord{Fleet: id}}); err != nil {
		s.mu.Unlock()
		writeUnavailable(w, "journaling deregistration: %v", err)
		return
	}
	delete(s.fleets, id)
	n := len(s.fleets)
	s.mu.Unlock()
	s.met.setFleets(n)
	sess.cancel()
	<-sess.done
	s.logf("fleet %q deregistered", id)
	writeNoContent(w)
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w)
	if s.jl != nil {
		writeJournalMetrics(w, s.jl.Stats(), s.recovery)
	}
}
