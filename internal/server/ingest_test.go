package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"kairos/internal/fleet"
	"kairos/internal/journal"
)

// TestOversizedWindow413: the window handler reads its body whole, still
// under the MaxBytesReader cap — an oversized window is a 413, not
// buffered.
func TestOversizedWindow413(t *testing.T) {
	_, ts := newTestServer(t)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("big", 2, 4)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	var huge []byte
	huge = append(huge, `{"workloads":[{"name":"`...)
	huge = append(huge, bytes.Repeat([]byte("a"), maxBodyBytes+1024)...)
	huge = append(huge, `"}]}`...)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/big/windows", huge); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized window body = %d %s, want 413", status, body)
	}
}

// TestSplicedWindowRecordsReplayLikeMarshalled: a journal whose window
// records were re-marshalled from the decoded structs (how older builds
// wrote them) and the same journal with the records spliced verbatim
// from the collector's bytes — here an indented body and a compact one —
// recover to identical session state: history, detector counters and
// ack ring.
func TestSplicedWindowRecordsReplayLikeMarshalled(t *testing.T) {
	spliced := t.TempDir()
	s, ts := openDurable(t, spliced, journal.Options{Sync: journal.SyncAlways}, 256)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("compat", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	first := testWorkloads(4, 8, 1.001)
	for i := range first {
		first[i].StartUnix = 5000
	}
	indented, err := json.MarshalIndent(WindowRequest{Workloads: first}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range [][]byte{indented, stampedWindow(4, 8, 1.002, 6000)} {
		if status, resp := do(t, http.MethodPost, ts.URL+"/v1/fleets/compat/windows", body); status != http.StatusOK {
			t.Fatalf("window %d: %d %s", i, status, resp)
		}
	}
	ts.Close()
	s.Kill() // no shutdown snapshot: recovery must replay the window records

	// Rewrite the journal record by record, re-marshalling each window.
	jl, rec, err := journal.Open(spliced, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	_, span, err := decodeWindow(indented)
	if err != nil {
		t.Fatal(err)
	}
	marshalled := t.TempDir()
	out, _, err := journal.Open(marshalled, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	for _, r := range rec.Records {
		var rw RecordWire
		if err := json.Unmarshal(r.Payload, &rw); err != nil {
			t.Fatal(err)
		}
		payload := r.Payload
		if rw.Window != nil {
			if payload, err = json.Marshal(&rw); err != nil {
				t.Fatal(err)
			}
			// The indented window's record holds its bytes verbatim, so
			// re-marshalling changes it (the compact one's need not).
			if windows == 0 && (!bytes.Contains(r.Payload, span[0]) || bytes.Equal(payload, r.Payload)) {
				t.Fatalf("window record does not hold the indented body's workloads verbatim:\n%s", r.Payload)
			}
			windows++
		}
		if _, err := out.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if windows != 2 {
		t.Fatalf("journal holds %d window records, want 2", windows)
	}

	state := func(dir string) (FleetSnapshot, []int64) {
		t.Helper()
		s, err := Open(Config{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Kill()
		if s.recovery.Windows != 2 {
			t.Fatalf("%s: replayed %d windows, want 2", dir, s.recovery.Windows)
		}
		s.mu.Lock()
		sess := s.fleets["compat"]
		s.mu.Unlock()
		cp := sess.fleet.Checkpoint()
		fs := FleetSnapshot{
			History:  fromHistory(cp.History),
			Detector: DetectorWire{Windows: cp.Windows, Armed: cp.Armed, Cooldown: cp.Cooldown},
		}
		sess.mu.Lock()
		defer sess.mu.Unlock()
		for _, k := range sess.ackOrder {
			fs.Acks = append(fs.Acks, sess.acks[k])
		}
		return fs, append([]int64(nil), sess.ackOrder...)
	}
	gotState, gotOrder := state(spliced)
	wantState, wantOrder := state(marshalled)
	if len(gotState.History) != 2 || len(gotState.Acks) != 2 {
		t.Fatalf("recovered %d history windows and %d acks, want 2 and 2", len(gotState.History), len(gotState.Acks))
	}
	for i := range wantState.History {
		if d := diffWorkloads(gotState.History[i], wantState.History[i]); d != "" {
			t.Errorf("history window %d: %s", i, d)
		}
	}
	if gotState.Detector != wantState.Detector {
		t.Errorf("detector %+v, want %+v", gotState.Detector, wantState.Detector)
	}
	if !reflect.DeepEqual(gotState.Acks, wantState.Acks) || !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Errorf("ack ring %+v (order %v), want %+v (order %v)", gotState.Acks, gotOrder, wantState.Acks, wantOrder)
	}
}

// BenchmarkWindowAck is the per-layer evidence for the window→ack path:
// one quiet ALL-197 window (the 4.3 MB body collectors send) posted
// through Handler and acked, in memory and journaled with fsync on every
// append. MB/s is body bytes acked per second.
func BenchmarkWindowAck(b *testing.B) {
	fl := fleet.All()
	baseline := fl.Workloads(0.7)
	reg := mustJSON(RegisterRequest{
		ID:           "all-197",
		Workloads:    wireWorkloads(baseline, 1.0),
		AutoMachines: &AutoMachines{Count: len(baseline)},
	})
	window := mustJSON(WindowRequest{Workloads: wireWorkloads(baseline, 1.001)})
	post := func(h http.Handler, path string, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code
	}
	for _, bc := range []struct {
		name    string
		durable bool
	}{{"mem", false}, {"journal", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{}
			if bc.durable {
				cfg.StateDir = b.TempDir()
				cfg.Journal = journal.Options{Sync: journal.SyncAlways}
			}
			s, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			if code := post(h, "/v1/fleets", reg); code != http.StatusCreated {
				b.Fatalf("register: %d", code)
			}
			b.SetBytes(int64(len(window)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code := post(h, "/v1/fleets/all-197/windows", window); code != http.StatusOK {
					b.Fatalf("window %d: %d", i, code)
				}
			}
		})
	}
}
