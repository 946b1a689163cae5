package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"kairos/internal/fleet"
)

// diffWorkloads describes the first difference between two decoded
// windows, comparing every sample by its bits (so -0 differs from 0) and
// slices by nil-ness as well as contents; "" means identical.
func diffWorkloads(got, want []WorkloadWire) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("workloads: got %d (nil=%v), want %d (nil=%v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Name != w.Name || g.StartUnix != w.StartUnix || g.Replicas != w.Replicas ||
			math.Float64bits(g.StepSeconds) != math.Float64bits(w.StepSeconds) {
			return fmt.Sprintf("workload %d: got %q/%d/%v/%d, want %q/%d/%v/%d", i,
				g.Name, g.StartUnix, g.StepSeconds, g.Replicas, w.Name, w.StartUnix, w.StepSeconds, w.Replicas)
		}
		if (g.PinTo == nil) != (w.PinTo == nil) || (g.PinTo != nil && *g.PinTo != *w.PinTo) {
			return fmt.Sprintf("workload %d: pin_to differs", i)
		}
		for _, s := range []struct {
			name      string
			got, want []float64
		}{
			{"cpu", g.CPU, w.CPU},
			{"ram_bytes", g.RAMBytes, w.RAMBytes},
			{"ws_bytes", g.WSBytes, w.WSBytes},
			{"update_rate", g.UpdateRate, w.UpdateRate},
			{"disk_write_bps", g.DiskWriteBps, w.DiskWriteBps},
		} {
			if (s.got == nil) != (s.want == nil) || len(s.got) != len(s.want) {
				return fmt.Sprintf("workload %d %s: got %v, want %v", i, s.name, s.got, s.want)
			}
			for j := range s.got {
				if math.Float64bits(s.got[j]) != math.Float64bits(s.want[j]) {
					return fmt.Sprintf("workload %d %s[%d]: got %v, want %v", i, s.name, j, s.got[j], s.want[j])
				}
			}
		}
	}
	return ""
}

// fuzzFleet is the fleet id the fuzz target journals under; its quote
// and HTML characters exercise the id's encoding/json quoting.
const fuzzFleet = `f"<&>`

// FuzzDecodeWindow holds decodeWindow to encoding/json: on every input
// both reject, or both accept with bit-identical workloads, and the
// journal record spliced from the returned bytes decodes back to the
// same workloads. Seeds live in testdata/fuzz/FuzzDecodeWindow.
func FuzzDecodeWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, raw, err := decodeWindow(body)
		var want WindowRequest
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decodeWindow err = %v, encoding/json err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if d := diffWorkloads(got.Workloads, want.Workloads); d != "" {
			t.Fatalf("decodeWindow vs encoding/json: %s", d)
		}
		if len(raw) == 0 {
			// No workloads member: nothing to journal (the handler rejects
			// an empty window before it reaches the journal).
			if want.Workloads != nil {
				t.Fatalf("no raw workloads for a window with %d workloads", len(want.Workloads))
			}
			return
		}
		payload, err := windowPayload(&WindowRecord{Fleet: fuzzFleet, Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		var rw RecordWire
		if err := json.Unmarshal(payload, &rw); err != nil {
			t.Fatalf("spliced record does not decode: %v\n%s", err, payload)
		}
		if rw.Window == nil || rw.Window.Fleet != fuzzFleet {
			t.Fatalf("spliced record lost its fleet: %s", payload)
		}
		if d := diffWorkloads(rw.Window.Workloads, want.Workloads); d != "" {
			t.Fatalf("spliced record vs encoding/json: %s", d)
		}
	})
}

// TestDecodeWindowKeyTable derives WorkloadWire's json keys by reflection
// and holds the scanner's key table to them: every key is either decoded
// by scanWindow — and then identically to encoding/json — or listed here
// as deliberately left to the fallback. A renamed or added field cannot
// slip through decoded differently.
func TestDecodeWindowKeyTable(t *testing.T) {
	// Keys scanWindow deliberately leaves to encoding/json (none today).
	sentToFallback := map[string]bool{}
	// A sample value per field type.
	samples := map[reflect.Type]string{
		reflect.TypeOf(""):          `"db-07"`,
		reflect.TypeOf(int64(0)):    `-1700000000`,
		reflect.TypeOf(0):           `3`,
		reflect.TypeOf(0.0):         `2.5e-3`,
		reflect.TypeOf([]float64{}): `[0.1,-0,1e300,5e-324]`,
		reflect.TypeOf((*int)(nil)): `4`,
	}
	typ := reflect.TypeOf(WorkloadWire{})
	tags := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		key, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Fatalf("WorkloadWire.%s has no json key", field.Name)
		}
		tags[key] = true
		sample, ok := samples[field.Type]
		if !ok {
			t.Fatalf("WorkloadWire.%s has type %v, which scanWindow has no decoder for: add one or list %q in sentToFallback",
				field.Name, field.Type, key)
		}
		body := []byte(fmt.Sprintf(`{"workloads":[{%q:%s}]}`, key, sample))
		got, _, ok := scanWindow(body)
		if sentToFallback[key] {
			if ok {
				t.Errorf("key %q is listed as sent to the fallback but scanWindow decoded %s", key, body)
			}
			continue
		}
		if !ok {
			t.Errorf("scanWindow does not decode key %q (%s): add it to workloadKeys or list it in sentToFallback", key, body)
			continue
		}
		var want WindowRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if d := diffWorkloads(got.Workloads, want.Workloads); d != "" {
			t.Errorf("key %q: %s", key, d)
		}
	}
	for _, key := range workloadKeys {
		if !tags[key] {
			t.Errorf("workloadKeys entry %q is no WorkloadWire json key", key)
		}
	}
	if len(workloadKeys)+len(sentToFallback) != len(tags) {
		t.Errorf("workloadKeys has %d keys and %d are sent to the fallback, WorkloadWire has %d",
			len(workloadKeys), len(sentToFallback), len(tags))
	}
}

// TestScanWindowTakesCollectorShape: what collectors send — a quiet
// ALL-197 window marshalled by encoding/json, compact or indented — is
// decoded by the scanner (not the fallback), bit-identically, and its
// raw span is the body's workloads array byte for byte.
func TestScanWindowTakesCollectorShape(t *testing.T) {
	fl := fleet.All()
	wls := wireWorkloads(fl.Workloads(0.7), 1.001)
	wls[0].StartUnix, wls[1].Replicas = 1700000000, 2
	pin := 3
	wls[2].PinTo = &pin
	wls[3].DiskWriteBps = []float64{0, -0.5, 1e-9}
	req := WindowRequest{Workloads: wls}
	compact := mustJSON(req)
	indented, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"compact": compact, "indented": indented} {
		got, raw, ok := scanWindow(body)
		if !ok {
			t.Fatalf("%s: scanWindow fell back on a collector body", name)
		}
		if d := diffWorkloads(got.Workloads, wls); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		var spans windowSpans
		if err := json.Unmarshal(body, &spans); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 1 || len(spans.Workloads) != 1 || !bytes.Equal(raw[0], spans.Workloads[0]) {
			t.Fatalf("%s: raw span is not the body's workloads array", name)
		}
	}
}

// TestWindowPayloadNeedsRawBytes: appendRecord has one way to write a
// window record, and a record without the request's bytes is refused
// rather than journaled empty.
func TestWindowPayloadNeedsRawBytes(t *testing.T) {
	if _, err := windowPayload(&WindowRecord{Fleet: "f", Workloads: testWorkloads(1, 2, 1)}); err == nil {
		t.Fatal("window record without raw bytes was accepted")
	}
	b, err := windowPayload(&WindowRecord{Fleet: "f", Raw: []json.RawMessage{json.RawMessage(`[]`), json.RawMessage(`null`)}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"window":{"fleet":"f","workloads":[],"workloads":null}}`; string(b) != want {
		t.Errorf("payload = %s, want %s", b, want)
	}
}
