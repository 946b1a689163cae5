package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"kairos/internal/server"
)

// bodies renders every kind of request body one instance produces.
func bodies(t *testing.T, seed, salt int64) [][]byte {
	t.Helper()
	in, err := newInputs("secondlife", seed, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := in.registerBody("f", server.OptionsWire{History: 1})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := in.newTemplate(1)
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := in.newTemplate(driftLevel)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{reg, quiet.body(windowStart(0)), drifted.body(windowStart(7))}
}

func TestSeedDeterminism(t *testing.T) {
	a, b, c := bodies(t, 1, 200), bodies(t, 1, 200), bodies(t, 2, 200)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("body %d differs between two generations from seed 1", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("body %d is the same for seeds 1 and 2", i)
		}
	}
	if d := bodies(t, 1, 201); bytes.Equal(a[0], d[0]) {
		t.Error("two fleet instances of one seed registered the same body")
	}
}

func TestTemplateStartsEverySeries(t *testing.T) {
	in, err := newInputs("all", 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := in.newTemplate(1)
	if err != nil {
		t.Fatal(err)
	}
	var wr server.WindowRequest
	if err := json.Unmarshal(tpl.body(windowStart(4)), &wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Workloads) != 197 {
		t.Fatalf("window has %d workloads, want 197", len(wr.Workloads))
	}
	for _, w := range wr.Workloads {
		if w.StartUnix != windowStart(4) {
			t.Fatalf("workload %s starts at %d, want %d", w.Name, w.StartUnix, windowStart(4))
		}
	}
}

func TestQuietWindowsStayQuiet(t *testing.T) {
	in, err := newInputs("secondlife", 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for _, f := range in.nextNoise() {
			if f < 1-windowNoise || f > 1+windowNoise {
				t.Fatalf("noise factor %v outside 1±%v", f, windowNoise)
			}
		}
	}
}
