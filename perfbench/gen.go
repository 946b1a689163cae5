package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"kairos"
	"kairos/internal/fleet"
	"kairos/internal/server"
)

// Input generation. The seed perturbs the generated fleets — one scale
// factor per workload and one noise factor per workload per window — and
// the daemon sees only the request bodies built here: the same seed gives
// byte-identical bodies, another seed different ones.
//
// The perturbations are deliberately tiny. The solver's search is
// chaotic in its input: scaling each workload of the ALL fleet by a
// random 1±1e-4 already moves its default solve between K=15 and K=16 and
// between 0.7M and 1.3M objective evaluations. A seed that changed the
// solver's path would change its work by that much and swamp the
// regressions the benchmark exists to catch. At 1±1e-7 every body still
// differs byte-wise (no response can be served from a cache keyed on the
// body), while the work the daemon does stays the workload's own.

const (
	// scaleSpread is the per-workload scale factor range, 1±scaleSpread.
	scaleSpread = 1e-7
	// windowNoise is the per-workload, per-window noise range,
	// 1±windowNoise: far under the drift re-arm level (half the 0.04
	// threshold), so a window at the registered level is quiet.
	windowNoise = 1e-7
	// driftLevel is the load level of drifted windows: 10% above the
	// registered level, past the 0.04 drift threshold.
	driftLevel = 1.10
	// dayUnix is one window's span; window i of a fleet starts at
	// (i+1)·dayUnix, which is also its idempotency key.
	dayUnix = 86400
	// startSentinel marks the start_unix field in body templates.
	startSentinel = 4102444800123
)

// inputs is one workload's generated fleet.
type inputs struct {
	workloads []kairos.Workload
	disk      json.RawMessage // disk-profile fixture, nil without one
	rng       *rand.Rand      // per-window noise stream
}

// newInputs builds the named dataset ("all" or "secondlife") perturbed
// by seed. salt tells apart the fleet instances one run registers: each
// instance has its own scale factors and window noise, so a run's
// medians average over several inputs of the seed, not one.
func newInputs(dataset string, seed int64, salt int64, disk json.RawMessage) (*inputs, error) {
	var fl fleet.Fleet
	switch dataset {
	case "all":
		fl = fleet.All()
	case "secondlife":
		fl = fleet.Generate(fleet.SecondLife)
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + salt))
	wls := fl.Workloads(0.7)
	for i := range wls {
		f := 1 + scaleSpread*(2*rng.Float64()-1)
		w := &wls[i]
		w.CPU = w.CPU.Scale(f)
		w.RAMBytes = w.RAMBytes.Scale(f)
		w.WSBytes = w.WSBytes.Scale(f)
		w.UpdateRate = w.UpdateRate.Scale(f)
	}
	return &inputs{workloads: wls, disk: disk, rng: rng}, nil
}

// loadDiskFixture reads the committed disk-profile fixture. Set-up never
// profiles the disk: the fixture was made once with
// `kairos profile-disk -quick`.
func loadDiskFixture(root string) (json.RawMessage, error) {
	b, err := os.ReadFile(filepath.Join(root, "perfbench", "testdata", "disk-profile.json"))
	if err != nil {
		return nil, fmt.Errorf("reading disk-profile fixture: %w", err)
	}
	return json.RawMessage(b), nil
}

// wire renders the workloads at load level, each scaled by its own
// factor from noise (nil = no noise), all series starting at start.
func (in *inputs) wire(level float64, noise []float64, start int64) []server.WorkloadWire {
	out := make([]server.WorkloadWire, len(in.workloads))
	for i, w := range in.workloads {
		f := level
		if noise != nil {
			f *= noise[i]
		}
		scaled := func(vals []float64) []float64 {
			v := make([]float64, len(vals))
			for j, x := range vals {
				v[j] = x * f
			}
			return v
		}
		out[i] = server.WorkloadWire{
			Name:        w.Name,
			StartUnix:   start,
			StepSeconds: w.CPU.Step.Seconds(),
			CPU:         scaled(w.CPU.Values),
			RAMBytes:    scaled(w.RAMBytes.Values),
			WSBytes:     scaled(w.WSBytes.Values),
			UpdateRate:  scaled(w.UpdateRate.Values),
		}
	}
	return out
}

// nextNoise draws one window's per-workload noise factors.
func (in *inputs) nextNoise() []float64 {
	out := make([]float64, len(in.workloads))
	for i := range out {
		out[i] = 1 + windowNoise*(2*in.rng.Float64()-1)
	}
	return out
}

// registerBody is the POST /v1/fleets body for fleet id.
func (in *inputs) registerBody(id string, opts server.OptionsWire) ([]byte, error) {
	return json.Marshal(server.RegisterRequest{
		ID:           id,
		Workloads:    in.wire(1, nil, 0),
		AutoMachines: &server.AutoMachines{Count: len(in.workloads)},
		DiskProfile:  in.disk,
		Options:      opts,
	})
}

// template is a window body with its start time left open, so one
// generated window can be sent under many idempotency keys without
// re-encoding 4 MB of JSON per send.
type template struct {
	chunks [][]byte // the body split at every start_unix value
	level  float64
}

// newTemplate draws one window's noise at the given level and renders it.
func (in *inputs) newTemplate(level float64) (*template, error) {
	body, err := json.Marshal(server.WindowRequest{Workloads: in.wire(level, in.nextNoise(), startSentinel)})
	if err != nil {
		return nil, err
	}
	chunks := bytes.Split(body, []byte(fmt.Sprintf(`"start_unix":%d`, startSentinel)))
	if len(chunks) != len(in.workloads)+1 {
		return nil, fmt.Errorf("window template: %d start fields for %d workloads", len(chunks)-1, len(in.workloads))
	}
	return &template{chunks: chunks, level: level}, nil
}

// body renders the template with every series starting at start.
func (t *template) body(start int64) []byte {
	field := []byte(fmt.Sprintf(`"start_unix":%d`, start))
	n := len(field) * (len(t.chunks) - 1)
	for _, c := range t.chunks {
		n += len(c)
	}
	out := make([]byte, 0, n)
	for i, c := range t.chunks {
		if i > 0 {
			out = append(out, field...)
		}
		out = append(out, c...)
	}
	return out
}

// windowStart is the start time (and idempotency key) of window i.
func windowStart(i int) int64 { return int64(i+1) * dayUnix }
