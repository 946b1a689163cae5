# Kairos build targets. These mirror .github/workflows/ci.yml exactly so
# local runs and CI stay in lockstep.

GO ?= go

.PHONY: build test test-full race race-full race-server crash-matrix fuzz bench bench-hot bench-resolve bench-drift bench-json serve-smoke lint fmt ci

build:
	$(GO) build ./...

# Fast suite: skips the simulated profiler sweeps and long co-location runs.
test:
	$(GO) test -short ./...

# Full suite, including the slow model/vm/figure tests (the tier-1 verify
# command from ROADMAP.md).
test-full:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race -short ./...

# Full suite under the race detector, including the slow model/vm tests.
# CI runs this as its own job; locally it is the long-form race gate.
race-full:
	$(GO) test -race ./...

# Control-plane tests under the race detector, full (not -short): includes
# the 197-server HTTP e2e with concurrent collectors.
race-server:
	$(GO) test -race ./internal/server/

# Crash matrix: the durability gate. Kills the journaled control plane at
# every fault-injection point (append write/sync, snapshot write/sync/
# rename/truncate, torn half-written frame), restarts from the state
# directory, and asserts every acked window was replayed, the recovered
# plan matches the last published placement, and retries of acked windows
# deduplicate instead of re-firing the detector.
crash-matrix:
	$(GO) test -run 'TestCrashMatrix|TestRecoveryAfterGracefulClose|TestDeregisterSurvivesRestart|TestIdempotentIngestLive|TestDegradedWhileRecovering' -v ./internal/server/
	$(GO) test -run 'TestTornTail|TestBitFlips|TestSnapshotCrash|TestCorruptSnapshot|TestTornAppendPoisonsLog|TestPropertyReplayEqualsModel' -v ./internal/journal/

# Bounded fuzzing of the window decoder: decodeWindow must agree with
# encoding/json bit for bit on every input, and the journal record it
# splices must decode back to the same window. Seeds are committed under
# internal/server/testdata/fuzz/FuzzDecodeWindow (plain `go test` replays
# them); a crasher found here becomes a new committed seed.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeWindow$$' -fuzztime=30s ./internal/server/

# Benchmark smoke: every benchmark once, no unit tests. The full figure
# benchmarks regenerate the paper's evaluation; see bench_test.go.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Hill-climb hot path: candidate-move pricing with the incremental
# LoadState engine vs the scratch evaluator, plus the coarse-to-fine
# screened sweep vs the unscreened one, with allocation stats. The
# loadstate case must stay at 0 allocs/op and ≥5x the scratch speed, and
# the screened move+swap sweep at 0 allocs/op and ≥3x the unscreened
# sweep (sweep-speedup metric) on the 197-server fleet; tracked per PR.
# The cold 197-server solve (bounded-K search, incremental DIRECT, polish
# reusing the K* probe) runs once per worker setting; its k, objective and
# fevals metrics are deterministic and must not move.
bench-hot:
	$(GO) test -bench='LoadState|Coarse' -benchmem -benchtime=10x -run='^$$' .
	$(GO) test -bench='ColdSolveALL' -benchmem -benchtime=1x -run='^$$' .

# Event-driven re-consolidation: the watch loop over quiet + 5%-drifted
# observation windows of the 197-server fleet. Tracked metrics:
# trigger-precision and trigger-recall at 1.0 (no trigger on quiet
# windows, trigger within one window of the drift episode), watch-fevals
# well under cadence-fevals (the evaluations a fixed-cadence re-solve
# would spend on the same stream), migrated-frac in the low percent.
bench-drift:
	$(GO) test -bench='DriftWatch' -benchmem -benchtime=1x -run='^$$' .

# Machine-readable bench trajectory: the sweep, cold-solve, drift-watch
# and window-ack benchmarks as JSON (ns/op, B/op, allocs/op, MB/s,
# fevals, sweep-speedup, k and objective, trigger precision/recall per
# case) in BENCH_sweeps.json, uploaded as a CI artifact so per-PR perf
# history accumulates. WindowAck posts one quiet 197-server window
# through the HTTP handler, in memory and journaled (fsync always).
bench-json:
	( $(GO) test -bench='LoadState|Coarse' -benchmem -benchtime=10x -run='^$$' . ; \
	  $(GO) test -bench='ColdSolveALL' -benchmem -benchtime=1x -run='^$$' . ; \
	  $(GO) test -bench='DriftWatch' -benchmem -benchtime=1x -run='^$$' . ; \
	  $(GO) test -bench='WindowAck' -benchmem -benchtime=20x -run='^$$' ./internal/server/ ) | $(GO) run ./cmd/benchjson > BENCH_sweeps.json
	@echo wrote BENCH_sweeps.json

# Rolling re-consolidation: warm-started Resolve on the drifted 197-server
# fleet vs a cold solve, plus the memoized disk-envelope pricing sweep.
# Tracked metrics: warm fevals well under cold's, migrated-frac in the low
# percent, and 0 allocs/op on the envelope sweep.
bench-resolve:
	$(GO) test -bench='ResolveWarmVsCold|SweepEnvelope' -benchmem -benchtime=1x -run='^$$' .

# Serve smoke: boot the kairos serve daemon, register a small synthetic
# fleet over HTTP, stream a quiet and a drifted window with curl, and
# assert the drift trigger shows up in /metrics.
serve-smoke:
	./scripts/serve-smoke.sh

# Lint: vet, formatting, and the repo's own analyzer suite (kairoslint:
# per-package hotalloc/lockguard/floatdet/wirejson/errflow plus the
# whole-program call-graph and dataflow checks — ctxflow/hotcall/
# lockorder/unitsafe and walorder/leakcheck/atomicmix; see
# CONTRIBUTING.md). Runs from the module root; kairoslint walks the same
# package graph as the build via `go list`, loading packages in parallel.
# The 30s budget matches CI: if load+analysis blow past it the run exits 3,
# keeping analyzer regressions from hiding inside a slow lint step.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" $$out; exit 1; fi
	$(GO) run ./cmd/kairoslint -budget 30s ./...

fmt:
	gofmt -w .

# Local CI mirror. The hosted workflow runs the same gates, with the
# short race pass promoted to `race-full` in a dedicated job (and
# govulncheck, which needs network access to fetch its vuln DB).
ci: build lint test race race-server crash-matrix fuzz serve-smoke bench
