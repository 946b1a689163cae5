//go:build !race

package core_test

// raceEnabled reports whether the race detector instruments this build.
// The exhaustive fleet sweeps shrink under it.
const raceEnabled = false
