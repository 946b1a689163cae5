//go:build !race

package kairos

// raceEnabled reports whether the race detector instruments this build.
// The golden 197-server solves are skipped under it.
const raceEnabled = false
