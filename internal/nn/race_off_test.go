//go:build !race

package nn

// raceEnabled reports whether the race detector instruments this build: the
// long kernel sweeps skip under it, and check.sh runs them uninstrumented.
const raceEnabled = false
