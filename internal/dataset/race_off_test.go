//go:build !race

package dataset

// raceEnabled reports whether the race detector instruments this build.
// Allocation gates skip under it: instrumentation adds allocations.
const raceEnabled = false
