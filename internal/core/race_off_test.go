//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build.
// Allocation gates over pooled state skip under it: sync.Pool drops items at
// random when instrumented.
const raceEnabled = false
