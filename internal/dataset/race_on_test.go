//go:build race

package dataset

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
