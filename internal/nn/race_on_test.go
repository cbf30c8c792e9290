//go:build race

package nn

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
