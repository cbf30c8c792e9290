//go:build race

package mat

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
