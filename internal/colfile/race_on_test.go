//go:build race

package colfile

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
