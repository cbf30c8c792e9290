//go:build race

package rangecoder

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
