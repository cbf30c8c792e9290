//go:build !race

package rangecoder

// raceEnabled reports whether the race detector instruments this build. The
// DecodeAdaptive pin runs a short trial under it — single-threaded arithmetic
// with nothing to race, many times slower instrumented — and check.sh runs
// the full sweep uninstrumented.
const raceEnabled = false
