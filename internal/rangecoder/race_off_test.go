//go:build !race

package rangecoder

// raceEnabled reports whether the race detector instruments this build. The
// DecodeAdaptive pin runs a short trial under it, and the rescale-boundary and
// two-call-reference sweeps skip — single-threaded arithmetic with nothing to
// race, many times slower instrumented — and check.sh runs them all, in full,
// uninstrumented.
const raceEnabled = false
