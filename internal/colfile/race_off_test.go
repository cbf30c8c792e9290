//go:build !race

package colfile

// raceEnabled reports whether the race detector instruments this build. The
// decompression-bomb test skips under it — one goroutine, nothing to race,
// many times slower instrumented — and check.sh runs it uninstrumented.
const raceEnabled = false
