//go:build !race

package mat

// raceEnabled reports whether the race detector instruments this build. The
// exp and tanh sweeps skip under it — millions of scalar calls with nothing
// to race, 5× slower instrumented — and check.sh runs them uninstrumented.
const raceEnabled = false
