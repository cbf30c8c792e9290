//go:build !amd64 || noasm

package mat

// useAVX is false without the amd64 assembly: every kernel runs its portable
// loop, which archives decode identically through.
const useAVX = false

func mulTPanelAVX(a *float64, rows, k int, w, c *float64, ldc int, mask *[4]int64) {
	panic("mat: no AVX kernel in this build")
}

func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Ref(c, b0, b1, b2, b3, a0, a1, a2, a3)
}
