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

// Exp replaces every x[i] with exp(x[i]).
func Exp(x []float64) {
	for i, v := range x {
		x[i] = exp(v)
	}
}

// AddReLU sets x[i] = ReLU(x[i] + b[i]) for every i < len(x).
func AddReLU(x, b []float64) { addReLURef(x, b) }

// AddAddReLU sets dst[i] = ReLU((s[i] + w[i]) + b[i]) for every i < len(dst).
func AddAddReLU(dst, s, w, b []float64) { addAddReLURef(dst, s, w, b) }
