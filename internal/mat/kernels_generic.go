//go:build !amd64 || noasm

package mat

// useAVX is false without the amd64 assembly: every kernel runs its portable
// loop, which archives decode identically through.
const useAVX = false

func mulTPanelAVX(a *float64, rows, k int, w, c *float64, ldc int, mask *[4]int64) {
	panic("mat: no AVX kernel in this build")
}

func mulRow(c, a []float64, lda, kc int, b []float64, ldb int) {
	mulRowRef(c, a, lda, kc, b, ldb)
}

// Exp replaces every x[i] with exp(x[i]).
func Exp(x []float64) {
	for i, v := range x {
		x[i] = exp(v)
	}
}

// Softmax leaves every row to its caller: it has no lanes in this build.
func Softmax(m *Matrix, bias []float64) int { return 0 }

// ClassAtRank leaves every row to its caller: it has no lanes in this build.
func ClassAtRank(p *Matrix, ranks, classes []int) int { return 0 }

// AddReLU sets x[i] = ReLU(x[i] + b[i]) for every i < len(x).
func AddReLU(x, b []float64) { addReLURef(x, b) }

// AddAddReLU sets dst[i] = ReLU((s[i] + w[i]) + b[i]) for every i < len(dst).
func AddAddReLU(dst, s, w, b []float64) { addAddReLURef(dst, s, w, b) }

// ReLUGate sets g[i] = +0 where o[i] ≤ 0 and keeps it elsewhere, NaN o[i]
// included, for every i < len(g).
func ReLUGate(g, o []float64) { reluGateRef(g, o) }

// AddToBoth adds v[i] to d[i] and to sum[i] for every i < len(v).
func AddToBoth(d, sum, v []float64) { addToBothRef(d, sum, v) }
