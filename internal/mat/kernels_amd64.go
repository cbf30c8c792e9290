//go:build amd64 && !noasm

package mat

// useAVX selects the AVX kernels below over the portable loops: the CPU
// reports AVX and the operating system saves the YMM registers. useAVX2FMA
// also needs AVX2 and FMA, which the exp kernel uses. Nothing else chooses
// between a kernel and its portable loop — both produce the same bits.
var useAVX, useAVX2FMA = cpuFeatures()

// cpuFeatures reads CPUID.1:ECX (OSXSAVE, AVX, FMA), XCR0 (SSE and AVX
// state) and CPUID.7:EBX (AVX2).
func cpuFeatures() (avx, avx2fma bool)

// mulTPanelAVX is the float64 x·Wᵀ kernel: for each of rows k-wide rows of a
// it writes the row's four inner products with one packed panel w ([k][4]) to
// c, c+ldc, …. One SIMD lane per output, s += a[k]·w[k] in ascending k with
// separate multiply and add — mulTRange's roundings exactly. Four rows share
// each panel load; leftover rows go one at a time. The store keeps to the
// lanes whose mask quadword is −1: fewer than four for a padded last panel.
//
//go:noescape
func mulTPanelAVX(a *float64, rows, k int, w, c *float64, ldc int, mask *[4]int64)

// axpy4AVX is axpy4Ref over n elements, n a positive multiple of four.
//
//go:noescape
func axpy4AVX(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

// axpy4 is axpy4Ref with lanes across j where the CPU has AVX.
func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := 0
	if useAVX && len(c) >= 4 {
		n = len(c) &^ 3
		_, _, _, _ = b0[n-1], b1[n-1], b2[n-1], b3[n-1] // the kernel reads n of each
		axpy4AVX(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
	}
	if n < len(c) {
		axpy4Ref(c[n:], b0[n:], b1[n:], b2[n:], b3[n:], a0, a1, a2, a3)
	}
}

// expAVX is exp over x[0:n], n a multiple of four, lane l of a block doing
// exp's operations on x[4i+l] in exp's order. It returns how many it wrote,
// stopping at the first block with a lane for exp: k+1023 outside [1, 2046]
// (NaN, ±Inf, overflow, a denormal or zero result).
//
//go:noescape
func expAVX(x *float64, n int) int

// expLanes is expAVX's memory operands, four of each: exp's constants, the
// range of k it keeps, and 2⁵²+1023, whose sum with k holds k+1023 in its
// low bits.
var expLanes = func() (t [16][4]float64) {
	for i, c := range [...]float64{expLog2e, expLn2Hi, expLn2Lo, 0.0625,
		expC8, expC7, expC6, expC5, expC4, expC3, 0.5, 1, 2, -1022, 1023, 0x1p52 + 1023} {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()

// Exp replaces every x[i] with exp(x[i]), through expAVX where the CPU has
// AVX2 and FMA and exp for the tail and the blocks it declines.
func Exp(x []float64) {
	i := 0
	if useAVX2FMA {
		for n := len(x) &^ 3; i < n; {
			i += expAVX(&x[i], n-i)
			for end := min(i+4, n); i < end; i++ {
				x[i] = exp(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		x[i] = exp(x[i])
	}
}

// addReLUAVX is addReLURef over n elements, n a positive multiple of four.
//
//go:noescape
func addReLUAVX(x, b *float64, n int)

// addAddReLUAVX is addAddReLURef over n elements, n as above.
//
//go:noescape
func addAddReLUAVX(dst, s, w, b *float64, n int)

// AddReLU sets x[i] = ReLU(x[i] + b[i]) for every i < len(x), in AVX lanes
// where the CPU has them.
func AddReLU(x, b []float64) {
	n := 0
	if useAVX && len(x) >= 4 {
		n = len(x) &^ 3
		_ = b[n-1]
		addReLUAVX(&x[0], &b[0], n)
	}
	addReLURef(x[n:], b[n:])
}

// AddAddReLU sets dst[i] = ReLU((s[i] + w[i]) + b[i]) for every i < len(dst).
func AddAddReLU(dst, s, w, b []float64) {
	n := 0
	if useAVX && len(dst) >= 4 {
		n = len(dst) &^ 3
		_, _, _ = s[n-1], w[n-1], b[n-1]
		addAddReLUAVX(&dst[0], &s[0], &w[0], &b[0], n)
	}
	addAddReLURef(dst[n:], s[n:], w[n:], b[n:])
}
