//go:build amd64 && !noasm

package mat

// useAVX selects the AVX kernels below over the portable loops: the CPU
// reports AVX and the operating system saves the YMM registers. Nothing else
// chooses between them — both produce the same bits.
var useAVX = hasAVX()

// hasAVX reads CPUID.1:ECX (OSXSAVE, AVX) and XCR0 (SSE and AVX state).
func hasAVX() bool

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
