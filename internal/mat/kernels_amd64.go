//go:build amd64 && !noasm

package mat

import "math"

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

// mulRowAVX is mulRowRef over a row's first n4 elements, n4 a positive
// multiple of four and kc ≥ 1, with lda and ldb in elements: the whole k loop
// in one call, its four-wide passes and then its leftover k.
//
//go:noescape
func mulRowAVX(c, a *float64, lda, kc int, b *float64, ldb, n4 int)

// mulRow is mulRowRef with lanes across j where the CPU has AVX.
func mulRow(c, a []float64, lda, kc int, b []float64, ldb int) {
	n := 0
	if useAVX && len(c) >= 4 && kc > 0 {
		n = len(c) &^ 3
		_, _ = a[(kc-1)*lda], b[(kc-1)*ldb+n-1] // the kernel reads these and everything before
		mulRowAVX(&c[0], &a[0], lda, kc, &b[0], ldb, n)
	}
	if n < len(c) {
		mulRowRef(c[n:], a, lda, kc, b[n:], ldb)
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

// softmaxMaxSubAVX and softmaxSumDivAVX are Softmax's passes over blocks
// (≥ 1) blocks of four c-wide rows at x, row l of a block in lane l. The
// first sets v = (v + b) − max over the row of (v + b), b the bias block's
// entry for v's place in its block; the second v = v / Σ v, the sum in index
// order from +0. perm is softmaxPerm[c].
//
//go:noescape
func softmaxMaxSubAVX(x *float64, blocks, c int, bias *float64, perm *[8]int32)

//go:noescape
func softmaxSumDivAVX(x *float64, blocks, c int, perm *[8]int32)

// softmaxPerm[c] takes a block's per-row value (max or sum, row l in lane l)
// to its four-element chunks: chunk k holds elements 4k…4k+3 of the block's
// 4c, element p of row p/c, so VPERMPS puts that row's quadword in its place.
var softmaxPerm = func() (t [MaxLaneWidth + 1][MaxLaneWidth][8]int32) {
	for c := 1; c <= MaxLaneWidth; c++ {
		for p := 0; p < 4*c; p++ {
			r := int32(p / c)
			t[c][p/4][2*(p%4)], t[c][p/4][2*(p%4)+1] = 2*r, 2*r+1
		}
	}
	return t
}()

// Softmax replaces each of m's leading rows, in whole blocks of four, with
// the softmax of the row plus bias (nil adds nothing): v = v + b, max over
// the row, v − max, Exp, the sum in index order, v / sum — the loops nn's
// softmax states, with every rounding theirs. It takes the blocks in lanes,
// row l of a block in lane l, when the CPU has AVX2 and FMA and m is at most
// MaxLaneWidth wide, and returns how many rows it did: none otherwise.
func Softmax(m *Matrix, bias []float64) int {
	c, n := m.Cols, m.Rows&^3
	if !useAVX2FMA || c == 0 || c > MaxLaneWidth || n == 0 {
		return 0
	}
	// The bias block: b[p] is added to element p of every block, column p mod
	// c. With no bias it is −0, and v + (−0) is v.
	var b [4 * MaxLaneWidth]float64
	for p := range b[:4*c] {
		b[p] = math.Copysign(0, -1)
		if bias != nil {
			b[p] = bias[p%c]
		}
	}
	x := m.Data[:n*c]
	softmaxMaxSubAVX(&x[0], n/4, c, &b[0], &softmaxPerm[c][0])
	Exp(x)
	softmaxSumDivAVX(&x[0], n/4, c, &softmaxPerm[c][0])
	return n
}

// classAtRankAVX writes classes[4i+l], for each of blocks (≥ 1) blocks of
// four c-wide rows at p, as ClassAtRank states it, row l of the block in lane
// l, and returns how many rows it wrote: it stops before the first block
// whose probabilities sum to NaN.
//
//go:noescape
func classAtRankAVX(p *float64, blocks, c int, ranks, classes *int) int

// rankLanes[i] is i in four lanes: a class's index, and what its count of
// predecessors starts from.
var rankLanes = func() (t [MaxLaneWidth][4]int64) {
	for i := range t {
		t[i] = [4]int64{int64(i), int64(i), int64(i), int64(i)}
	}
	return t
}()

// ClassAtRank sets classes[i], for p's leading rows in whole blocks of four,
// to the class at rank ranks[i] (in [0, p.Cols)) of row i, classes ordered by
// descending probability, ties to the lower index: the class with exactly
// ranks[i] predecessors, class a going before class b when p_a > p_b, or p_a
// == p_b and a < b. It counts them four rows at a time, one compare per pair
// of classes, when the CPU has AVX2 and FMA and p is at most MaxLaneWidth
// wide, and returns how many rows it did: none otherwise, and it stops before
// a block whose probabilities sum to NaN — a NaN among them, where the counts
// are no ranking, or both infinities.
func ClassAtRank(p *Matrix, ranks, classes []int) int {
	c, n := p.Cols, p.Rows&^3
	if !useAVX2FMA || c == 0 || c > MaxLaneWidth || n == 0 {
		return 0
	}
	_, _ = ranks[n-1], classes[n-1]
	return classAtRankAVX(&p.Data[0], n/4, c, &ranks[0], &classes[0])
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

// reluGateAVX is reluGateRef over n elements, n a positive multiple of four.
//
//go:noescape
func reluGateAVX(grad, o *float64, n int)

// addToBothAVX is addToBothRef over n elements, n as above.
//
//go:noescape
func addToBothAVX(d, sum, v *float64, n int)

// ReLUGate sets g[i] = +0 where o[i] ≤ 0 and keeps it elsewhere, NaN o[i]
// included, for every i < len(g), in AVX lanes where the CPU has them.
func ReLUGate(g, o []float64) {
	n := 0
	if useAVX && len(g) >= 4 {
		n = len(g) &^ 3
		_ = o[n-1]
		reluGateAVX(&g[0], &o[0], n)
	}
	reluGateRef(g[n:], o[n:])
}

// AddToBoth adds v[i] to d[i] and to sum[i] for every i < len(v).
func AddToBoth(d, sum, v []float64) {
	n := 0
	if useAVX && len(v) >= 4 {
		n = len(v) &^ 3
		_, _ = d[n-1], sum[n-1]
		addToBothAVX(&d[0], &sum[0], &v[0], n)
	}
	addToBothRef(d[n:], sum[n:], v[n:])
}
