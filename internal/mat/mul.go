package mat

import (
	"fmt"

	"deepsqueeze/internal/pipeline"
)

// mulParallelThreshold is the minimum number of scalar multiplications at
// which the allocating products fan work out across goroutines. Below it the
// scheduling overhead dominates the arithmetic.
const mulParallelThreshold = 1 << 16

// pool is the package-level bounded worker pool shared by every parallel
// product in the process. Reusing one pool keeps the total number of matmul
// helper goroutines bounded by the CPU count no matter how many callers
// multiply concurrently, instead of each call spawning its own fan-out; its
// caller-runs discipline means nested or contended calls degrade to serial
// execution in the caller.
var pool = pipeline.NewPool(0)

// fansOut reports whether a product of the given size is split across the
// pool: it must be large enough to pay for the scheduling.
func fansOut(rows, work int) bool {
	return work >= mulParallelThreshold && rows >= 2 && pool.Size() >= 2
}

// parallelRows splits [0, rows) across the pool when the product fans out.
// Each output row is produced by exactly one goroutine running the serial
// kernel in a fixed iteration order, so results are bit-identical at every
// parallelism level.
func parallelRows(rows, work int, fn func(lo, hi int)) {
	if !fansOut(rows, work) {
		fn(0, rows)
		return
	}
	workers := pool.Size()
	if workers > rows {
		workers = rows
	}
	chunk := (rows + workers - 1) / workers
	n := (rows + chunk - 1) / chunk
	pool.Do(n, 0, func(i int) {
		lo := i * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		fn(lo, hi)
	})
}

// Mul returns the matrix product a*b. Large products are split across rows
// over the shared pool; see MulInto for the serial, allocation-free variant.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		mulAddRange(a, b, c, lo, hi)
	})
	return c
}

// MulInto computes c = a*b into the caller-owned c, which must be a.Rows ×
// b.Cols and must not alias a or b. It runs on the calling goroutine only —
// the training loop parallelizes across minibatch shards, not inside
// kernels — and performs no allocation. Returns c.
func MulInto(a, b, c *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	c.Zero()
	mulAddRange(a, b, c, 0, a.Rows)
	return c
}

// mulAddRange accumulates rows [lo, hi) of a*b into c (an ikj loop order:
// the inner loop walks the output row and the b rows sequentially), one
// mulRow per output row, a's row its multipliers.
func mulAddRange(a, b, c *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		mulRow(c.Row(i)[:n], a.Row(i), 1, a.Cols, b.Data, n)
	}
}

// mulRowRef is the portable statement of mulRow, the row kernel under
// mulAddRange and tMulAddRange: c[j] += Σ_k a[k·lda]·b[k·ldb+j] for k < kc
// over the len(c) elements of the row. The k loop is unrolled four-wide so
// each pass over the row folds four rank-1 updates into one load/store of
// c[j], cutting memory traffic 4x; each leftover k is one more pass. There is
// no per-k zero-skip branch: on dense inputs it cost ~8% in mispredictions and
// saved nothing (DESIGN.md §12). The AVX kernel keeps four j in the lanes of
// one register and each element's operations in this order, so the two agree
// bit for bit.
func mulRowRef(c, a []float64, lda, kc int, b []float64, ldb int) {
	k := 0
	for ; k+4 <= kc; k += 4 {
		axpy4Ref(c, b[k*ldb:], b[(k+1)*ldb:], b[(k+2)*ldb:], b[(k+3)*ldb:],
			a[k*lda], a[(k+1)*lda], a[(k+2)*lda], a[(k+3)*lda])
	}
	for ; k < kc; k++ {
		av := a[k*lda]
		for j, bv := range b[k*ldb : k*ldb+len(c)] {
			c[j] += float64(av * bv)
		}
	}
}

// axpy4Ref is one four-wide pass of mulRowRef: c[j] += ((a0·b0[j] +
// a1·b1[j]) + a2·b2[j]) + a3·b3[j] over len(c) elements of each b row, every
// product rounded before it is added.
func axpy4Ref(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j := range c {
		c[j] += float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
	}
}

// MulT returns a * bᵀ without materializing the transpose. Large products
// are split across rows of a over the shared pool.
func MulT(a, b *Matrix) *Matrix {
	return MulTPoolInto(a, b, New(a.Rows, b.Rows))
}

// MulTPoolInto computes c = a*bᵀ into the caller-owned c like MulTInto, but
// splits large products across rows of a over the shared pool like MulT —
// for inference, which has no outer data-parallel loop of its own. A product
// below the fan-out threshold runs on the caller and allocates nothing.
func MulTPoolInto(a, b, c *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulT dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulT output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	work := a.Rows * a.Cols * b.Rows
	if !fansOut(a.Rows, work) {
		// Checked here as well as in parallelRows: building the closure
		// below is a heap allocation.
		mulT(a, b, nil, c, 0, a.Rows)
		return c
	}
	parallelRows(a.Rows, work, func(lo, hi int) {
		mulT(a, b, nil, c, lo, hi)
	})
	return c
}

// MulTInto computes c = a*bᵀ into the caller-owned c, which must be a.Rows ×
// b.Rows and must not alias a or b. Serial and allocation-free; returns c.
func MulTInto(a, b, c *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTInto dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTInto output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	mulT(a, b, nil, c, 0, a.Rows)
	return c
}

// The float64 x·Wᵀ contract (DESIGN.md §12): every output is one sum
// s += a[k]·w[k] over ascending k, each product rounded to float64 before it
// is added — the explicit conversions forbid the fused multiply-add that
// arm64, ppc64le, s390x and riscv64 would otherwise emit, as dot32_ref.go
// does for float32. Failure streams are computed against these roundings, so
// an archive replays identically on every platform. mulTRange is the portable
// statement and the reference; the AVX kernel (packed.go) keeps one output
// per SIMD lane and so performs the same roundings in the same order.

// mulTRange writes rows [lo, hi) of a*bᵀ into c. Each output element is an
// inner product of two contiguous rows; the j loop is unrolled four-wide so
// one pass over arow feeds four independent accumulators (register blocking:
// the four dot products hide each other's add latency and arow is loaded
// once per group instead of once per output).
func mulTRange(a, b, c *Matrix, lo, hi int) {
	kc := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)[:kc]
		crow := c.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*kc : j*kc+kc]
			b1 := b.Data[(j+1)*kc : (j+1)*kc+kc]
			b2 := b.Data[(j+2)*kc : (j+2)*kc+kc]
			b3 := b.Data[(j+3)*kc : (j+3)*kc+kc]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += float64(av * b0[k])
				s1 += float64(av * b1[k])
				s2 += float64(av * b2[k])
				s3 += float64(av * b3[k])
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*kc : j*kc+kc]
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			crow[j] = s
		}
	}
}

// TMul returns aᵀ * b without materializing the transpose. Large products
// are split across output rows (columns of a) over the shared pool.
func TMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMul dimension mismatch (%dx%d)ᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Cols, b.Cols)
	parallelRows(a.Cols, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		tMulAddRange(a, b, c, lo, hi)
	})
	return c
}

// TMulInto computes c = aᵀ*b into the caller-owned c, which must be a.Cols ×
// b.Cols and must not alias a or b. Serial and allocation-free; returns c.
func TMulInto(a, b, c *Matrix) *Matrix {
	c.Zero()
	return TMulAddInto(a, b, c)
}

// TMulAddInto accumulates aᵀ*b into the caller-owned c — the backward pass's
// `GradW += gradᵀ·x` without an intermediate product matrix. Serial and
// allocation-free; returns c.
func TMulAddInto(a, b, c *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMulAddInto dimension mismatch (%dx%d)ᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: TMulAddInto output %dx%d, want %dx%d", c.Rows, c.Cols, a.Cols, b.Cols))
	}
	tMulAddRange(a, b, c, 0, a.Cols)
	return c
}

// tMulAddRange accumulates output rows [lo, hi) of aᵀ*b into c. Output row i
// is Σ_k a[k][i]·b[k]: one mulRow whose multipliers are a's column i, read
// with a's row stride.
func tMulAddRange(a, b, c *Matrix, lo, hi int) {
	n := b.Cols
	if a.Rows == 0 { // nothing to add, and no column i of a to slice from
		return
	}
	for i := lo; i < hi; i++ {
		mulRow(c.Row(i)[:n], a.Data[i:], a.Cols, a.Rows, b.Data, n)
	}
}
