package mat

import "fmt"

// The float32 Into-kernels mirror the float64 family in mul.go: identical
// loop orders, identical 4-wide register blocking, identical deterministic
// accumulation order. Property tests in mat32_test.go pin each kernel to its
// float64 twin under the tolerance model documented in DESIGN.md §15, and the
// matching loop structure is what makes that tolerance tight: both widths add
// the same products in the same order — each rounded before it is added, the
// explicit conversions — so divergence is pure rounding, never reassociation.
//
// Accumulation happens in float32 (not widened to float64 per element) on
// purpose — keeping the arithmetic width equal to the storage width is what
// lets the compiler keep four lanes in registers, and the inner dimensions
// here (code size 1-4 up to hidden widths of a few hundred) are far too small
// for float32 error growth (~k·ulp for a k-term dot product) to approach the
// failure thresholds the archive format quantizes against.

// MulInto32 computes c = a*b into the caller-owned c, which must be a.Rows ×
// b.Cols and must not alias a or b. Serial and allocation-free; returns c.
func MulInto32(a, b, c *Matrix32) *Matrix32 {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulInto32 dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto32 output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	c.Zero()
	mulAddRange32(a, b, c, 0, a.Rows)
	return c
}

// mulAddRange32 accumulates rows [lo, hi) of a*b into c; float32 twin of
// mulAddRange (ikj order, middle loop unrolled four-wide over k).
func mulAddRange32(a, b, c *Matrix32, lo, hi int) {
	n := b.Cols
	kc := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)[:n]
		k := 0
		for ; k+4 <= kc; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := b.Data[k*n : k*n+n]
			b1 := b.Data[(k+1)*n : (k+1)*n+n]
			b2 := b.Data[(k+2)*n : (k+2)*n+n]
			b3 := b.Data[(k+3)*n : (k+3)*n+n]
			for j, bv := range b0 {
				crow[j] += float32(a0*bv) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; k < kc; k++ {
			av := arow[k]
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}

// MulTInto32 computes c = a*bᵀ into the caller-owned c, which must be a.Rows ×
// b.Rows and must not alias a or b. Serial and allocation-free; returns c.
func MulTInto32(a, b, c *Matrix32) *Matrix32 {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTInto32 dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTInto32 output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	mulTRange32(a, b, c, 0, a.Rows)
	return c
}

// mulTRange32 writes rows [lo, hi) of a*bᵀ into c. Unlike the other three
// kernels this one does not mirror its float64 twin's accumulation order: it
// is the decode hot path (every Dense32 inference is an x·Wᵀ), so each output
// row goes through mulTRow32 — the packed-SSE dot kernel on amd64, the
// portable 4-lane loop elsewhere — under the fixed lane contract documented
// in dot32_ref.go. The contract is part of the archive format: float32-plan
// failure streams are computed against it, so it can never change.
func mulTRange32(a, b, c *Matrix32, lo, hi int) {
	kc := a.Cols
	for i := lo; i < hi; i++ {
		mulTRow32(a.Row(i)[:kc], b, c.Row(i)[:b.Rows])
	}
}

// TMulInto32 computes c = aᵀ*b into the caller-owned c, which must be a.Cols ×
// b.Cols and must not alias a or b. Serial and allocation-free; returns c.
func TMulInto32(a, b, c *Matrix32) *Matrix32 {
	c.Zero()
	return TMulAddInto32(a, b, c)
}

// TMulAddInto32 accumulates aᵀ*b into the caller-owned c — the float32
// backward pass's `GradW += gradᵀ·x`. Serial and allocation-free; returns c.
func TMulAddInto32(a, b, c *Matrix32) *Matrix32 {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: TMulAddInto32 dimension mismatch (%dx%d)ᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: TMulAddInto32 output %dx%d, want %dx%d", c.Rows, c.Cols, a.Cols, b.Cols))
	}
	tMulAddRange32(a, b, c, 0, a.Cols)
	return c
}

// tMulAddRange32 accumulates output rows [lo, hi) of aᵀ*b into c; float32
// twin of tMulAddRange (k loop unrolled four-wide, strided loads from a's
// column i).
func tMulAddRange32(a, b, c *Matrix32, lo, hi int) {
	n := b.Cols
	m := a.Cols
	for i := lo; i < hi; i++ {
		crow := c.Row(i)[:n]
		k := 0
		for ; k+4 <= a.Rows; k += 4 {
			a0 := a.Data[k*m+i]
			a1 := a.Data[(k+1)*m+i]
			a2 := a.Data[(k+2)*m+i]
			a3 := a.Data[(k+3)*m+i]
			b0 := b.Data[k*n : k*n+n]
			b1 := b.Data[(k+1)*n : (k+1)*n+n]
			b2 := b.Data[(k+2)*n : (k+2)*n+n]
			b3 := b.Data[(k+3)*n : (k+3)*n+n]
			for j, bv := range b0 {
				crow[j] += float32(a0*bv) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; k < a.Rows; k++ {
			av := a.Data[k*m+i]
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				crow[j] += float32(av * bv)
			}
		}
	}
}
