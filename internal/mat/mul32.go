package mat

import "fmt"

// The float32 family is inference only: x·Wᵀ under the fixed 4-lane dot
// contract of dot32_ref.go, whole (MulTInto32) or stopped half way for the
// factored shared stack (MulTLanesInto32, SumLanes32). Accumulation happens
// in float32 (not widened to float64 per element) on purpose — keeping the
// arithmetic width equal to the storage width is what lets four lanes stay in
// registers, and the inner dimensions here (code size 1-4 up to hidden widths
// of a few hundred) are far too small for float32 error growth (~k·ulp for a
// k-term dot product) to approach the failure thresholds the archive format
// quantizes against. Property tests in mat32_test.go pin the kernel to its
// float64 counterpart under the tolerance model of DESIGN.md §15.

// MulTInto32 computes c = a*bᵀ into the caller-owned c, which must be a.Rows ×
// b.Rows and must not alias a or b. Serial and allocation-free; returns c.
//
// Every Dense32 inference is one of these, so each output row goes through
// mulTRowRef, the portable 4-lane loop, on every platform. The lane contract
// is part of the archive format: float32-plan failure streams were computed
// against it, so it can never change.
func MulTInto32(a, b, c *Matrix32) *Matrix32 {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTInto32 dimension mismatch %dx%d * (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTInto32 output %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		mulTRowRef(a.Row(i), b, c.Row(i))
	}
	return c
}
