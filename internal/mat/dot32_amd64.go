//go:build amd64 && !noasm

package mat

// mulTRowSSE is the packed-SSE implementation of the fixed 4-lane dot
// contract (see dot32_ref.go): dst[o] = dot(a[0:k], b[o*k:(o+1)*k]) for o in
// [0, rows). SSE is baseline on amd64, so no feature detection is needed,
// and the lane/reduction order matches mulTRowRef bit for bit.
//
//go:noescape
func mulTRowSSE(a *float32, k int, b *float32, rows int, dst *float32)

// mulTRow32 dispatches one output row of MulTInto32 to the SSE kernel.
func mulTRow32(arow []float32, b *Matrix32, crow []float32) {
	if len(crow) == 0 {
		return
	}
	if len(arow) == 0 {
		for j := range crow {
			crow[j] = 0
		}
		return
	}
	mulTRowSSE(&arow[0], len(arow), &b.Data[0], b.Rows, &crow[0])
}
