package mat

import (
	"fmt"
	"math"
)

// To32 narrows a float64 matrix into dst (allocated when nil), rounding each
// element to the nearest float32. Weights serialized through the archive
// format are already float32-valued, so narrowing a deserialized decoder is
// exact. Returns dst.
func To32(src *Matrix, dst *Matrix32) *Matrix32 {
	if dst == nil {
		dst = New32(src.Rows, src.Cols)
	}
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("mat: To32 output %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
	return dst
}

// MaxULPDiff32 returns the largest distance, in float32 units-in-last-place,
// between corresponding elements of a and b — the metric the property tests
// use to bound kernel divergence. Infinities and NaNs count as 1<<31 apart
// unless bit-identical; +0 and -0 are 0 apart.
func MaxULPDiff32(a, b *Matrix32) uint32 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.MaxUint32
	}
	var max uint32
	for i, v := range a.Data {
		if d := ulpDiff32(v, b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// ulpDiff32 measures how many representable float32 values separate x and y.
func ulpDiff32(x, y float32) uint32 {
	if x == y {
		return 0 // covers +0 vs -0
	}
	bx, by := math.Float32bits(x), math.Float32bits(y)
	if bx == by {
		return 0
	}
	if math.IsNaN(float64(x)) || math.IsNaN(float64(y)) ||
		math.IsInf(float64(x), 0) || math.IsInf(float64(y), 0) {
		return 1 << 31
	}
	// Map the sign-magnitude bit patterns onto a monotone number line.
	ox, oy := orderedBits32(bx), orderedBits32(by)
	if ox > oy {
		return ox - oy
	}
	return oy - ox
}

func orderedBits32(b uint32) uint32 {
	if b&(1<<31) != 0 {
		return ^b // negative floats: reverse order below the zero point
	}
	return b | 1<<31
}
