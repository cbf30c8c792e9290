package mat

import "fmt"

// The float32 kernel family fixes its dot-product accumulation order so that
// archives under the float32 plan decode identically on every platform
// (DESIGN.md §15): products accumulate into four interleaved partial sums
// (lane j holds terms j, j+4, j+8, …), the k%4 remainder folds into lane 0,
// and the lanes reduce pairwise as (s0+s2) + (s1+s3). mulTRowRef is that
// contract and the only kernel that runs it: no writer emits the float32 plan
// any more, so its archives decode through this portable loop on every
// platform, and the committed f32_v2 golden pins it. Every product is rounded
// to float32 before it is added (the explicit conversions forbid the fused
// multiply-add some targets would otherwise emit).

// mulTRowRef computes crow[o] = dot(arow, b.Row(o)) for every o under the
// fixed 4-lane accumulation order.
func mulTRowRef(arow []float32, b *Matrix32, crow []float32) {
	k := len(arow)
	for o := range crow {
		brow := b.Row(o)
		var s0, s1, s2, s3 float32
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			s0 += float32(arow[kk] * brow[kk])
			s1 += float32(arow[kk+1] * brow[kk+1])
			s2 += float32(arow[kk+2] * brow[kk+2])
			s3 += float32(arow[kk+3] * brow[kk+3])
		}
		for ; kk < k; kk++ {
			s0 += float32(arow[kk] * brow[kk])
		}
		crow[o] = (s0 + s2) + (s1 + s3)
	}
}

// MulTLanesInto32 stops the contract's dot products half way: for every row
// i of a and row o of b it leaves in lanes[i][l·b.Rows+o], l = 0…3, the four
// partial sums after the first a.Cols terms of dot(x, b.Row(o)), x being any
// b.Cols-wide row that starts with a.Row(i). A caller whose x rows share that
// prefix and are zero elsewhere except at one position (the decoder's
// [aux | one-hot] shared-stack input, DESIGN.md §12) finishes each row's dots
// with SumLanes32 instead of multiplying through the zeros. lanes must be
// a.Rows × 4·b.Rows. Portable Go: it runs once per input row, not once per
// (row, column) cell.
func MulTLanesInto32(a, b, lanes *Matrix32) *Matrix32 {
	if a.Cols > b.Cols {
		panic(fmt.Sprintf("mat: MulTLanesInto32 prefix of %d terms over %d-wide rows", a.Cols, b.Cols))
	}
	n := b.Rows
	if lanes.Rows != a.Rows || lanes.Cols != 4*n {
		panic(fmt.Sprintf("mat: MulTLanesInto32 output %dx%d, want %dx%d", lanes.Rows, lanes.Cols, a.Rows, 4*n))
	}
	// Terms below the last whole group of four go to lane k%4, the rest to
	// lane 0; prefix terms reach their lane in ascending k either way.
	whole := min(a.Cols, b.Cols&^3)
	for i := 0; i < a.Rows; i++ {
		arow, lrow := a.Row(i), lanes.Row(i)
		for o := 0; o < n; o++ {
			brow := b.Row(o)[:len(arow)]
			var s0, s1, s2, s3 float32
			k := 0
			for ; k+4 <= whole; k += 4 {
				s0 += float32(arow[k] * brow[k])
				s1 += float32(arow[k+1] * brow[k+1])
				s2 += float32(arow[k+2] * brow[k+2])
				s3 += float32(arow[k+3] * brow[k+3])
			}
			s := [4]float32{s0, s1, s2, s3}
			for ; k < whole; k++ {
				s[k&3] += float32(arow[k] * brow[k])
			}
			for ; k < len(arow); k++ {
				s[0] += float32(arow[k] * brow[k])
			}
			lrow[o], lrow[n+o], lrow[2*n+o], lrow[3*n+o] = s[0], s[1], s[2], s[3]
		}
	}
	return lanes
}

// SumLanes32 finishes one row of the dots MulTLanesInto32 started against a
// b of cols columns, for an input row whose only other non-zero term is a 1
// at position pos: w[o], which is b[o][pos] — the caller gathers the column
// once, not once per row — joins the lane the contract assigns pos, and the
// lanes reduce as (s0+s2) + (s1+s3) into dst[o]. The row's zero terms
// contribute ±0 products, which leave a lane unchanged when the weights are
// finite (a lane starts at +0 and so is never −0).
func SumLanes32(lrow, w []float32, pos, cols int, dst []float32) {
	n := len(dst)
	if len(lrow) != 4*n || len(w) != n || pos >= cols {
		panic(fmt.Sprintf("mat: SumLanes32 over %d lane sums, %d weights, %d outputs, term %d of %d",
			len(lrow), len(w), len(dst), pos, cols))
	}
	lane := 0
	if pos < cols&^3 {
		lane = pos & 3
	}
	// Addition commutes bit for bit (NaN payloads aside, which nothing
	// downstream reads), so every lane shares one expression: its own pair
	// first, the other pair second.
	plane := func(l int) []float32 { return lrow[l*n:][:n] }
	own, pair, o1, o2 := plane(lane), plane(lane^2), plane(lane^1), plane(lane^3)
	for o := range dst {
		dst[o] = ((own[o] + w[o]) + pair[o]) + (o1[o] + o2[o])
	}
}
