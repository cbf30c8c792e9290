package mat

import "fmt"

// Packed is a weight matrix regrouped for the AVX x·Wᵀ kernel: its rows — the
// outputs — in panels of four, zero-padded, each panel laid out [k][4] so
// that the k-th weights of four outputs are one contiguous load. It is a copy:
// whoever holds one packs again after the weights move (Pack reuses the
// storage), and nothing in this package keeps one between calls. Without the
// kernel nothing is copied and the portable loop reads the matrix itself.
type Packed struct {
	w    Matrix    // the matrix as given to Pack
	data []float64 // under AVX, ⌈w.Rows/4⌉ panels of w.Cols × 4
}

// Pack points p at w, copying its weights into panels where the AVX kernel
// will read them, and returns p.
func (p *Packed) Pack(w *Matrix) *Packed {
	p.w = *w
	if !useAVX {
		return p
	}
	k := w.Cols
	n := (w.Rows + 3) / 4 * 4 * k
	if cap(p.data) < n {
		p.data = make([]float64, n)
	}
	p.data = p.data[:n]
	for j := 0; j < w.Rows; j += 4 {
		packPanel(p.data[j*k:][:4*k], w, j)
	}
	return p
}

// packPanel writes rows [j, j+4) of w into panel as [k][4], zeros standing in
// for rows past w's last.
func packPanel(panel []float64, w *Matrix, j int) {
	for l := 0; l < 4; l++ {
		if j+l >= w.Rows {
			for k := l; k < len(panel); k += 4 {
				panel[k] = 0
			}
			continue
		}
		for k, v := range w.Row(j + l) {
			panel[4*k+l] = v
		}
	}
}

// MulTPackedInto computes c = a·wᵀ for the first c.Cols rows of the packed w
// — a prefix of its outputs reads a prefix of its panels — into the
// caller-owned c, bit-identical to MulTInto against those rows. Serial and
// allocation-free unless pool is set, which splits a large product across
// rows of a over the shared pool as MulTPoolInto does. Returns c.
func MulTPackedInto(a *Matrix, w *Packed, c *Matrix, pool bool) *Matrix {
	if a.Cols != w.w.Cols || c.Rows != a.Rows || c.Cols > w.w.Rows {
		panic(fmt.Sprintf("mat: MulTPackedInto %dx%d * (packed %dx%d)ᵀ into %dx%d", a.Rows, a.Cols, w.w.Rows, w.w.Cols, c.Rows, c.Cols))
	}
	work := a.Rows * a.Cols * c.Cols
	if !pool || !fansOut(a.Rows, work) {
		mulT(a, &w.w, w.data, c, 0, a.Rows)
		return c
	}
	parallelRows(a.Rows, work, func(lo, hi int) {
		mulT(a, &w.w, w.data, c, lo, hi)
	})
	return c
}

// maxStackK is the widest input mulT packs on its stack (8 KB of scratch).
const maxStackK = 256

var laneMasks = [5][4]int64{1: {-1}, 2: {-1, -1}, 3: {-1, -1, -1}, 4: {-1, -1, -1, -1}}

// mulT writes rows [lo, hi) of a·bᵀ, b's first c.Cols rows, into c: a panel
// at a time through the AVX kernel where the CPU has it, through mulTRange
// elsewhere. The panels are packed's; a b nobody packed (nil) is packed here,
// into stack scratch, when there are rows enough to pay for it.
func mulT(a, b *Matrix, packed []float64, c *Matrix, lo, hi int) {
	k, n := a.Cols, c.Cols
	if !useAVX || k == 0 || hi <= lo || packed == nil && (hi-lo < 4 || k > maxStackK) {
		v := b.SliceRows(0, n)
		mulTRange(a, &v, c, lo, hi)
		return
	}
	var panel []float64
	if packed == nil {
		var stack [4 * maxStackK]float64 // zeroed here, not on the packed path
		panel = stack[:4*k]
	}
	for j := 0; j < n; j += 4 {
		if packed != nil {
			panel = packed[j*k:][:4*k]
		} else {
			packPanel(panel, b, j)
		}
		mulTPanelAVX(&a.Data[lo*k], hi-lo, k, &panel[0], &c.Data[lo*n+j], n, &laneMasks[min(4, n-j)])
	}
}
