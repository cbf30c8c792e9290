package nn

import (
	"fmt"

	"deepsqueeze/internal/mat"
)

// Float32 decode path (DESIGN.md §15).
//
// Decoder32 is a float32 view of a Decoder: every matmul — the decode hot
// path's entire memory-bandwidth bill — runs through the float32 kernel
// family in internal/mat, while the final per-element activations (sigmoid,
// softmax) widen the float32 logits to float64 and evaluate the math-library
// transcendental exactly as the float64 path does. The outputs are therefore
// ordinary float64 Predictions: consumers (failure computation, decode
// application) are width-agnostic, and the only divergence from the float64
// path is rounding of the linear algebra, never a different approximation.
//
// Decoder parameters are float32-valued on both sides of the archive boundary
// (Quantize32 before materialization, float32 serialization), so narrowing a
// decoder's weights is exact — a Decoder32 computes with the same parameter
// values as its source, at half the operand width.

// Dense32 is a float32 view of a Dense layer: weights only, for inference.
type Dense32 struct {
	In, Out int
	Act     Activation
	W       *mat.Matrix32 // Out×In, narrowed from the source layer
	B       []float32
}

// newDense32 narrows a layer's parameters into a fresh Dense32. Narrowing is exact for float32-valued parameters (see Quantize32).
func newDense32(d *Dense) *Dense32 {
	b := make([]float32, len(d.B))
	for i, v := range d.B {
		b[i] = float32(v)
	}
	return &Dense32{In: d.In, Out: d.Out, Act: d.Act, W: mat.To32(d.W, nil), B: b}
}

// infer computes act(x·Wᵀ + b) into ar scratch. Allocation-free once the
// arena is warm.
func (d *Dense32) infer(ar *mat.Arena32, x *mat.Matrix32) *mat.Matrix32 {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense32 infer input %d cols, want %d", x.Cols, d.In))
	}
	out := mat.MulTInto32(x, d.W, ar.GetUncleared(x.Rows, d.Out)) // every element is the product's
	d.biasAct(out)
	return out
}

// biasAct finishes a pre-activation x·Wᵀ in place: add the bias, apply the
// activation.
func (d *Dense32) biasAct(out *mat.Matrix32) {
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d.B[j]
		}
	}
	d.Act.apply32(out)
}

// firstOutputs is the float32 twin of Dense.firstOutputs: an inference-only
// view of the layer's first n output units.
func (d *Dense32) firstOutputs(n int) *Dense32 {
	w := d.W.SliceRows(0, n)
	return &Dense32{In: d.In, Out: n, Act: d.Act, W: &w, B: d.B[:n]}
}

// signalHidden is the float32 twin of Dense.signalHidden. lanes holds the
// 4-lane partial sums of the batch's product with the auxiliary weights
// (mat.MulTLanesInto32); w, the weights at input pos (signalRows), join their
// lane before the reduction, row by row so that the bias and activation pass
// finds the row in cache.
func (d *Dense32) signalHidden(lanes *mat.Matrix32, w []float32, pos int, hid *mat.Matrix32) {
	bias := d.B[:d.Out]
	fused := d.Act == ReLU
	for r := 0; r < lanes.Rows; r++ {
		hr := hid.Row(r)[:d.Out]
		mat.SumLanes32(lanes.Row(r), w, pos, d.In, hr)
		for o, v := range hr {
			v += bias[o]
			if fused {
				v = relu32(v)
			}
			hr[o] = v
		}
	}
	if !fused {
		d.Act.apply32(hid)
	}
}

// Decoder32 is the float32 inference view of a Decoder. It shares the source
// decoder's column indexes (read-only) and owns narrowed copies of its
// parameters. Safe for concurrent use: per-call memory lives in the caller's
// Scratch, never on the Decoder32.
type Decoder32 struct {
	src     *Decoder
	Hidden  []*Dense32
	HeadNum *Dense32
	Aux     *Dense32

	SharedHidden *Dense32
	Shared       *Dense32
	cuts         []*Dense32    // Shared cut to each categorical position's cardinality
	signal       *mat.Matrix32 // signalRows of SharedHidden
}

// Float32 builds the decoder's float32 inference view.
func (d *Decoder) Float32() *Decoder32 {
	d32 := &Decoder32{src: d}
	for _, l := range d.Hidden {
		d32.Hidden = append(d32.Hidden, newDense32(l))
	}
	if d.HeadNum != nil {
		d32.HeadNum = newDense32(d.HeadNum)
	}
	if d.Aux != nil {
		d32.Aux = newDense32(d.Aux)
	}
	if d.SharedHidden != nil {
		sh := newDense32(d.SharedHidden)
		d32.SharedHidden, d32.signal = sh, mat.New32(d.catCols, sh.Out)
		signalRows(sh.W.Data, sh.In, sh.Out, d.catCols, d32.signal.Data)
	}
	if d.Shared != nil {
		d32.Shared = newDense32(d.Shared)
		for _, card := range d.cardOf {
			d32.cuts = append(d32.cuts, d32.Shared.firstOutputs(card))
		}
	}
	return d32
}

// Decoders32 narrows a slice of decoders, preserving order. Nil entries stay
// nil.
func Decoders32(ds []*Decoder) []*Decoder32 {
	out := make([]*Decoder32, len(ds))
	for i, d := range ds {
		if d != nil {
			out[i] = d.Float32()
		}
	}
	return out
}

// Source returns the float64 decoder this view was narrowed from.
func (d *Decoder32) Source() *Decoder { return d.src }

// PredictInto is the float32 twin of Decoder.PredictInto, over the same
// Scratch: matmuls in float32 (its float32 arena), activations widened to
// float64, outputs ordinary Predictions (its float64 arena).
//
// The shared stack is factored as in Decoder.PredictInto. Under the 4-lane
// dot contract the auxiliary part of SharedHidden's pre-activation is four
// partial sums per (row, unit), computed once per batch; each wanted column
// adds its signal weight to the lane its one-hot position falls in and
// reduces — bit-identical to the stacked product (DESIGN.md §12).
func (d *Decoder32) PredictInto(s *Scratch, codes *mat.Matrix, want []bool) *Predictions {
	src := d.src
	if codes.Cols != src.CodeSize {
		panic(fmt.Sprintf("nn: predict with %d-wide codes, want %d", codes.Cols, src.CodeSize))
	}
	p, numBin := s.begin(src, want)
	ar, outAr, b := &s.ar32, &s.ar, codes.Rows
	h := ar.GetUncleared(b, codes.Cols)
	for i, v := range codes.Data {
		h.Data[i] = float32(v)
	}
	for _, l := range d.Hidden {
		h = l.infer(ar, h)
	}
	if numBin && src.numCols+src.binCols > 0 {
		p.Num, p.Bin = outAr.GetUncleared(b, src.numCols), outAr.GetUncleared(b, src.binCols)
		sigmoidHead(d.HeadNum.infer(ar, h).Data, p.Num, p.Bin)
	} else {
		p.Num, p.Bin = outAr.Get(b, 0), outAr.Get(b, 0)
	}
	if len(s.cats) > 0 {
		sh := d.SharedHidden
		lanes := mat.MulTLanesInto32(d.Aux.infer(ar, h), sh.W, ar.GetUncleared(b, 4*sh.Out))
		hid := ar.GetUncleared(b, sh.Out)
		for _, j := range s.cats {
			sh.signalHidden(lanes, d.signal.Row(j), src.catCols+j, hid)
			logits := d.cuts[j].infer(ar, hid)
			probs := outAr.GetUncleared(b, logits.Cols)
			for i, v := range logits.Data {
				probs.Data[i] = float64(v)
			}
			Softmax(probs, probs.Cols)
			p.Cat[j] = probs
		}
	}
	return p
}

// PredictCols is PredictInto for callers that keep no scratch.
func (d *Decoder32) PredictCols(codes *mat.Matrix, want []bool) *Predictions {
	return d.PredictInto(new(Scratch), codes, want)
}

// Predict decodes a batch of codes into predictions for every column.
func (d *Decoder32) Predict(codes *mat.Matrix) *Predictions {
	return d.PredictCols(codes, nil)
}
