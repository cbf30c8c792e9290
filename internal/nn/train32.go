package nn

import (
	"math"

	"deepsqueeze/internal/mat"
)

// Mixed-precision training (TrainOptions.Float32, DESIGN.md §15).
//
// The float64 parameters stay the masters: the optimizer state, gradient
// clipping, and the binary-tree reduction in train.go are untouched. What
// changes is the per-shard forward/backward pass: each shard runs accumBatch
// arithmetic through float32 kernels against a shared float32 copy of the
// weights, narrowed once per batch (the masters are read-only while shards
// run, so one copy serves every shard), and folds its float32 gradient
// accumulators into its replica's float64 accumulators before the reduction.
// Element-wise loss terms and transcendentals stay float64, widened per
// element, exactly like the float32 decode path. Because the shard partition,
// the per-shard fold, and the reduction order all remain pure functions of
// the row count, Float32 training keeps the Workers bit-identity contract —
// just under float32 rounding of the linear algebra.

// ae32 is one shard's float32 training view of an autoencoder: layers alias
// the trainer's shared narrowed weights and own private float32 gradients and
// forward caches. Field order mirrors Autoencoder; layers matches the
// AllLayers order so gradients fold positionally.
type ae32 struct {
	src          *Autoencoder
	encoder      []*Dense32
	hidden       []*Dense32
	headNum      *Dense32
	aux          *Dense32
	sharedHidden *Dense32
	shared       *Dense32
	layers       []*Dense32
	cuts         []*Dense32 // shared cut to each categorical column's cardinality, gradients included
}

// newAE32 builds a shard view over the trainer's shared weight set, which
// must be parallel to src.AllLayers().
func newAE32(src *Autoencoder, sharedW []*Dense32) *ae32 {
	a := &ae32{src: src}
	i := 0
	next := func() *Dense32 {
		s := sharedW[i]
		i++
		l := &Dense32{
			In: s.In, Out: s.Out, Act: s.Act,
			W: s.W, B: s.B, // shared, refreshed per batch by the trainer
			GradW: mat.New32(s.Out, s.In), GradB: make([]float32, s.Out),
		}
		a.layers = append(a.layers, l)
		return l
	}
	for range src.Encoder {
		a.encoder = append(a.encoder, next())
	}
	for range src.Hidden {
		a.hidden = append(a.hidden, next())
	}
	if src.HeadNum != nil {
		a.headNum = next()
	}
	if src.Aux != nil {
		a.aux = next()
	}
	if src.SharedHidden != nil {
		a.sharedHidden = next()
	}
	if src.Shared != nil {
		a.shared = next()
		for _, card := range src.cardOf {
			cut := a.shared.firstOutputs(card)
			gw := a.shared.GradW.SliceRows(0, card)
			cut.GradW, cut.GradB = &gw, a.shared.GradB[:card]
			a.cuts = append(a.cuts, cut)
		}
	}
	return a
}

// forward32 is the training forward pass: like infer but caching the values
// backward32 needs.
func (d *Dense32) forward32(ar *mat.Arena32, x *mat.Matrix32) *mat.Matrix32 {
	out := ar.Get(x.Rows, d.Out)
	mat.MulTInto32(x, d.W, out)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d.B[j]
		}
	}
	d.Act.apply32(out)
	d.lastIn, d.lastOut = x, out
	return out
}

// backward32 takes ∂L/∂out, adds this batch's gradients into GradW/GradB,
// and returns ∂L/∂in; float32 twin of Dense.backward.
func (d *Dense32) backward32(ar *mat.Arena32, grad *mat.Matrix32) *mat.Matrix32 {
	d.Act.backprop32(grad, d.lastOut)
	mat.TMulAddInto32(grad, d.lastIn, d.GradW)
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j, v := range row {
			d.GradB[j] += v
		}
	}
	dx := ar.Get(grad.Rows, d.In)
	return mat.MulInto32(grad, d.W, dx)
}

// accumBatch is the float32 twin of Autoencoder.accumBatch: one shard's
// forward/backward pass with float32 linear algebra, float64 element-wise
// loss math, gradients accumulated into the shard's private float32
// accumulators. ar supplies float64 scratch (softmax probabilities), ar32
// everything else. Returns the invB-scaled loss sum.
func (a *ae32) accumBatch(ar *mat.Arena, ar32 *mat.Arena32, x *mat.Matrix, tg *Targets, invB float64) float64 {
	if x.Rows == 0 {
		return 0
	}
	src := a.src
	x32 := ar32.Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		x32.Data[i] = float32(v)
	}
	h := x32
	for _, l := range a.encoder {
		h = l.forward32(ar32, h)
	}
	for _, l := range a.hidden {
		h = l.forward32(ar32, h)
	}

	var loss float64
	dH := ar32.Get(h.Rows, h.Cols)

	if a.headNum != nil {
		z := a.headNum.forward32(ar32, h)
		gz := ar32.Get(z.Rows, z.Cols)
		for r := 0; r < z.Rows; r++ {
			zr, gr := z.Row(r), gz.Row(r)
			for c := 0; c < src.numCols; c++ {
				y := 1 / (1 + math.Exp(-float64(zr[c])))
				t := tg.Num.At(r, c)
				diff := y - t
				loss += diff * diff * invB
				gr[c] = float32(2 * diff * y * (1 - y) * invB)
			}
			for c := 0; c < src.binCols; c++ {
				p := 1 / (1 + math.Exp(-float64(zr[src.numCols+c])))
				t := tg.Bin.At(r, c)
				loss += bce(p, t) * invB
				gr[src.numCols+c] = float32((p - t) * invB)
			}
		}
		mat.AddInPlace32(dH, a.headNum.backward32(ar32, gz))
	}

	if a.aux != nil {
		dAux, catLoss := a.sharedStep(ar, ar32, a.aux.forward32(ar32, h), tg.Cat, invB)
		loss += catLoss
		mat.AddInPlace32(dH, a.aux.backward32(ar32, dAux))
	}

	g := dH
	for i := len(a.hidden) - 1; i >= 0; i-- {
		g = a.hidden[i].backward32(ar32, g)
	}
	for i := len(a.encoder) - 1; i >= 0; i-- {
		g = a.encoder[i].backward32(ar32, g)
	}
	return loss
}

// sharedStep is the float32 twin of Autoencoder.sharedStep: the same
// accumulations in the same order, the softmax and loss terms in float64. Its
// forward half is Decoder32.Predictor's: 4-lane partial sums of aux·W_auxᵀ
// once per shard, finished per column by signalHidden.
func (a *ae32) sharedStep(ar *mat.Arena, ar32 *mat.Arena32, aux *mat.Matrix32, targets [][]int, invB float64) (*mat.Matrix32, float64) {
	sh, cc, rows := a.sharedHidden, a.src.catCols, aux.Rows
	wAux := ar32.Get(sh.Out, cc)
	for o := 0; o < sh.Out; o++ {
		copy(wAux.Row(o), sh.W.Row(o)[:cc])
	}
	lanes := mat.MulTLanesInto32(aux, sh.W, ar32.Get(rows, 4*sh.Out))
	signal := ar32.Get(cc, sh.Out)
	signalRows(sh.W.Data, sh.In, sh.Out, cc, signal.Data)
	hid, d, sum := ar32.Get(rows, sh.Out), ar32.Get(rows, sh.Out), ar32.Get(1, sh.Out).Data
	var loss float64
	for j, cut := range a.cuts {
		sh.signalHidden(lanes, signal.Row(j), cc+j, hid)
		g := mat.To64(cut.forward32(ar32, hid), ar.Get(rows, cut.Out))
		loss += softmaxGrad(g, targets[j], invB)
		dj := cut.backward32(ar32, mat.To32(g, ar32.Get(rows, cut.Out)))
		sh.Act.backprop32(dj, hid)
		foldColumn(dj.Data, d.Data, sum, sh.GradW.Data[cc+j:], sh.In, sh.GradB)
	}
	gAux := mat.TMulInto32(d, aux, ar32.Get(sh.Out, cc))
	for o := 0; o < sh.Out; o++ {
		gw := sh.GradW.Row(o)
		for c, v := range gAux.Row(o) {
			gw[c] += v
		}
	}
	return mat.MulInto32(d, wAux, ar32.Get(rows, cc)), loss
}

// foldInto widens the shard's float32 gradient accumulators into the given
// float64 layers (the shard's replica, positionally parallel) and zeroes the
// float32 side, restoring the all-grads-zero invariant between batches.
func (a *ae32) foldInto(layers []*Dense) {
	for li, l32 := range a.layers {
		l := layers[li]
		for i, v := range l32.GradW.Data {
			l.GradW.Data[i] += float64(v)
		}
		l32.GradW.Zero()
		for i, v := range l32.GradB {
			l.GradB[i] += float64(v)
			l32.GradB[i] = 0
		}
	}
}

// ensure32 builds the shared narrowed weight set and each shard's float32
// view, lazily like ensure.
func (t *trainer) ensure32(ns int) {
	if t.shared32 == nil {
		t.shared32 = make([]*Dense32, len(t.layers))
		for i, l := range t.layers {
			t.shared32[i] = &Dense32{
				In: l.In, Out: l.Out, Act: l.Act,
				W: mat.New32(l.Out, l.In), B: make([]float32, l.Out),
			}
		}
	}
	for _, s := range t.shards[:ns] {
		if s.rep32 == nil {
			s.rep32 = newAE32(t.model, t.shared32)
			s.ar32 = &mat.Arena32{}
		}
	}
}

// refresh32 narrows the float64 master weights into the shared float32 set.
// Called once per batch, before the shard fan-out: the masters only move when
// the optimizer steps, which happens strictly between batches.
func (t *trainer) refresh32() {
	for i, l := range t.layers {
		s := t.shared32[i]
		mat.To32(l.W, s.W)
		for j, v := range l.B {
			s.B[j] = float32(v)
		}
	}
}
