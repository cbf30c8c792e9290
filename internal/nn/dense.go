package nn

import (
	"fmt"
	"math/rand"

	"deepsqueeze/internal/mat"
)

// Dense is a fully connected layer Y = act(X·Wᵀ + b) over row-major batches
// (rows are tuples). Weights are stored out×in so each output node's weights
// are contiguous.
type Dense struct {
	In, Out int
	Act     Activation
	W       *mat.Matrix // Out×In
	B       []float64   // Out

	// Gradient accumulators, filled by Backward and consumed by optimizers.
	GradW *mat.Matrix
	GradB []float64

	// Cached forward-pass state for backprop.
	lastIn  *mat.Matrix
	lastOut *mat.Matrix
	// pack is W packed for the kernel by the value's owner: once, for a
	// decoder's final weights (Decoder.pack); again whenever W moves, for the
	// trainer's replicas and the scorer's. nil reads W.
	pack *mat.Packed
}

// NewDense constructs a layer with activation-appropriate initialization.
func NewDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: dense dims %d→%d", in, out))
	}
	var w *mat.Matrix
	if act == ReLU {
		w = mat.HeUniform(rng, out, in)
	} else {
		w = mat.GlorotUniform(rng, out, in)
	}
	return &Dense{
		In: in, Out: out, Act: act,
		W: w, B: make([]float64, out),
		GradW: mat.New(out, in), GradB: make([]float64, out),
	}
}

// Forward computes the layer output for a batch x (rows×In) and caches the
// values Backward needs.
func (d *Dense) Forward(x *mat.Matrix) *mat.Matrix { return d.forward(nil, x) }

// forward is Forward drawing its output from ar (nil ar allocates fresh).
func (d *Dense) forward(ar *mat.Arena, x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense forward input %d cols, want %d", x.Cols, d.In))
	}
	out := ar.GetUncleared(x.Rows, d.Out) // every element is the product's
	if d.pack != nil {
		mat.MulTPackedInto(x, d.pack, out, false)
	} else {
		mat.MulTInto(x, d.W, out)
	}
	d.biasAct(out)
	d.lastIn, d.lastOut = x, out
	return out
}

// Infer computes the layer output without caching backprop state, for
// inference paths that must not disturb training caches.
func (d *Dense) Infer(x *mat.Matrix) *mat.Matrix { return d.infer(nil, x) }

// infer is Infer drawing its output from ar (nil ar allocates fresh).
func (d *Dense) infer(ar *mat.Arena, x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense infer input %d cols, want %d", x.Cols, d.In))
	}
	out := ar.GetUncleared(x.Rows, d.Out) // every element is the product's
	if d.pack != nil {
		mat.MulTPackedInto(x, d.pack, out, true)
	} else {
		mat.MulTPoolInto(x, d.W, out)
	}
	d.biasAct(out)
	return out
}

// biasAct finishes a pre-activation x·Wᵀ in place: add the bias, apply the
// activation — under ReLU both in one pass (mat.AddReLU).
func (d *Dense) biasAct(out *mat.Matrix) {
	if d.Act == ReLU {
		for i := 0; i < out.Rows; i++ {
			mat.AddReLU(out.Row(i), d.B)
		}
		return
	}
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d.B[j]
		}
	}
	d.Act.apply(out)
}

// firstOutputs returns an inference-only view of the layer restricted to its
// first n output units, sharing d's parameters: rows of W are contiguous, so
// the shared categorical output layer serves a column of cardinality n
// without evaluating the units past it.
func (d *Dense) firstOutputs(n int) *Dense {
	w := d.W.SliceRows(0, n)
	return &Dense{In: d.In, Out: n, Act: d.Act, W: &w, B: d.B[:n], pack: d.pack}
}

// firstOutputsTrain is firstOutputs for the training pass: the view also
// shares the gradient accumulators of its n units, so a forward/backward
// through it trains exactly the rows of the layer a column of cardinality n
// reaches and leaves the rest untouched.
func (d *Dense) firstOutputsTrain(n int) *Dense {
	v := d.firstOutputs(n)
	gw := d.GradW.SliceRows(0, n)
	v.GradW, v.GradB = &gw, d.GradB[:n]
	return v
}

// Backward takes ∂L/∂out (same shape as the last Forward output), adds this
// batch's weight gradients into GradW/GradB, and returns ∂L/∂in. The caller
// may mutate grad.
func (d *Dense) Backward(grad *mat.Matrix) *mat.Matrix { return d.backward(nil, grad) }

// backward is Backward drawing ∂L/∂in from ar (nil ar allocates fresh). The
// weight gradient accumulates straight into GradW without an intermediate
// product matrix.
func (d *Dense) backward(ar *mat.Arena, grad *mat.Matrix) *mat.Matrix {
	if d.lastIn == nil {
		panic("nn: Backward before Forward")
	}
	if grad.Rows != d.lastOut.Rows || grad.Cols != d.Out {
		panic(fmt.Sprintf("nn: dense backward grad %dx%d, want %dx%d", grad.Rows, grad.Cols, d.lastOut.Rows, d.Out))
	}
	d.Act.backprop(grad, d.lastOut)
	// dW += gradᵀ · x ; db += column sums of grad ; dX = grad · W
	mat.TMulAddInto(grad, d.lastIn, d.GradW)
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j, v := range row {
			d.GradB[j] += v
		}
	}
	return mat.MulInto(grad, d.W, ar.GetUncleared(grad.Rows, d.In)) // MulInto zeroes it
}

// ZeroGrad clears the gradient accumulators.
func (d *Dense) ZeroGrad() {
	d.GradW.Zero()
	for i := range d.GradB {
		d.GradB[i] = 0
	}
}

// ParamCount returns the number of scalar parameters.
func (d *Dense) ParamCount() int { return d.In*d.Out + d.Out }

// Quantize32 rounds every parameter to float32 precision in place. The
// compressor calls this before materialization so that the predictions used
// to compute failures are exactly reproducible from the serialized
// (float32) decoder.
func (d *Dense) Quantize32() {
	for i, v := range d.W.Data {
		d.W.Data[i] = float64(float32(v))
	}
	for i, v := range d.B {
		d.B[i] = float64(float32(v))
	}
}

// Clone returns a deep copy of the layer's parameters (gradients and caches
// are fresh).
func (d *Dense) Clone() *Dense {
	c := &Dense{
		In: d.In, Out: d.Out, Act: d.Act,
		W: d.W.Clone(), B: append([]float64(nil), d.B...),
		GradW: mat.New(d.Out, d.In), GradB: make([]float64, d.Out),
	}
	return c
}

// replica returns a layer sharing d's parameters (W and B alias d's memory)
// with forward caches, pack and gradient accumulators of its own — none until
// its holder gives it some; nil for a nil d. Data-parallel training runs each
// minibatch shard through a replica: reads of the shared weights are
// concurrent-safe because the optimizer only steps between batches, while
// gradients accumulate privately and are reduced afterwards.
func (d *Dense) replica() *Dense {
	if d == nil {
		return nil
	}
	return &Dense{In: d.In, Out: d.Out, Act: d.Act, W: d.W, B: d.B}
}
