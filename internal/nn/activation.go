// Package nn is a from-scratch neural-network substrate sized for
// DeepSqueeze's models: dense layers, the activations and losses the paper
// uses, SGD/Adam optimizers, full backpropagation, a mixed-type autoencoder
// with a parameter-sharing categorical output head (paper §5.1), and a
// sparsely-gated mixture of experts (paper §5.2). Training is float64 only;
// inference exists at both widths — Decoder.Predictor, and Decoder32.Predictor
// for archives written under the float32 decode plan (DESIGN.md §15) — and
// everything is deterministic given a seed, which the materialization
// contract relies on.
package nn

import (
	"fmt"
	"math"

	"deepsqueeze/internal/mat"
)

// Activation selects a layer's nonlinearity. Values are part of the model
// serialization format; do not renumber.
type Activation byte

const (
	// Identity applies no nonlinearity.
	Identity Activation = iota
	// ReLU is max(0, x), used in hidden layers.
	ReLU
	// Sigmoid is 1/(1+e^-x), used for code layers (bounded codes), binary
	// outputs, and numeric regression outputs in [0,1].
	Sigmoid
	// Tanh is used for the categorical auxiliary layer.
	Tanh
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("activation(%d)", byte(a))
	}
}

// relu32 is the float32 twin of mat.ReLU.
func relu32(v float32) float32 {
	keep := ^uint32(0)
	if v < 0 {
		keep = 0
	}
	return math.Float32frombits(math.Float32bits(v) & keep)
}

// reluGate is the ReLU derivative applied to a gradient — g where the
// activation's output o is positive, +0 elsewhere — as the same kind of mask.
func reluGate(g, o float64) float64 {
	keep := ^uint64(0)
	if o <= 0 {
		keep = 0
	}
	return math.Float64frombits(math.Float64bits(g) & keep)
}

// apply computes the activation element-wise in place.
func (a Activation) apply(m *mat.Matrix) {
	switch a {
	case Identity:
	case ReLU:
		for i, v := range m.Data {
			m.Data[i] = mat.ReLU(v)
		}
	case Sigmoid:
		sigmoid(m.Data)
	case Tanh:
		mat.Tanh(m.Data)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// backprop scales grad in place by the activation derivative, expressed in
// terms of the activation *output* out (all four supported activations admit
// this form).
func (a Activation) backprop(grad, out *mat.Matrix) {
	switch a {
	case Identity:
	case ReLU:
		for i, o := range out.Data {
			grad.Data[i] = reluGate(grad.Data[i], o)
		}
	case Sigmoid:
		for i, o := range out.Data {
			grad.Data[i] *= o * (1 - o)
		}
	case Tanh:
		for i, o := range out.Data {
			grad.Data[i] *= 1 - float64(o*o)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// sigmoid replaces each x[i] with 1/(1+e^−x[i]) in place, the exponentials
// through mat.Exp's lanes.
func sigmoid(x []float64) {
	for i, v := range x {
		x[i] = -v
	}
	mat.Exp(x)
	for i, e := range x {
		x[i] = 1 / (1 + e)
	}
}

// apply32 computes the activation element-wise in place on a float32 matrix.
// Transcendentals (Sigmoid, Tanh) widen each element to float64, evaluate the
// float64 path's function, and narrow the result: the extra conversion is
// cheap next to the matmuls, and it keeps f32 activations a pure rounding of
// the f64 path rather than a different approximation (DESIGN.md §15
// tolerance model).
func (a Activation) apply32(m *mat.Matrix32) {
	switch a {
	case Identity:
	case ReLU:
		for i, v := range m.Data {
			m.Data[i] = relu32(v)
		}
	case Sigmoid:
		for i, v := range m.Data {
			e := [1]float64{-float64(v)}
			mat.Exp(e[:])
			m.Data[i] = float32(1 / (1 + e[0]))
		}
	case Tanh:
		mat.Tanh(m.Data)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// Softmax replaces each row of m with its softmax over the first width
// columns, leaving any remaining columns untouched. Numerically stabilized
// by max subtraction. The exponentials run across rows — one mat.Exp over the
// whole matrix when width is all of it — since a categorical column's rows are
// a few values wide; each row's sum stays in index order.
func Softmax(m *mat.Matrix, width int) {
	if width <= 0 || width > m.Cols {
		panic(fmt.Sprintf("nn: softmax width %d over %d columns", width, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)[:width]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		for j, v := range row {
			row[j] = v - max
		}
		if width < m.Cols {
			mat.Exp(row)
		}
	}
	if width == m.Cols {
		mat.Exp(m.Data)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)[:width]
		var sum float64
		for _, e := range row {
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}
