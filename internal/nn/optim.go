package nn

import (
	"math"

	"deepsqueeze/internal/mat"
)

var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*Adam)(nil)
)

// Optimizer applies accumulated gradients to a set of layers.
type Optimizer interface {
	// Step updates every layer's parameters from its gradient accumulators
	// and clears the accumulators.
	Step(layers []*Dense)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velW map[*Dense]*mat.Matrix
	velB map[*Dense][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum,
		velW: make(map[*Dense]*mat.Matrix), velB: make(map[*Dense][]float64)}
}

// Step implements Optimizer.
func (o *SGD) Step(layers []*Dense) {
	for _, l := range layers {
		if o.Momentum == 0 {
			for i, g := range l.GradW.Data {
				l.W.Data[i] -= float64(o.LR * g)
			}
			for i, g := range l.GradB {
				l.B[i] -= float64(o.LR * g)
			}
		} else {
			vw, ok := o.velW[l]
			if !ok {
				vw = mat.New(l.Out, l.In)
				o.velW[l] = vw
				o.velB[l] = make([]float64, l.Out)
			}
			vb := o.velB[l]
			for i, g := range l.GradW.Data {
				vw.Data[i] = float64(o.Momentum*vw.Data[i]) - float64(o.LR*g)
				l.W.Data[i] += vw.Data[i]
			}
			for i, g := range l.GradB {
				vb[i] = float64(o.Momentum*vb[i]) - float64(o.LR*g)
				l.B[i] += vb[i]
			}
		}
		l.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the default for DeepSqueeze's
// training loop.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t  int
	mW map[*Dense]*mat.Matrix
	vW map[*Dense]*mat.Matrix
	mB map[*Dense][]float64
	vB map[*Dense][]float64
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		mW: make(map[*Dense]*mat.Matrix), vW: make(map[*Dense]*mat.Matrix),
		mB: make(map[*Dense][]float64), vB: make(map[*Dense][]float64),
	}
}

// Step implements Optimizer.
func (o *Adam) Step(layers []*Dense) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, l := range layers {
		mw, ok := o.mW[l]
		if !ok {
			mw = mat.New(l.Out, l.In)
			o.mW[l] = mw
			o.vW[l] = mat.New(l.Out, l.In)
			o.mB[l] = make([]float64, l.Out)
			o.vB[l] = make([]float64, l.Out)
		}
		vw, mb, vb := o.vW[l], o.mB[l], o.vB[l]
		for i, g := range l.GradW.Data {
			mw.Data[i] = float64(o.Beta1*mw.Data[i]) + float64((1-o.Beta1)*g)
			vw.Data[i] = float64(o.Beta2*vw.Data[i]) + float64((1-o.Beta2)*g*g)
			l.W.Data[i] -= o.LR * (mw.Data[i] / c1) / (math.Sqrt(vw.Data[i]/c2) + o.Eps)
		}
		for i, g := range l.GradB {
			mb[i] = float64(o.Beta1*mb[i]) + float64((1-o.Beta1)*g)
			vb[i] = float64(o.Beta2*vb[i]) + float64((1-o.Beta2)*g*g)
			l.B[i] -= o.LR * (mb[i] / c1) / (math.Sqrt(vb[i]/c2) + o.Eps)
		}
		l.ZeroGrad()
	}
}

// ClipGrads scales every layer's gradient accumulators so their global L2
// norm is at most maxNorm. Returns the pre-clip norm.
func ClipGrads(layers []*Dense, maxNorm float64) float64 {
	var sq float64
	for _, l := range layers {
		for _, g := range l.GradW.Data {
			sq += float64(g * g)
		}
		for _, g := range l.GradB {
			sq += float64(g * g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		s := maxNorm / norm
		for _, l := range layers {
			l.GradW.Scale(s)
			for i := range l.GradB {
				l.GradB[i] *= s
			}
		}
	}
	return norm
}
