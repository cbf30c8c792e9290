// Package bayesopt implements Gaussian-process Bayesian optimization with
// an expected-improvement acquisition function over a discrete candidate
// grid. DeepSqueeze's hyperparameter tuner (paper §5.4, Fig. 5) uses it to
// pick the code size and expert count that minimize compressed output size.
package bayesopt

import (
	"fmt"
	"math"
	"math/rand"
)

// Optimizer minimizes a black-box function over a fixed set of candidate
// points. Coordinates should be roughly normalized (the default length
// scale assumes [0,1]-ish ranges).
type Optimizer struct {
	grid     [][]float64
	observed map[int]bool
	obsIdx   []int
	obsY     []float64

	// LengthScale is the RBF kernel length scale.
	LengthScale float64
	// Noise is the observation noise variance added to the kernel diagonal.
	Noise float64
	// Xi is the exploration margin in the EI acquisition.
	Xi float64

	rng *rand.Rand
}

// New returns an optimizer over the candidate grid.
func New(rng *rand.Rand, grid [][]float64) (*Optimizer, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("bayesopt: empty grid")
	}
	d := len(grid[0])
	for i, p := range grid {
		if len(p) != d {
			return nil, fmt.Errorf("bayesopt: point %d has %d dims, want %d", i, len(p), d)
		}
	}
	return &Optimizer{
		grid:        grid,
		observed:    make(map[int]bool),
		LengthScale: 0.3,
		Noise:       1e-4,
		Xi:          0.01,
		rng:         rng,
	}, nil
}

// Exhausted reports whether every candidate has been observed.
func (o *Optimizer) Exhausted() bool { return len(o.obsIdx) >= len(o.grid) }

// Next proposes the index of the next candidate to evaluate: random among
// the unobserved candidates for the first two trials (the GP needs a prior),
// the one of highest expected improvement afterwards. It panics when every
// candidate has been observed.
func (o *Optimizer) Next() int {
	if o.Exhausted() {
		panic("bayesopt: Next on exhausted grid")
	}
	unseen := make([]int, 0, len(o.grid))
	for i := range o.grid {
		if !o.observed[i] {
			unseen = append(unseen, i)
		}
	}
	if len(o.obsIdx) < 2 {
		return unseen[o.rng.Intn(len(unseen))]
	}
	mu, sigma := o.posterior(unseen)
	// Normalize observations so EI works on a standard scale.
	best := math.Inf(1)
	for _, y := range o.obsY {
		if y < best {
			best = y
		}
	}
	sel, selEI := -1, math.Inf(-1)
	for i := range unseen {
		if ei := expectedImprovement(best, mu[i], sigma[i], o.Xi); ei > selEI {
			selEI, sel = ei, i
		}
	}
	return unseen[sel]
}

// Observe records the objective value for a previously proposed candidate.
func (o *Optimizer) Observe(idx int, y float64) {
	if idx < 0 || idx >= len(o.grid) {
		panic(fmt.Sprintf("bayesopt: observe index %d", idx))
	}
	if o.observed[idx] {
		return // duplicate observations are ignored
	}
	o.observed[idx] = true
	o.obsIdx = append(o.obsIdx, idx)
	o.obsY = append(o.obsY, y)
}

// Best returns the grid index and value of the best (lowest) observation.
func (o *Optimizer) Best() (int, float64) {
	if len(o.obsIdx) == 0 {
		return -1, math.Inf(1)
	}
	bi, by := o.obsIdx[0], o.obsY[0]
	for k, idx := range o.obsIdx {
		if o.obsY[k] < by {
			bi, by = idx, o.obsY[k]
		}
	}
	return bi, by
}

// Point returns the coordinates of grid index idx.
func (o *Optimizer) Point(idx int) []float64 { return o.grid[idx] }

// NumObserved returns how many candidates have been evaluated.
func (o *Optimizer) NumObserved() int { return len(o.obsIdx) }

// posterior computes the GP posterior mean and standard deviation at the
// given candidate indexes, with observations standardized internally.
func (o *Optimizer) posterior(cands []int) (mu, sigma []float64) {
	n := len(o.obsIdx)
	// Standardize y.
	var mean float64
	for _, y := range o.obsY {
		mean += y
	}
	mean /= float64(n)
	var variance float64
	for _, y := range o.obsY {
		variance += (y - mean) * (y - mean)
	}
	variance /= float64(n)
	scale := math.Sqrt(variance)
	if scale < 1e-12 {
		scale = 1
	}
	ys := make([]float64, n)
	for i, y := range o.obsY {
		ys[i] = (y - mean) / scale
	}
	// K + noise I, Cholesky, alpha = K⁻¹ ys.
	k := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := o.kernel(o.grid[o.obsIdx[i]], o.grid[o.obsIdx[j]])
			if i == j {
				v += o.Noise
			}
			k[i*n+j], k[j*n+i] = v, v
		}
	}
	chol, ok := cholesky(k, n)
	if !ok {
		// Ill-conditioned kernel: fall back to pure exploration.
		mu = make([]float64, len(cands))
		sigma = make([]float64, len(cands))
		for i := range sigma {
			sigma[i] = 1
		}
		return mu, sigma
	}
	alpha := cholSolve(chol, n, ys)
	mu = make([]float64, len(cands))
	sigma = make([]float64, len(cands))
	kstar := make([]float64, n)
	for c, idx := range cands {
		for i := 0; i < n; i++ {
			kstar[i] = o.kernel(o.grid[idx], o.grid[o.obsIdx[i]])
		}
		var m float64
		for i := 0; i < n; i++ {
			m += kstar[i] * alpha[i]
		}
		v := cholSolve(chol, n, kstar)
		var kv float64
		for i := 0; i < n; i++ {
			kv += kstar[i] * v[i]
		}
		s2 := o.kernel(o.grid[idx], o.grid[idx]) - kv
		if s2 < 1e-12 {
			s2 = 1e-12
		}
		mu[c] = m*scale + mean
		sigma[c] = math.Sqrt(s2) * scale
	}
	return mu, sigma
}

func (o *Optimizer) kernel(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Exp(-s / (2 * o.LengthScale * o.LengthScale))
}

// expectedImprovement for minimization.
func expectedImprovement(best, mu, sigma, xi float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (best - mu - xi) / sigma
	return sigma * (z*normCDF(z) + normPDF(z))
}

func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// cholesky computes the lower-triangular Cholesky factor of the n×n matrix
// k (row-major). Returns ok=false when k is not positive definite.
func cholesky(k []float64, n int) ([]float64, bool) {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := k[i*n+j]
			for p := 0; p < j; p++ {
				sum -= l[i*n+p] * l[j*n+p]
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return l, true
}

// cholSolve solves (L Lᵀ) x = b given the Cholesky factor L.
func cholSolve(l []float64, n int, b []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for j := 0; j < i; j++ {
			sum -= l[i*n+j] * y[j]
		}
		y[i] = sum / l[i*n+i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for j := i + 1; j < n; j++ {
			sum -= l[j*n+i] * x[j]
		}
		x[i] = sum / l[i*n+i]
	}
	return x
}
