package mat

import (
	"math"
	"math/rand"
)

// RandUniform fills a new rows×cols matrix with values drawn uniformly from
// [lo, hi) using rng (the product rounded before the sum, on every target).
func RandUniform(rng *rand.Rand, rows, cols int, lo, hi float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + float64(rng.Float64()*(hi-lo))
	}
	return m
}

// GlorotUniform fills a new fanOut×fanIn weight matrix using Glorot/Xavier
// uniform initialization, the standard choice for the sigmoid/softmax output
// stacks DeepSqueeze's decoders use.
func GlorotUniform(rng *rand.Rand, fanOut, fanIn int) *Matrix {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(rng, fanOut, fanIn, -limit, limit)
}

// HeUniform fills a new fanOut×fanIn weight matrix using He uniform
// initialization, suited to the ReLU hidden layers.
func HeUniform(rng *rand.Rand, fanOut, fanIn int) *Matrix {
	limit := math.Sqrt(6.0 / float64(fanIn))
	return RandUniform(rng, fanOut, fanIn, -limit, limit)
}
