package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of samples by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }
