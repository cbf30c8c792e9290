package mat

import "math"

// The element-wise contract (DESIGN.md §12): failure streams are computed
// against the decoder's exponentials and tanh, so these are archive format
// like the matmul roundings. The standard library's Exp rounds differently on
// amd64 with FMA, amd64 without and arm64; exp is the first, which every
// archive so far was written with, and Exp runs it in lanes where it can.

// exp's constants, from Go's math/exp_amd64.s: log₂e, ln 2 in two parts, the
// overflow threshold, and the polynomial's coefficients.
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2Hi    = 0.69314718055966295651160180568695068359375
	expLn2Lo    = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
	expC3       = 1.6666666666666666667e-1
	expC4       = 4.1666666666666666667e-2
	expC5       = 8.3333333333333333333e-3
	expC6       = 1.3888888888888888889e-3
	expC7       = 1.9841269841269841270e-4
	expC8       = 2.4801587301587301587e-5
)

// exp is e^x as math/exp_amd64.s computes it on its FMA branch: math.FMA
// where the assembly fuses (VFNMADD231SD twice, VFMADD213SD eight times),
// every other product rounded on its own, CVTSD2SL's conversion (to nearest
// even, 0x80000000 outside int32), the same special, denormal and overflow
// paths — +Inf too just below the threshold, where k rounds to 1024. Without
// FMA hardware math.FMA runs in software: slowly, but exactly.
func exp(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	t, k := math.RoundToEven(float64(x*expLog2e)), int32(math.MinInt32)
	if t >= math.MinInt32 && t <= math.MaxInt32 {
		k = int32(t)
	}
	kf := float64(k)
	r := math.FMA(-kf, expLn2Hi, x)
	r = math.FMA(-kf, expLn2Lo, r)
	r = float64(r * 0.0625)
	p := math.FMA(r, expC8, expC7)
	p = math.FMA(r, p, expC6)
	p = math.FMA(r, p, expC5)
	p = math.FMA(r, p, expC4)
	p = math.FMA(r, p, expC3)
	p = math.FMA(r, p, 0.5)
	p = math.FMA(r, p, 1)
	// e^r = (1+y)^16: four squarings, (1+y)² − 1 = y(y+2), the last keeping 1.
	y := float64(r * p)
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = math.FMA(y+2, y, 1)
	switch kb := k + 1023; {
	case kb >= 0x7FF:
		return math.Inf(1)
	case kb < -52:
		return 0
	case kb <= 0: // a denormal result: scale by 2^(k+1022), then by 2^−1022
		y = float64(y * math.Float64frombits(uint64(kb+0x3FE)<<52))
		return float64(y * 0x1p-1022)
	default:
		return float64(y * math.Float64frombits(uint64(kb)<<52))
	}
}

var tanhP = [...]float64{-9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3}
var tanhQ = [...]float64{1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3}

// Tanh replaces every x[i] with its tanh as math/tanh.go computes it (on
// every architecture but s390x), with every product rounded on its own and
// exp(2|x|) through Exp's lanes, 64 at a time: the standard Tanh's bits on an
// FMA amd64, everywhere. float32 elements widen and narrow around it.
func Tanh[E float32 | float64](x []E) {
	var e [64]float64
	for len(x) > 0 {
		n := min(len(x), len(e))
		for i, v := range x[:n] {
			e[i] = 2 * math.Abs(float64(v))
		}
		Exp(e[:n])
		for i, v := range x[:n] {
			x[i] = E(tanh(float64(v), e[i]))
		}
		x = x[n:]
	}
}

// tanh is math/tanh.go's tanh given e = exp(2|x|), its sign flips written
// as Copysign: the same bits, without a branch on a near-random sign.
func tanh(x, e float64) float64 {
	const maxLog = 8.8029691931113054295988e+01 // log(2**127)
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		return math.Copysign(1, x)
	case z >= 0.625:
		z = math.Copysign(1-2/(e+1), x)
	default:
		if x == 0 {
			return x
		}
		s := float64(x * x)
		p := float64(float64(float64(tanhP[0]*s)+tanhP[1])*s) + tanhP[2]
		q := float64(float64(float64((s+tanhQ[0])*s)+tanhQ[1])*s) + tanhQ[2]
		z = x + float64(x*s)*p/q
	}
	return z
}

// ReLU is max(0, v) as `if v < 0 { v = 0 }` — NaN and −0 pass through —
// written as a mask so that it compiles to a conditional move: pre-activation
// signs are close to random, and a branch mispredicts on every other element.
func ReLU(v float64) float64 {
	keep := ^uint64(0)
	if v < 0 {
		keep = 0
	}
	return math.Float64frombits(math.Float64bits(v) & keep)
}

// addReLURef is AddReLU's portable statement: x[i] = ReLU(x[i] + b[i]).
func addReLURef(x, b []float64) {
	for i, v := range x {
		x[i] = ReLU(v + b[i])
	}
}

// addAddReLURef is AddAddReLU's: dst[i] = ReLU((s[i] + w[i]) + b[i]).
func addAddReLURef(dst, s, w, b []float64) {
	for i := range dst {
		dst[i] = ReLU((s[i] + w[i]) + b[i])
	}
}
