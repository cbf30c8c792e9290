package mat

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// expSpecials are the arguments at exp's edges: signed zeros and infinities,
// NaN, the overflow threshold and the band below it that overflows anyway,
// the denormal range and the underflow to zero.
var expSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xFFF8000000000001), 1, -1, 0.5, -0.5, 1e-300, -1e-300,
	expOverflow, math.Nextafter(expOverflow, 0), math.Nextafter(expOverflow, 1000),
	709.5, 709.436, 709.437, 709.78, 709.79, 710, 1e5, math.MaxFloat64,
	-708, -708.4, -708.5, -709, -709.1, -720, -744.4, -745.1, -745.2, -746, -750, -760,
	-1e300, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// expArgs returns the arguments the kernel and the reference are compared
// over: the specials, a 2⁻¹² sweep of [−760, 720] and n random bit patterns
// (every exponent, so NaNs, infinities and huge magnitudes too), plus n
// arguments spread over ±760.
func expArgs(n int) []float64 {
	xs := append([]float64{}, expSpecials...)
	for x := -760.0; x <= 720; x += 0x1p-12 {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()), 760*(2*rng.Float64()-1))
	}
	return xs
}

// expBitsEqual fails t unless got and want have the same bits. Only the
// failure path calls into t: t.Helper per argument would dominate the test.
func expBitsEqual(t *testing.T, what string, x, got, want float64) {
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s(%v = %#x) = %v (%#x), want %v (%#x)", what, x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// Property: the lane kernel is exp, bit for bit — over the specials, a
// 2⁻¹² sweep of [−760, 720] and 3 M random bit patterns, and at every length
// from 0 to 67 with a lane exp must take (NaN, +Inf, 710, −746, −1e300)
// planted at every position, so that every tail and every decline offset
// runs.
func TestExpMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("a sweep with nothing to race: check.sh runs it uninstrumented")
	}
	n := 3_000_000
	if testing.Short() {
		n = 100_000
	}
	xs := expArgs(n)
	got := append([]float64{}, xs...)
	Exp(got)
	for i, x := range xs {
		expBitsEqual(t, "Exp", x, got[i], exp(x))
	}
	rng := rand.New(rand.NewSource(32))
	for length := 0; length <= 67; length++ {
		for _, bad := range []float64{math.NaN(), math.Inf(1), 710, -746, -1e300} {
			for at := -1; at < length; at++ {
				xs := make([]float64, length)
				for i := range xs {
					xs[i] = -20 * rng.Float64()
				}
				if at >= 0 {
					xs[at] = bad
				}
				got := append([]float64{}, xs...)
				Exp(got)
				for i, x := range xs {
					if math.Float64bits(got[i]) != math.Float64bits(exp(x)) {
						expBitsEqual(t, fmt.Sprintf("Exp, length %d, %v at %d", length, bad, at), x, got[i], exp(x))
					}
				}
			}
		}
	}
}

// cpuHasFMA reports whether math.Exp takes its FMA branch here: amd64 with
// FMA hardware, which Linux lists in /proc/cpuinfo.
func cpuHasFMA() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	return err == nil && bytes.Contains(b, []byte(" fma "))
}

// The reference is amd64's math.Exp on an FMA CPU, which every archive
// written so far used: checked only where that is the math.Exp in hand, and
// there under every build — the noasm one runs nothing else.
func TestExpReferenceMatchesMathExp(t *testing.T) {
	if raceEnabled {
		t.Skip("a sweep with nothing to race: check.sh runs it uninstrumented")
	}
	if !cpuHasFMA() {
		t.Skip("math.Exp is not the FMA amd64 one here; the pinned table stands in")
	}
	n := 3_000_000
	if testing.Short() {
		n = 100_000
	}
	for _, x := range expArgs(n) {
		expBitsEqual(t, "exp", x, exp(x), math.Exp(x))
	}
}

// And Tanh is math.Tanh there, over a 2⁻¹⁴ sweep of [−50, 50] (every branch
// and the saturation edge), random bit patterns and both branches' ranges.
func TestTanhReferenceMatchesMathTanh(t *testing.T) {
	if raceEnabled {
		t.Skip("a sweep with nothing to race: check.sh runs it uninstrumented")
	}
	if !cpuHasFMA() {
		t.Skip("math.Tanh is not the FMA amd64 one here; the pinned table stands in")
	}
	xs := append([]float64{}, expSpecials...)
	for x := -50.0; x <= 50; x += 0x1p-14 {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()), 3*rng.NormFloat64(), 0.625*(2*rng.Float64()-1))
	}
	got := append([]float64{}, xs...)
	Tanh(got)
	for i, x := range xs {
		expBitsEqual(t, "Tanh", x, got[i], math.Tanh(x))
	}
}

// Every build on every architecture reproduces the bits math.Exp and
// math.Tanh gave on an FMA amd64 when the table was generated.
func TestElementwisePinnedBits(t *testing.T) {
	for _, p := range expPins {
		x := math.Float64frombits(p[0])
		expBitsEqual(t, "exp", x, exp(x), math.Float64frombits(p[1]))
		got := []float64{x, x, x, x}
		Exp(got)
		expBitsEqual(t, "Exp", x, got[3], math.Float64frombits(p[1]))
	}
	for _, p := range tanhPins {
		x := []float64{math.Float64frombits(p[0])}
		Tanh(x)
		expBitsEqual(t, "Tanh", math.Float64frombits(p[0]), x[0], math.Float64frombits(p[1]))
	}
}

// Property: both ReLU passes are their portable loops bit for bit — lanes
// and tail, at every length from 0 to 70, with NaN, ±0 and denormals among
// the operands and sums that land on −0.
func TestReLUPassesMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	value := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.NaN()
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 0
		case 3:
			return math.Float64frombits(uint64(rng.Int63n(1<<40))) * float64(1-2*rng.Intn(2))
		}
		return rng.NormFloat64()
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = value()
		}
		return v
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 20; trial++ {
			x, s, w, b := vec(n), vec(n), vec(n+3), vec(n+1) // operands may be longer
			want := append([]float64{}, x...)
			addReLURef(want, b)
			AddReLU(x, b)
			if !sameBits(x, want) {
				t.Fatalf("AddReLU over %d elements differs from relu(x+b)", n)
			}
			want, got := vec(n), vec(n)
			addAddReLURef(want, s, w, b)
			AddAddReLU(got, s, w, b)
			if !sameBits(got, want) {
				t.Fatalf("AddAddReLU over %d elements differs from relu((s+w)+b)", n)
			}
		}
	}
}

// BenchmarkExp times 6 144 arguments shaped like a Census softmax after its
// max subtraction (−(i mod 7)·0.9: cardinalities up to 7, 1 024 rows… of six
// columns' worth) through the lane kernel and through the reference alone.
func BenchmarkExp(b *testing.B) {
	src := make([]float64, 6144)
	for i := range src {
		src[i] = -float64(i%7) * 0.9
	}
	x := make([]float64, len(src))
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"kernel", func() { Exp(x) }},
		{"reference", func() {
			for i, v := range x {
				x[i] = exp(v)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				bc.fn()
			}
		})
	}
}
