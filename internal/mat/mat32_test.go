package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rand32 returns a float32-valued matrix pair: the float32 matrix and its
// exact float64 image, so both kernel families see bit-identical operand
// values.
func rand32(rng *rand.Rand, rows, cols int, lo, hi float64) (*Matrix32, *Matrix) {
	m64 := RandUniform(rng, rows, cols, lo, hi)
	for i, v := range m64.Data {
		m64.Data[i] = float64(float32(v))
	}
	return To32(m64, nil), m64
}

// randInt32 returns a small-integer-valued matrix pair. Integer operands with
// bounded inner dimension keep every product and partial sum exactly
// representable at both widths, so the kernels must agree bit-for-bit.
func randInt32(rng *rand.Rand, rows, cols int) (*Matrix32, *Matrix) {
	m64 := New(rows, cols)
	for i := range m64.Data {
		m64.Data[i] = float64(rng.Intn(17) - 8)
	}
	return To32(m64, nil), m64
}

// tol32 is the documented per-element tolerance for a k-term float32 kernel
// against its float64 twin (DESIGN.md §15): the classic forward error bound
// γ_k·Σ|aᵢ||bᵢ| with unit roundoff 2⁻²⁴, widened by a 4× safety factor.
// sumAbs is Σ|aᵢ||bᵢ| for the element under test.
func tol32(k int, sumAbs float64) float64 {
	return 4*float64(k)*math.Exp2(-24)*sumAbs + 1e-30
}

// absMat returns |m| element-wise.
func absMat(m *Matrix) *Matrix {
	out := m.Clone()
	out.Apply(math.Abs)
	return out
}

// checkWithin asserts every element of got32 is within the k-term tolerance
// of ref64, where bound64 carries the per-element Σ|aᵢ||bᵢ|.
func checkWithin(t *testing.T, name string, got32 *Matrix32, ref64, bound64 *Matrix, k int) {
	t.Helper()
	for i, v := range got32.Data {
		diff := math.Abs(float64(v) - ref64.Data[i])
		if diff > tol32(k, bound64.Data[i]) {
			t.Fatalf("%s element %d: f32 %v vs f64 %v (diff %g, tol %g)",
				name, i, v, ref64.Data[i], diff, tol32(k, bound64.Data[i]))
		}
	}
}

// Property: on float32-valued real operands, the f32 kernel matches its
// float64 counterpart within the documented k-term error bound. Shapes
// straddle the 4-wide unroll boundaries and include degenerate 1-row/1-col
// cases.
func TestKernels32MatchFloat64WithinTolerance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a32, a64 := rand32(rng, n, m, -2, 2)
		b32, b64 := rand32(rng, p, m, -2, 2)
		checkWithin(t, "MulTInto32",
			MulTInto32(a32, b32, New32(n, p)), MulT(a64, b64), MulT(absMat(a64), absMat(b64)), m)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: on small-integer-valued operands with bounded inner dimension,
// every product and partial sum is exactly representable at both widths, so
// the f32 kernel must agree with its float64 counterpart bit-for-bit (ULP
// distance zero), whatever the accumulation order.
func TestKernels32ExactOnSmallIntegers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a32, a64 := randInt32(rng, n, m)
		b32, b64 := randInt32(rng, p, m)
		if d := MaxULPDiff32(MulTInto32(a32, b32, New32(n, p)), To32(MulT(a64, b64), nil)); d != 0 {
			t.Fatalf("MulTInto32 off by %d ULPs on integer operands", d)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: finishing a lane-partial dot with SumLanes32 is bit-identical
// to the 4-lane kernel multiplying a [prefix | one-hot] row through its zeros — for every prefix length, row
// width and one-hot position, so every residue of width%4 and pos%4 and both
// sides of the remainder boundary are hit. Weights include ±0.
func TestLanePartialsMatchPortableSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width, rows, n := 1+rng.Intn(19), rng.Intn(9), 1+rng.Intn(4)
		c := rng.Intn(width) // prefix length; the one-hot sits at or after it
		a32, _ := rand32(rng, n, c, -3, 3)
		b32, _ := rand32(rng, rows, width, -3, 3)
		for i := range b32.Data {
			switch rng.Intn(8) {
			case 0:
				b32.Data[i] = 0
			case 1:
				b32.Data[i] = float32(math.Copysign(0, -1))
			}
		}
		lanes := MulTLanesInto32(a32, b32, New32(n, 4*rows))
		pos := c + rng.Intn(width-c)
		got, w := make([]float32, rows), make([]float32, rows)
		for o := range w {
			w[o] = b32.At(o, pos)
		}
		x, want := make([]float32, width), make([]float32, rows)
		for i := 0; i < n; i++ {
			SumLanes32(lanes.Row(i), w, pos, width, got)
			for k := range x {
				x[k] = 0
			}
			copy(x, a32.Row(i))
			x[pos] = 1
			mulTRowRef(x, b32, want)
			for o := range want {
				if g := got[o]; math.Float32bits(g) != math.Float32bits(want[o]) {
					t.Fatalf("width=%d prefix=%d pos=%d row %d: lanes %v, kernel %v",
						width, c, pos, o, g, want[o])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The f32 Into kernel must allocate nothing, exactly like the float64
// family: it is what keeps steady-state f32 decode allocation-free.
func TestIntoKernels32AllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, _ := rand32(rng, 33, 17, -1, 1)
	bt, _ := rand32(rng, 9, 17, -1, 1)
	c := New32(33, 9)
	if allocs := testing.AllocsPerRun(10, func() { MulTInto32(a, bt, c) }); allocs != 0 {
		t.Errorf("MulTInto32 allocates %.0f objects per call, want 0", allocs)
	}
}

func TestMatrix32Accessors(t *testing.T) { testAccessors[float32](t) }

func TestConversionShims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m64 := RandUniform(rng, 4, 6, -3, 3)
	m32 := To32(m64, nil)
	for i, v := range m64.Data {
		if float32(v) != m32.Data[i] {
			t.Fatalf("element %d: %v narrowed to %v", i, v, m32.Data[i])
		}
	}
	dst := New32(4, 6)
	if To32(m64, dst) != dst {
		t.Fatal("To32 must reuse dst")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("To32 shape mismatch must panic")
		}
	}()
	To32(m64, New32(3, 3))
}

func TestUlpDiff32(t *testing.T) {
	cases := []struct {
		x, y float32
		want uint32
	}{
		{1, 1, 0},
		{0, float32(math.Copysign(0, -1)), 0},
		{1, math.Nextafter32(1, 2), 1},
		{-1, math.Nextafter32(-1, -2), 1},
		{float32(math.NaN()), 1, 1 << 31},
		{float32(math.Inf(1)), 1, 1 << 31},
		// -min_denorm → -0 → +0 → +min_denorm: the ordered-bits mapping
		// keeps the signed zeros distinct, so the straddle is three steps.
		{-math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32, 3},
	}
	for _, c := range cases {
		if got := ulpDiff32(c.x, c.y); got != c.want {
			t.Errorf("ulpDiff32(%v, %v) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
	a := FromSlice32(1, 2, []float32{1, 2})
	b := FromSlice32(2, 1, []float32{1, 2})
	if MaxULPDiff32(a, b) != math.MaxUint32 {
		t.Error("shape mismatch must report MaxUint32")
	}
}

func TestArena32ReuseAndZeroing(t *testing.T) { testArenaReuseAndZeroing[float32](t) }

func TestArena32SteadyStateAllocFree(t *testing.T) { testArenaSteadyStateAllocFree[float32](t) }

func BenchmarkMulTInto32_256x64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, _ := rand32(rng, 256, 64, -1, 1)
	w, _ := rand32(rng, 32, 64, -1, 1)
	c := New32(256, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulTInto32(x, w, c)
	}
}
