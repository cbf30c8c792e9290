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
	m32 := To32(m64, nil)
	return m32, To64(m32, nil)
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

// Property: on float32-valued real operands, every f32 kernel matches its
// float64 twin within the documented k-term error bound. Shapes straddle the
// 4-wide unroll boundaries and include degenerate 1-row/1-col cases.
func TestKernels32MatchFloat64WithinTolerance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a32, a64 := rand32(rng, n, m, -2, 2)
		b32, b64 := rand32(rng, m, p, -2, 2)
		aAbs, bAbs := absMat(a64), absMat(b64)

		checkWithin(t, "MulInto32",
			MulInto32(a32, b32, New32(n, p)), Mul(a64, b64), Mul(aAbs, bAbs), m)

		bt32, bt64 := To32(b64.T(), nil), b64.T()
		checkWithin(t, "MulTInto32",
			MulTInto32(a32, bt32, New32(n, p)), MulT(a64, bt64), MulT(aAbs, absMat(bt64)), m)

		at32, at64 := To32(a64.T(), nil), a64.T()
		checkWithin(t, "TMulInto32",
			TMulInto32(at32, b32, New32(n, p)), TMul(at64, b64), TMul(absMat(at64), bAbs), m)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: on small-integer-valued operands with bounded inner dimension,
// every product and partial sum is exactly representable at both widths, so
// the f32 kernels must agree with the float64 twins bit-for-bit (ULP
// distance zero), at every accumulation order.
func TestKernels32ExactOnSmallIntegers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a32, a64 := randInt32(rng, n, m)
		b32, b64 := randInt32(rng, m, p)
		if d := MaxULPDiff32(MulInto32(a32, b32, New32(n, p)), To32(Mul(a64, b64), nil)); d != 0 {
			t.Fatalf("MulInto32 off by %d ULPs on integer operands", d)
		}
		bt32 := To32(b64.T(), nil)
		if d := MaxULPDiff32(MulTInto32(a32, bt32, New32(n, p)), To32(MulT(a64, b64.T()), nil)); d != 0 {
			t.Fatalf("MulTInto32 off by %d ULPs on integer operands", d)
		}
		at32 := To32(a64.T(), nil)
		if d := MaxULPDiff32(TMulInto32(at32, b32, New32(n, p)), To32(TMul(a64.T(), b64), nil)); d != 0 {
			t.Fatalf("TMulInto32 off by %d ULPs on integer operands", d)
		}
		c32, c64 := randInt32(rng, m, p)
		TMulAddInto32(a32, To32(Mul(a64, b64), nil), c32) // a is n×m: aᵀ·(a·b) accumulates into m×p
		TMulAddInto(a64, Mul(a64, b64), c64)
		if d := MaxULPDiff32(c32, To32(c64, nil)); d != 0 {
			t.Fatalf("TMulAddInto32 off by %d ULPs on integer operands", d)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the platform mulTRow32 kernel (packed SSE on amd64) is
// bit-identical to the portable statement of the 4-lane dot contract in
// dot32_ref.go, across shapes straddling every unroll boundary. This is the
// cross-platform determinism guarantee for float32-plan archives: the
// contract, not the instruction set, defines the failure stream.
func TestMulTRow32MatchesPortableSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k, rows := rng.Intn(19), rng.Intn(19)
		a32, _ := rand32(rng, 1, k, -3, 3)
		b32, _ := rand32(rng, rows, k, -3, 3)
		got := make([]float32, rows)
		want := make([]float32, rows)
		mulTRow32(a32.Row(0), b32, got)
		mulTRowRef(a32.Row(0), b32, want)
		for o := range got {
			if math.Float32bits(got[o]) != math.Float32bits(want[o]) {
				t.Fatalf("k=%d rows=%d row %d: kernel %v, portable spec %v", k, rows, o, got[o], want[o])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: finishing a lane-partial dot with SumLanes32 is bit-identical
// to the portable spec (and the platform kernel) multiplying a
// [prefix | one-hot] row through its zeros — for every prefix length, row
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
		x, want, kernel := make([]float32, width), make([]float32, rows), make([]float32, rows)
		for i := 0; i < n; i++ {
			SumLanes32(lanes.Row(i), w, pos, width, got)
			for k := range x {
				x[k] = 0
			}
			copy(x, a32.Row(i))
			x[pos] = 1
			mulTRowRef(x, b32, want)
			mulTRow32(x, b32, kernel)
			for o := range want {
				if g := got[o]; math.Float32bits(g) != math.Float32bits(want[o]) ||
					math.Float32bits(g) != math.Float32bits(kernel[o]) {
					t.Fatalf("width=%d prefix=%d pos=%d row %d: lanes %v, spec %v, kernel %v",
						width, c, pos, o, g, want[o], kernel[o])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TMulAddInto32 accumulates rather than overwrites.
func TestTMulAddInto32Accumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a32, a64 := rand32(rng, 7, 5, -1, 1)
	b32, b64 := rand32(rng, 7, 3, -1, 1)
	c32, c64 := rand32(rng, 5, 3, -1, 1)
	TMulAddInto32(a32, b32, c32)
	TMulAddInto(a64, b64, c64)
	bound := Add(TMul(absMat(a64), absMat(b64)), absMat(c64))
	checkWithin(t, "TMulAddInto32", c32, c64, bound, 7+1)
}

// The f32 Into kernels must allocate nothing, exactly like the float64
// family: they are what keeps steady-state f32 decode allocation-free.
func TestIntoKernels32AllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, _ := rand32(rng, 33, 17, -1, 1)
	b, b64 := rand32(rng, 17, 9, -1, 1)
	bt := To32(b64.T(), nil)
	at64 := To64(a, nil)
	at := To32(at64.T(), nil)
	c := New32(33, 9)
	for name, fn := range map[string]func(){
		"MulInto32":     func() { MulInto32(a, b, c) },
		"MulTInto32":    func() { MulTInto32(a, bt, c) },
		"TMulInto32":    func() { TMulInto32(at, b, c) },
		"TMulAddInto32": func() { TMulAddInto32(at, b, c) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f objects per call, want 0", name, allocs)
		}
	}
}

func TestMatrix32Accessors(t *testing.T) {
	m := New32(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.Row(1)[2] != 5 {
		t.Fatal("Set/At/Row disagree")
	}
	v := m.SliceRows(1, 2)
	if v.Rows != 1 || v.Cols != 3 || v.At(0, 2) != 5 {
		t.Fatal("SliceRows view wrong")
	}
	v.Set(0, 0, 7)
	if m.At(1, 0) != 7 {
		t.Fatal("SliceRows must alias the parent")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must not alias")
	}
	m.Fill(2)
	m.Apply(func(x float32) float32 { return -x })
	if m.MaxAbs() != 2 || m.At(0, 0) != -2 {
		t.Fatal("Fill/Apply/MaxAbs wrong")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero left values")
	}
}

func TestConversionShims(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m64 := RandUniform(rng, 4, 6, -3, 3)
	m32 := To32(m64, nil)
	back := To64(m32, nil)
	for i, v := range m64.Data {
		if float64(float32(v)) != back.Data[i] {
			t.Fatalf("round trip element %d: %v → %v", i, v, back.Data[i])
		}
	}
	// Widening a float32-valued matrix then narrowing is the identity.
	if d := MaxULPDiff32(To32(back, nil), m32); d != 0 {
		t.Fatalf("narrow∘widen moved values by %d ULPs", d)
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

func TestAddInPlace32(t *testing.T) {
	a := FromSlice32(1, 3, []float32{1, 2, 3})
	b := FromSlice32(1, 3, []float32{10, 20, 30})
	AddInPlace32(a, b)
	if a.Data[0] != 11 || a.Data[2] != 33 {
		t.Fatalf("AddInPlace32 got %v", a.Data)
	}
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

func TestArena32ReuseAndZeroing(t *testing.T) {
	ar := &Arena32{}
	m1 := ar.Get(3, 4)
	m1.Fill(7)
	ar.Reset()
	m2 := ar.Get(3, 4)
	if &m1.Data[0] != &m2.Data[0] {
		t.Fatal("Reset must recycle the same backing array")
	}
	if m2.MaxAbs() != 0 {
		t.Fatal("recycled memory must be zeroed")
	}
	// Shape drift: a bigger request replaces the slot.
	ar.Reset()
	m3 := ar.Get(8, 8)
	if m3.Rows != 8 || m3.Cols != 8 || m3.MaxAbs() != 0 {
		t.Fatal("shape drift must serve a fresh zeroed matrix")
	}
	// A nil arena falls back to allocation.
	var nilAr *Arena32
	if m := nilAr.Get(2, 2); m.Rows != 2 {
		t.Fatal("nil arena must allocate")
	}
	nilAr.Reset() // must not panic
}

func TestArena32SteadyStateAllocFree(t *testing.T) {
	ar := &Arena32{}
	warm := func() {
		ar.Reset()
		ar.Get(16, 8)
		ar.Get(8, 4)
	}
	warm()
	if allocs := testing.AllocsPerRun(10, warm); allocs != 0 {
		t.Fatalf("warm arena allocates %.0f objects per cycle, want 0", allocs)
	}
}

func BenchmarkMulInto32_256x256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, _ := rand32(rng, 256, 256, -1, 1)
	y, _ := rand32(rng, 256, 256, -1, 1)
	c := New32(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto32(x, y, c)
	}
}

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

func BenchmarkTMulAddInto32_64x256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g, _ := rand32(rng, 256, 64, -1, 1)
	x, _ := rand32(rng, 256, 32, -1, 1)
	c := New32(64, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TMulAddInto32(g, x, c)
	}
}
