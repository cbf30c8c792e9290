package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", row[2])
	}
	row[0] = 3 // Row aliases the backing store
	if m.At(1, 0) != 3 {
		t.Fatal("Row must alias the matrix data")
	}
	testAccessors[float64](t)
}

// testAccessors walks the methods Mat defines once for both widths.
func testAccessors[E float32 | float64](t *testing.T) {
	m := newMat[E](2, 3)
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
	if tr := m.T(); tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 || tr.At(0, 1) != 7 {
		t.Fatal("T wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must not alias")
	}
	m.Fill(2)
	m.Apply(func(x E) E { return -x })
	m.Scale(2)
	if m.MaxAbs() != 4 || m.At(0, 0) != -4 {
		t.Fatal("Fill/Apply/Scale/MaxAbs wrong")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero left values")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) should panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("FromSlice layout wrong: %+v", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length should panic")
		}
	}()
	FromSlice(3, 3, d)
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	want := FromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !Equal(tr, want, 0) {
		t.Fatalf("T() = %+v, want %+v", tr, want)
	}
}

func TestAddSubHadamard(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if got := Add(a, b); !Equal(got, FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatalf("Add = %+v", got)
	}
	if got := Sub(b, a); !Equal(got, FromSlice(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Fatalf("Sub = %+v", got)
	}
	if got := Hadamard(a, b); !Equal(got, FromSlice(2, 2, []float64{5, 12, 21, 32}), 0) {
		t.Fatalf("Hadamard = %+v", got)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if !Equal(c, FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatalf("AddInPlace = %+v", c)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(3, 2)
	for name, f := range map[string]func(){
		"Add":      func() { Add(a, b) },
		"Sub":      func() { Sub(a, b) },
		"Hadamard": func() { Hadamard(a, b) },
		"Mul":      func() { Mul(a, b) },
		"TMul":     func() { TMul(New(2, 2), New(3, 2)) },
		"MulT":     func() { MulT(New(2, 2), New(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched dims should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %+v, want %+v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandUniform(rng, 5, 5, -1, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if got := Mul(a, id); !Equal(got, a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if got := Mul(id, a); !Equal(got, a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Large enough to cross mulParallelThreshold.
	a := RandUniform(rng, 64, 48, -1, 1)
	b := RandUniform(rng, 48, 64, -1, 1)
	got := Mul(a, b)
	want := New(64, 64)
	mulAddRange(a, b, want, 0, 64)
	if !Equal(got, want, 0) {
		t.Fatal("parallel Mul disagrees with serial kernel")
	}
}

func TestMulTParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := RandUniform(rng, 64, 48, -1, 1)
	b := RandUniform(rng, 64, 48, -1, 1)
	got := MulT(a, b)
	want := New(64, 64)
	mulTRange(a, b, want, 0, 64)
	if !Equal(got, want, 0) {
		t.Fatal("parallel MulT disagrees with serial kernel")
	}
}

func TestTMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := RandUniform(rng, 48, 64, -1, 1)
	b := RandUniform(rng, 48, 64, -1, 1)
	got := TMul(a, b)
	want := New(64, 64)
	tMulAddRange(a, b, want, 0, 64)
	if !Equal(got, want, 0) {
		t.Fatal("parallel TMul disagrees with serial kernel")
	}
}

// Property: every *Into kernel writes exactly what its allocating
// counterpart returns, on random shapes (including shapes around the 4-wide
// unroll boundaries and degenerate 1-row/1-col cases).
func TestIntoKernelsMatchAllocating(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a := RandUniform(rng, n, m, -2, 2)
		b := RandUniform(rng, m, p, -2, 2)
		bt := b.T() // p×m
		at := a.T() // m×n
		if !Equal(MulInto(a, b, New(n, p)), Mul(a, b), 0) {
			return false
		}
		if !Equal(MulTInto(a, bt, New(n, p)), MulT(a, bt), 0) {
			return false
		}
		if !Equal(TMulInto(at, b, New(n, p)), TMul(at, b), 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TMulAddInto on a prefilled accumulator equals accumulate-then-add
// up to FP association.
func TestTMulAddIntoAccumulates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := RandUniform(rng, n, m, -2, 2)
		b := RandUniform(rng, n, p, -2, 2)
		c := RandUniform(rng, m, p, -2, 2)
		want := Add(c, TMul(a, b))
		got := c.Clone()
		TMulAddInto(a, b, got)
		return Equal(got, want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The Into kernels must allocate nothing: they are what makes a steady-state
// training pass allocation-free.
func TestIntoKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := RandUniform(rng, 33, 17, -1, 1)
	b := RandUniform(rng, 17, 9, -1, 1)
	bt := b.T()
	at := a.T()
	c := New(33, 9)
	for name, fn := range map[string]func(){
		"MulInto":     func() { MulInto(a, b, c) },
		"MulTInto":    func() { MulTInto(a, bt, c) },
		"TMulInto":    func() { TMulInto(at, b, c) },
		"TMulAddInto": func() { TMulAddInto(at, b, c) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f objects per call, want 0", name, allocs)
		}
	}
}

func TestSliceRows(t *testing.T) {
	m := FromSlice(4, 2, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	v := m.SliceRows(1, 3)
	if v.Rows != 2 || v.Cols != 2 || v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("SliceRows view wrong: %+v", v)
	}
	v.Set(0, 0, 42)
	if m.At(1, 0) != 42 {
		t.Fatal("SliceRows must alias the parent")
	}
	if e := m.SliceRows(2, 2); e.Rows != 0 {
		t.Fatal("empty SliceRows should have 0 rows")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SliceRows should panic")
		}
	}()
	m.SliceRows(3, 5)
}

func TestArenaReuseAndZeroing(t *testing.T) { testArenaReuseAndZeroing[float64](t) }

func testArenaReuseAndZeroing[E float32 | float64](t *testing.T) {
	ar := &ArenaOf[E]{}
	m1 := ar.Get(3, 4)
	m1.Fill(7)
	d1 := &m1.Data[0]
	ar.Reset()
	m2 := ar.Get(3, 4)
	if &m2.Data[0] != d1 {
		t.Fatal("Arena must reuse backing memory after Reset")
	}
	if m2.MaxAbs() != 0 {
		t.Fatal("Arena.Get must return zeroed memory")
	}
	// Shape drift within capacity reuses; beyond capacity reallocates.
	ar.Reset()
	small := ar.Get(2, 2)
	if &small.Data[0] != d1 {
		t.Fatal("smaller shape should reuse the slot's capacity")
	}
	ar.Reset()
	big := ar.Get(5, 5)
	if big.Rows != 5 || big.Cols != 5 || big.MaxAbs() != 0 {
		t.Fatalf("grown slot wrong: %dx%d", big.Rows, big.Cols)
	}
	// A nil arena falls back to fresh allocation.
	var nilAr *ArenaOf[E]
	if m := nilAr.Get(2, 3); m.Rows != 2 || m.Cols != 3 {
		t.Fatal("nil Arena.Get must allocate")
	}
	nilAr.Reset() // must not panic
}

func TestArenaSteadyStateAllocFree(t *testing.T) { testArenaSteadyStateAllocFree[float64](t) }

func testArenaSteadyStateAllocFree[E float32 | float64](t *testing.T) {
	ar := &ArenaOf[E]{}
	warm := func() {
		ar.Reset()
		ar.Get(8, 8)
		ar.Get(3, 5)
		ar.Get(1, 16)
	}
	warm()
	if allocs := testing.AllocsPerRun(10, warm); allocs != 0 {
		t.Errorf("warm arena pass allocates %.0f objects, want 0", allocs)
	}
}

func TestMulTAndTMulAgainstExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandUniform(rng, 7, 4, -1, 1)
	b := RandUniform(rng, 9, 4, -1, 1)
	if got, want := MulT(a, b), Mul(a, b.T()); !Equal(got, want, 1e-12) {
		t.Fatal("MulT(a,b) != a*bᵀ")
	}
	c := RandUniform(rng, 7, 5, -1, 1)
	if got, want := TMul(a, c), Mul(a.T(), c); !Equal(got, want, 1e-12) {
		t.Fatal("TMul(a,c) != aᵀ*c")
	}
}

func TestScaleApplyZeroFill(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, -2, 3})
	m.Scale(2)
	if !Equal(m, FromSlice(1, 3, []float64{2, -4, 6}), 0) {
		t.Fatalf("Scale = %+v", m)
	}
	m.Apply(math.Abs)
	if !Equal(m, FromSlice(1, 3, []float64{2, 4, 6}), 0) {
		t.Fatalf("Apply = %+v", m)
	}
	if got := m.MaxAbs(); got != 6 {
		t.Fatalf("MaxAbs = %v", got)
	}
	m.Fill(1.5)
	if m.At(0, 1) != 1.5 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

// Property: matrix multiplication distributes over addition,
// A*(B+C) == A*B + A*C.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a := RandUniform(rng, n, m, -2, 2)
		b := RandUniform(rng, m, p, -2, 2)
		c := RandUniform(rng, m, p, -2, 2)
		left := Mul(a, Add(b, c))
		right := Add(Mul(a, b), Mul(a, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, p := 2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(5)
		a := RandUniform(rng, n, m, -2, 2)
		b := RandUniform(rng, m, p, -2, 2)
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGlorotHeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := GlorotUniform(rng, 10, 20)
	limit := math.Sqrt(6.0 / 30.0)
	if g.MaxAbs() > limit {
		t.Fatalf("Glorot value %v outside limit %v", g.MaxAbs(), limit)
	}
	h := HeUniform(rng, 10, 20)
	if h.MaxAbs() > math.Sqrt(6.0/20.0) {
		t.Fatal("He value outside limit")
	}
}

func BenchmarkMul64x64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := RandUniform(rng, 64, 64, -1, 1)
	y := RandUniform(rng, 64, 64, -1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMul256x256(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := RandUniform(rng, 256, 256, -1, 1)
	y := RandUniform(rng, 256, 256, -1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulInto256x256(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := RandUniform(rng, 256, 256, -1, 1)
	y := RandUniform(rng, 256, 256, -1, 1)
	c := New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(x, y, c)
	}
}

func BenchmarkMulTInto256x64(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := RandUniform(rng, 256, 256, -1, 1)
	y := RandUniform(rng, 64, 256, -1, 1)
	c := New(256, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulTInto(x, y, c)
	}
}

func BenchmarkTMulAddInto64x256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := RandUniform(rng, 256, 64, -1, 1)
	y := RandUniform(rng, 256, 256, -1, 1)
	c := New(64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TMulAddInto(x, y, c)
	}
}

// mulRangeZeroSkip is the seed repo's Mul kernel, kept here as the baseline
// that justified dropping the per-element zero-skip branch: on dense
// activation matrices (the training workload — sigmoid/tanh outputs are
// never exactly zero) the branch always falls through yet still costs its
// test, and it blocks the 4-wide unrolling the blocked kernel uses. Compare
// BenchmarkZeroSkipKernelDense with BenchmarkBlockedKernelDense.
func mulRangeZeroSkip(a, b, c *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

func BenchmarkZeroSkipKernelDense(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := RandUniform(rng, 256, 128, -1, 1)
	y := RandUniform(rng, 128, 128, -1, 1)
	c := New(256, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Zero()
		mulRangeZeroSkip(x, y, c, 0, 256)
	}
}

func BenchmarkBlockedKernelDense(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := RandUniform(rng, 256, 128, -1, 1)
	y := RandUniform(rng, 128, 128, -1, 1)
	c := New(256, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Zero()
		mulAddRange(x, y, c, 0, 256)
	}
}
