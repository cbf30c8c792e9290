package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelValue draws the values the bit-identity argument has to survive:
// magnitudes from 1e-3 to 1e3 of either sign, with ±0 and denormals mixed in.
func kernelValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(rng.Int63n(1<<40))) * float64(1-2*rng.Intn(2))
	}
	return math.Pow(10, -3+6*rng.Float64()) * float64(1-2*rng.Intn(2))
}

func kernelMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = kernelValue(rng)
	}
	return m
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Property: the packed x·Wᵀ — the AVX kernel where this build and CPU have
// it, the portable panel loop under -tags noasm — and MulTInto's pack-as-it-
// goes path reproduce mulTRange bit for bit: over row counts that run the
// 4-row body and the 1-row tail, inner widths from 0, output counts that
// leave a zero-padded last panel, every output prefix of a packed matrix, and
// row ranges that start past row 0.
func TestPackedMulTMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var packed Packed // reused: Pack must cope with shapes growing and shrinking
	for trial := 0; trial < 400; trial++ {
		rows, k, outs := 1+rng.Intn(70), rng.Intn(61), 1+rng.Intn(20)
		a, w := kernelMatrix(rng, rows, k), kernelMatrix(rng, outs, k)
		want := New(rows, outs)
		mulTRange(a, w, want, 0, rows)

		if got := MulTInto(a, w, kernelMatrix(rng, rows, outs)); !sameBits(got.Data, want.Data) {
			t.Fatalf("MulTInto %dx%d·(%dx%d)ᵀ differs from mulTRange", rows, k, outs, k)
		}
		packed.Pack(w)
		for n := 1; n <= outs; n++ {
			got := MulTPackedInto(a, &packed, kernelMatrix(rng, rows, n), false)
			for i := 0; i < rows; i++ {
				if !sameBits(got.Row(i), want.Row(i)[:n]) {
					t.Fatalf("MulTPackedInto %dx%d·(%dx%d)ᵀ, first %d outputs: row %d differs from mulTRange", rows, k, outs, k, n, i)
				}
			}
		}
		lo := rng.Intn(rows)
		got := kernelMatrix(rng, rows, outs)
		mulT(a, w, packed.data, got, lo, rows)
		mulT(a, w, nil, got, 0, lo)
		if !sameBits(got.Data, want.Data) {
			t.Fatalf("rows [0,%d) packed as they go and [%d,%d) from the packed copy differ from mulTRange", lo, lo, rows)
		}
	}
}

// The pool-splitting packed product is the serial one, bit for bit.
func TestMulTPackedPoolMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a, w := kernelMatrix(rng, 301, 40), kernelMatrix(rng, 37, 40)
	p := new(Packed).Pack(w)
	want, got := MulTPackedInto(a, p, New(301, 37), false), MulTPackedInto(a, p, New(301, 37), true)
	if !sameBits(got.Data, want.Data) {
		t.Fatal("MulTPackedInto over the pool differs from the serial product")
	}
}

// Property: mulRow — lanes across j under AVX — is mulRowRef bit for bit at
// every row length, vector body and scalar tail, for every k count, four-wide
// passes and leftover k, with a's multipliers contiguous (mulAddRange) and
// strided (tMulAddRange), b's rows wider than c, and at unaligned offsets;
// so are the two backward kernels built on it against a plain statement of
// their sums.
func TestMulRowMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 0; n <= 45; n++ {
		for kc := 0; kc <= 13; kc++ {
			for _, lda := range []int{1, 2 + rng.Intn(6)} {
				off, ldb := rng.Intn(4), n+rng.Intn(3)
				a := kernelMatrix(rng, 1, off+kc*lda).Data[off:]
				b := kernelMatrix(rng, 1, off+kc*ldb).Data[off:]
				want := kernelMatrix(rng, 1, off+n).Data[off:]
				got := append([]float64{}, want...)
				mulRowRef(want, a, lda, kc, b, ldb)
				mulRow(got, a, lda, kc, b, ldb)
				if !sameBits(got, want) {
					t.Fatalf("mulRow over %d elements, %d k, lda %d, ldb %d differs from mulRowRef", n, kc, lda, ldb)
				}
			}
		}
	}
	for trial := 0; trial < 100; trial++ {
		rows, k, n := 1+rng.Intn(20), rng.Intn(14), 1+rng.Intn(30)
		a, b := kernelMatrix(rng, rows, k), kernelMatrix(rng, k, n)
		want := New(rows, n)
		for i := 0; i < rows; i++ {
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				axpy4Ref(want.Row(i), b.Row(kk), b.Row(kk+1), b.Row(kk+2), b.Row(kk+3), a.At(i, kk), a.At(i, kk+1), a.At(i, kk+2), a.At(i, kk+3))
			}
			for ; kk < k; kk++ {
				for j, bv := range b.Row(kk) {
					want.Row(i)[j] += a.At(i, kk) * bv
				}
			}
		}
		if got := MulInto(a, b, New(rows, n)); !sameBits(got.Data, want.Data) {
			t.Fatalf("MulInto %dx%d·%dx%d differs from the portable sums", rows, k, k, n)
		}
		if got := TMulInto(a.T(), b, New(rows, n)); !sameBits(got.Data, want.Data) {
			t.Fatalf("TMulInto (%dx%d)ᵀ·%dx%d differs from the portable sums", k, rows, k, n)
		}
	}
}

// BenchmarkMulTDecodeShapes times x·Wᵀ at the repo benchmark's categorical
// decode shapes — 1 024 rows, 48 inputs, a column's cardinality or a hidden
// layer's width in outputs — through the portable loop, MulTInto's
// pack-as-it-goes path and a packed copy.
func BenchmarkMulTDecodeShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	for _, outs := range []int{3, 7, 24, 48} {
		a, w := RandUniform(rng, 1024, 48, -1, 1), RandUniform(rng, outs, 48, -1, 1)
		c, p := New(1024, outs), new(Packed).Pack(w)
		for _, bc := range []struct {
			name string
			fn   func()
		}{
			{"portable", func() { mulTRange(a, w, c, 0, 1024) }},
			{"unpacked", func() { MulTInto(a, w, c) }},
			{"packed", func() { MulTPackedInto(a, p, c, false) }},
		} {
			b.Run(fmt.Sprintf("%s/outs=%d", bc.name, outs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bc.fn()
				}
				b.ReportMetric(float64(2*1024*48*outs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkBackwardIntoCensusShapes times the two backward products at the
// repo benchmark's categorical training shapes: a column's gradient g, 256
// rows of its cardinality, times its cut of the shared output layer (card ×
// 48) — ∂L/∂in, MulInto — and gᵀ times the 48-wide hidden activations added
// into the cut's weight gradient, TMulAddInto.
func BenchmarkBackwardIntoCensusShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	for _, card := range []int{3, 5, 7} {
		g, w, h := RandUniform(rng, 256, card, -1, 1), RandUniform(rng, card, 48, -1, 1), RandUniform(rng, 256, 48, -1, 1)
		dx, gw := New(256, 48), New(card, 48)
		for _, bc := range []struct {
			name string
			fn   func()
		}{
			{"MulInto", func() { MulInto(g, w, dx) }},
			{"TMulAddInto", func() { TMulAddInto(g, h, gw) }},
		} {
			b.Run(fmt.Sprintf("%s/card=%d", bc.name, card), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bc.fn()
				}
				b.ReportMetric(float64(2*256*card*48)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
