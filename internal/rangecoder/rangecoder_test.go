package rangecoder

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeDecode round-trips symbols through a fresh adaptive model and
// DecodeAdaptive.
func encodeDecode(t *testing.T, alphabet int, symbols []int) {
	t.Helper()
	enc := NewEncoder()
	em := NewAdaptiveModel(alphabet, 32)
	for _, s := range symbols {
		em.EncodeSymbol(enc, s)
	}
	got := make([]int64, len(symbols))
	if at := DecodeAdaptive(enc.Bytes(), alphabet, 32, 0, got); at >= 0 {
		t.Fatalf("decoder overran its input at symbol %d", at)
	}
	for i, want := range symbols {
		if got[i] != int64(want) {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], want)
		}
	}
}

func TestRoundTripBasic(t *testing.T) {
	encodeDecode(t, 4, []int{0, 1, 2, 3, 0, 0, 0, 1, 2, 3, 3, 3})
	encodeDecode(t, 1, []int{0, 0, 0, 0})
	encodeDecode(t, 256, []int{255, 0, 128, 7})
	encodeDecode(t, 2, nil)
}

func TestRoundTripLongSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int, 50000)
	for i := range symbols {
		if rng.Float64() < 0.9 {
			symbols[i] = 0
		} else {
			symbols[i] = 1 + rng.Intn(15)
		}
	}
	encodeDecode(t, 16, symbols)
}

func TestCompressionApproachesEntropy(t *testing.T) {
	// Bernoulli(0.05) over {0,1}: H ≈ 0.286 bits/symbol.
	rng := rand.New(rand.NewSource(2))
	n := 100000
	symbols := make([]int, n)
	ones := 0
	for i := range symbols {
		if rng.Float64() < 0.05 {
			symbols[i] = 1
			ones++
		}
	}
	enc := NewEncoder()
	m := NewAdaptiveModel(2, 32)
	for _, s := range symbols {
		m.EncodeSymbol(enc, s)
	}
	buf := enc.Bytes()
	p := float64(ones) / float64(n)
	entropy := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
	bitsPer := float64(len(buf)*8) / float64(n)
	if bitsPer > entropy*1.15+0.02 {
		t.Fatalf("adaptive coder %.3f bits/symbol vs entropy %.3f", bitsPer, entropy)
	}
}

func TestRoundTripManyRescales(t *testing.T) {
	// Enough updates to force repeated rescaling (total capped at 1<<16).
	rng := rand.New(rand.NewSource(3))
	symbols := make([]int, 200000)
	for i := range symbols {
		symbols[i] = rng.Intn(7)
	}
	encodeDecode(t, 7, symbols)
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := 1 + rng.Intn(300)
		n := rng.Intn(2000)
		symbols := make([]int, n)
		// Mix uniform and skewed regimes.
		skew := rng.Float64()
		for i := range symbols {
			if rng.Float64() < skew {
				symbols[i] = 0
			} else {
				symbols[i] = rng.Intn(alphabet)
			}
		}
		enc := NewEncoder()
		em := NewAdaptiveModel(alphabet, 1+uint32(rng.Intn(64)))
		for _, s := range symbols {
			em.EncodeSymbol(enc, s)
		}
		got := make([]int64, n)
		if DecodeAdaptive(enc.Bytes(), alphabet, em.inc, 0, got) >= 0 {
			return false
		}
		for i, want := range symbols {
			if got[i] != int64(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestModelInvariants(t *testing.T) {
	m := NewAdaptiveModel(10, 32)
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 10000; step++ {
		s := rng.Intn(10)
		m.Update(s)
		if m.Total() > MaxTotal {
			t.Fatalf("total %d exceeds MaxTotal after step %d", m.Total(), step)
		}
	}
	// Cumulative frequencies must be consistent and every freq ≥ 1.
	var cum uint32
	for s := 0; s < 10; s++ {
		c, f := m.Freq(s)
		if c != cum {
			t.Fatalf("symbol %d cum = %d, want %d", s, c, cum)
		}
		if f == 0 {
			t.Fatalf("symbol %d has zero frequency", s)
		}
		cum += f
	}
	if cum != m.Total() {
		t.Fatalf("sum of freqs %d != total %d", cum, m.Total())
	}
}

func TestFindSymbolMatchesFreq(t *testing.T) {
	m := NewAdaptiveModel(37, 17)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		m.Update(rng.Intn(37))
	}
	for target := uint32(0); target < m.Total(); target += 13 {
		sym, c, f := m.FindSymbol(target)
		wc, wf := m.Freq(sym)
		if c != wc || f != wf {
			t.Fatalf("FindSymbol(%d) = (%d,%d,%d), Freq gives (%d,%d)", target, sym, c, f, wc, wf)
		}
		if target < c || target >= c+f {
			t.Fatalf("target %d outside [%d,%d) for symbol %d", target, c, c+f, sym)
		}
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	checkPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	checkPanic("zero alphabet", func() { NewAdaptiveModel(0, 1) })
	checkPanic("symbol out of range", func() { NewAdaptiveModel(3, 1).Update(3) })
	checkPanic("encode zero freq", func() { NewEncoder().Encode(0, 0, 10) })
	checkPanic("encode after flush", func() {
		e := NewEncoder()
		e.Bytes()
		e.Encode(0, 1, 2)
	})
}

func BenchmarkAdaptiveEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	symbols := make([]int, 1<<14)
	for i := range symbols {
		symbols[i] = rng.Intn(64)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := NewEncoder()
		m := NewAdaptiveModel(64, 32)
		for _, s := range symbols {
			m.EncodeSymbol(enc, s)
		}
		enc.Bytes()
	}
}
