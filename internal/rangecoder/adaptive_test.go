package rangecoder

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refDecodeAdaptive decodes count symbols with the per-symbol reference —
// DecodeSymbol, and the Overrun check after each symbol the codec made — and
// returns what DecodeAdaptive returns: the values (through the overrunning
// symbol) and the overrun index or -1. clamps counts the symbols whose
// code−low reached total·r, so that DecodeFreq clamped their target.
func refDecodeAdaptive(buf []byte, n int, inc uint32, base int64, count int) (out []int64, at, clamps int) {
	out = make([]int64, count)
	if count == 0 {
		return out, -1, 0
	}
	d, m := NewDecoder(buf), NewAdaptiveModel(n, inc)
	for i := range out {
		if r := d.rng / m.total; d.code-d.low >= m.total*r {
			clamps++
		}
		out[i] = base + int64(m.DecodeSymbol(d))
		if d.Overrun() {
			return out[:i+1], i, clamps
		}
	}
	return out, -1, clamps
}

// checkDecodeAdaptive runs DecodeAdaptive and the reference over one frame
// and fails unless both decode the same values, or both stop at the same
// symbol. It returns the reference's clamp count.
func checkDecodeAdaptive(t *testing.T, name string, buf []byte, n int, inc uint32, count int) int {
	t.Helper()
	const base = -3
	want, wantAt, clamps := refDecodeAdaptive(buf, n, inc, base, count)
	got := make([]int64, count)
	at := DecodeAdaptive(buf, n, inc, base, got)
	if at >= 0 {
		got = got[:at+1]
	}
	if at != wantAt || !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: alphabet %d, inc %d, count %d, %d bytes: overrun at %d, reference %d; values differ first at %d",
			name, n, inc, count, len(buf), at, wantAt, i)
	}
	return clamps
}

// skewedSymbols draws count symbols below n, mostly small, like failure ranks.
func skewedSymbols(rng *rand.Rand, n, count int) []int {
	symbols := make([]int, count)
	for i := range symbols {
		s := int(rng.ExpFloat64() * float64(n) / 8)
		if rng.Intn(4) == 0 {
			s = rng.Intn(n)
		}
		symbols[i] = min(s, n-1)
	}
	return symbols
}

func encodeAdaptive(symbols []int, n int, inc uint32) []byte {
	e, m := NewEncoder(), NewAdaptiveModel(n, inc)
	for _, s := range symbols {
		m.EncodeSymbol(e, s)
	}
	return e.Bytes()
}

// DecodeAdaptive is the per-symbol reference, symbol for symbol, on both of
// its paths (the array scan up to 16 symbols, the Fenwick descent past it):
// over alphabets around the switch and up to the codec's 1<<15, and counts
// that cross many rescales, the frames an encoder built decode to its
// symbols; prefixes of each frame stop both at the same symbol or decode the
// same values — every prefix where that fits a budget of symbol decodes,
// weighted by the alphabet's rescale cost, and otherwise evenly spaced ones
// and the last four; and crafted all-0xFF frames, whose code−low reaches
// total·r, take DecodeFreq's clamp on every alphabet. Under the race detector
// a shorter trial (no 70 000-symbol frames, a twentieth of the budget);
// check.sh runs the full sweep uninstrumented.
func TestDecodeAdaptiveMatchesReference(t *testing.T) {
	const inc = 32
	budget, counts := 2_000_000, []int{0, 1, 255, 5000, 70000}
	if raceEnabled {
		budget, counts = budget/20, counts[:4]
	}
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 3, 15, 16, 17, 64, 300, 1 << 15} {
		for _, count := range counts {
			symbols := skewedSymbols(rng, n, count)
			buf := encodeAdaptive(symbols, n, inc)
			want := make([]int64, count)
			for i, s := range symbols {
				want[i] = int64(s) - 3
			}
			got := make([]int64, count)
			if at := DecodeAdaptive(buf, n, inc, -3, got); at >= 0 || !slices.Equal(got, want) {
				t.Fatalf("alphabet %d, count %d: round trip overran at %d or lost symbols", n, count, at)
			}
			checkDecodeAdaptive(t, "frame", buf, n, inc, count)
			cost := len(buf) * count * (1 + n/256)
			stride := max(1, cost/budget)
			for p := 0; p < len(buf); p++ {
				if p%stride == 0 || p >= len(buf)-4 {
					checkDecodeAdaptive(t, "prefix", buf[:p], n, inc, count)
				}
			}
			ff := bytes.Repeat([]byte{0xFF}, 12)
			clamps := 0
			for l := 0; l <= len(ff); l++ {
				clamps += checkDecodeAdaptive(t, "0xFF frame", ff[:l], n, inc, min(count, 64))
			}
			if count > 0 && clamps == 0 {
				t.Fatalf("alphabet %d: the 0xFF frames never clamped", n)
			}
		}
	}
}

// Random bytes are frames too: any buffer decodes the same under both, or
// stops both at the same symbol, for increments from 1 up to MaxTotal.
func TestDecodeAdaptiveMatchesReferenceOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 300; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		n := []int{1 + rng.Intn(16), 17 + rng.Intn(300), 1 + rng.Intn(4096)}[rng.Intn(3)]
		inc := []uint32{1, 32, uint32(1 + rng.Intn(5000)), MaxTotal}[rng.Intn(4)]
		count := rng.Intn(300)
		if inc > 32 && n > 300 { // a rescale every few symbols, each O(alphabet)
			count = rng.Intn(20)
		}
		checkDecodeAdaptive(t, "noise", buf, n, inc, count)
	}
}

func FuzzDecodeAdaptiveMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{1, 2, 16, 17, 300} {
		f.Add(encodeAdaptive(skewedSymbols(rng, n, 200), n, 32), uint16(n-1), uint16(200))
	}
	f.Add(bytes.Repeat([]byte{0xFF}, 9), uint16(4), uint16(30))
	f.Fuzz(func(t *testing.T, buf []byte, n, count uint16) {
		checkDecodeAdaptive(t, "fuzz", buf, int(n)%(1<<15)+1, 32, int(count)%4097)
	})
}
