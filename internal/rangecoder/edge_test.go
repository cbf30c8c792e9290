package rangecoder

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// A one-symbol alphabet is the degenerate skew: every symbol has the whole
// probability mass, so the coded body carries (almost) no information. The
// round trip must still hold, including through rescales.
func TestRoundTripAlphabetOne(t *testing.T) {
	for _, n := range []int{1, 5, 5000} {
		symbols := make([]int, n)
		encodeDecode(t, 1, symbols)
	}
	// The coded body should stay near the coder's 4-byte flush regardless of
	// stream length: log2(1) = 0 bits per symbol.
	enc := NewEncoder()
	m := NewAdaptiveModel(1, 32)
	for i := 0; i < 100000; i++ {
		m.EncodeSymbol(enc, 0)
	}
	if got := len(enc.Bytes()); got > 8 {
		t.Fatalf("alphabet-1 stream of 100000 symbols coded to %d bytes", got)
	}
}

// An empty stream must round-trip for any alphabet: Bytes flushes the
// coder's initial state and the decoder simply never reads a symbol.
func TestRoundTripEmptyStream(t *testing.T) {
	for _, alphabet := range []int{1, 2, 7, 256, 65535} {
		encodeDecode(t, alphabet, nil)
	}
}

// Near MaxTotal a rescale cannot shrink the total below the alphabet size
// (every frequency is floored at 1), so for alphabets close to the limit the
// post-rescale total plus a full increment can overflow the coder's budget.
// Update must clamp — total never exceeds MaxTotal — and the clamp must be a
// pure function of model state so encoder and decoder stay in lockstep.
// Single-threaded arithmetic: it skips under the race detector, and check.sh
// runs it uninstrumented.
func TestRescaleAtMaxTotalBoundary(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine sweep; runs uninstrumented (see scripts/check.sh)")
	}
	for _, alphabet := range []int{int(MaxTotal), int(MaxTotal) - 1, int(MaxTotal) - 33, 1 << 15} {
		m := NewAdaptiveModel(alphabet, 32)
		rng := rand.New(rand.NewSource(int64(alphabet)))
		// Saturated alphabets rescale on every Update (O(n log n) each), so
		// keep the iteration count modest.
		iters := 300
		if alphabet <= 1<<15 {
			iters = 4000
		}
		for i := 0; i < iters; i++ {
			m.Update(rng.Intn(alphabet))
			if m.Total() > MaxTotal {
				t.Fatalf("alphabet %d: total %d exceeds MaxTotal after %d updates", alphabet, m.Total(), i+1)
			}
		}
	}
	// And the full encode/decode loop survives a saturating model: at
	// alphabet == MaxTotal every update clamps to zero immediately.
	symbols := make([]int, 100)
	rng := rand.New(rand.NewSource(7))
	for i := range symbols {
		symbols[i] = rng.Intn(int(MaxTotal))
	}
	encodeDecode(t, int(MaxTotal), symbols)
}

// Model lockstep is the adaptive codec's correctness contract: after coding
// any stream, the decoder's model must be bit-identical to the encoder's —
// same total, same per-symbol frequencies — or the next symbol would
// diverge. testing/quick drives random alphabets and streams through both
// sides and compares the full frequency tables.
func TestQuickModelLockstep(t *testing.T) {
	property := func(alphaSeed uint16, streamSeed int64, length uint8) bool {
		alphabet := int(alphaSeed)%2048 + 1
		rng := rand.New(rand.NewSource(streamSeed))
		symbols := make([]int, int(length))
		for i := range symbols {
			// Skew toward low symbols, like failure ranks.
			s := int(rng.ExpFloat64() * float64(alphabet) / 8)
			if s >= alphabet {
				s = alphabet - 1
			}
			symbols[i] = s
		}
		enc := NewEncoder()
		em := NewAdaptiveModel(alphabet, 32)
		for _, s := range symbols {
			em.EncodeSymbol(enc, s)
		}
		dec := NewDecoder(enc.Bytes())
		dm := NewAdaptiveModel(alphabet, 32)
		for _, want := range symbols {
			if dm.DecodeSymbol(dec) != want {
				return false
			}
		}
		if dec.Overrun() || em.Total() != dm.Total() {
			return false
		}
		for s := 0; s < alphabet; s++ {
			ec, ef := em.Freq(s)
			dc, df := dm.Freq(s)
			if ec != dc || ef != df {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
