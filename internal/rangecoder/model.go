package rangecoder

import (
	"fmt"
	"math/bits"
)

// AdaptiveModel maintains per-symbol frequencies over a fixed alphabet with
// a Fenwick (binary indexed) tree for O(log n) cumulative queries, updates,
// and symbol lookup, and the frequencies themselves beside it, so that a
// symbol's own frequency costs no second walk. Every symbol starts with
// frequency 1 so the decoder can always make progress; Update bumps the
// observed symbol and rescales when the total approaches the coder's limit.
//
// Encoder and decoder must perform identical Update calls in the same order,
// which keeps their models in lockstep.
type AdaptiveModel struct {
	n     int
	tree  []uint32 // 1-based Fenwick tree over freq
	freq  []uint32
	total uint32
	inc   uint32
}

// NewAdaptiveModel returns a model over an alphabet of n symbols, all with
// initial frequency 1. inc controls adaptation speed; 32 is a good default
// for the column alphabets Squish sees.
func NewAdaptiveModel(n int, inc uint32) *AdaptiveModel {
	if n <= 0 {
		panic(fmt.Sprintf("rangecoder: alphabet size %d", n))
	}
	if inc == 0 {
		inc = 1
	}
	counts := make([]uint32, 2*n+1) // the tree and freq, one allocation
	m := &AdaptiveModel{n: n, tree: counts[: n+1 : n+1], freq: counts[n+1:], inc: inc}
	for s := 0; s < n; s++ {
		m.add(s, 1)
	}
	m.total = uint32(n)
	if m.total > MaxTotal {
		panic(fmt.Sprintf("rangecoder: alphabet %d exceeds MaxTotal", n))
	}
	return m
}

// N returns the alphabet size.
func (m *AdaptiveModel) N() int { return m.n }

// Total returns the current cumulative frequency total.
func (m *AdaptiveModel) Total() uint32 { return m.total }

// add adds delta to sym's frequency.
func (m *AdaptiveModel) add(sym int, delta uint32) {
	m.freq[sym] += delta
	for i := sym + 1; i <= m.n; i += i & (-i) {
		m.tree[i] += delta
	}
}

// cum returns the cumulative frequency of symbols < sym.
func (m *AdaptiveModel) cum(sym int) uint32 {
	var s uint32
	for i := sym; i > 0; i -= i & (-i) {
		s += m.tree[i]
	}
	return s
}

// Freq returns (cumFreq, freq) for sym.
func (m *AdaptiveModel) Freq(sym int) (uint32, uint32) {
	if sym < 0 || sym >= m.n {
		panic(fmt.Sprintf("rangecoder: symbol %d outside alphabet %d", sym, m.n))
	}
	return m.cum(sym), m.freq[sym]
}

// Update increases sym's frequency, rescaling all frequencies (halving,
// floored at 1) when the total would exceed the coder limit. Near the limit
// a rescale may not free a full increment — the frequency-1 floor makes the
// halved total at least n — so the bump is clamped to what fits (possibly
// nothing, saturating the model). The clamp depends only on model state, so
// encoder and decoder stay in lockstep, and total never exceeds MaxTotal
// for any alphabet NewAdaptiveModel accepts.
func (m *AdaptiveModel) Update(sym int) {
	if sym < 0 || sym >= m.n {
		panic(fmt.Sprintf("rangecoder: symbol %d outside alphabet %d", sym, m.n))
	}
	if m.total+m.inc > MaxTotal {
		m.rescale()
	}
	inc := m.inc
	if m.total+inc > MaxTotal {
		inc = MaxTotal - m.total
	}
	if inc > 0 {
		m.add(sym, inc)
		m.total += inc
	}
}

func (m *AdaptiveModel) rescale() {
	clear(m.tree)
	m.total = 0
	for s, f := range m.freq {
		f = (f + 1) / 2
		m.freq[s] = 0
		m.add(s, f)
		m.total += f
	}
}

// EncodeSymbol encodes sym with the model's current statistics, then adapts.
func (m *AdaptiveModel) EncodeSymbol(e *Encoder, sym int) {
	c, f := m.Freq(sym)
	e.Encode(c, f, m.total)
	m.Update(sym)
}

// DecodeAdaptive decodes len(out) symbols that EncodeSymbol coded against a
// fresh NewAdaptiveModel(n, inc), storing base+symbol in out. It returns -1,
// or the index of the first symbol after which the decoder had read past buf
// and the encoder's four bytes of padding (Decoder.Overrun): a truncated
// stream, whose out is valid only below that index.
//
// It is one loop over the coder state and the model in locals, and it
// reproduces DecodeFreq, Update and AdaptiveModel.Update symbol for symbol.
// Alphabets of at most 16 symbols keep their frequencies in an array and
// scan it: (cum+f)·r ≤ code−low with r = rng/total is ⌊(code−low)/r⌋ ≥
// cum+f without the second division, and stopping at the last symbol is
// DecodeFreq's clamp of a target ≥ total. Larger alphabets descend a Fenwick
// tree from a top bit computed once.
func DecodeAdaptive(buf []byte, n int, inc uint32, base int64, out []int64) int {
	if n <= 0 || n > MaxTotal {
		panic(fmt.Sprintf("rangecoder: alphabet size %d", n))
	}
	inc = max(inc, 1)
	var small [16]uint32
	freq, tree := small[:min(n, len(small))], []uint32(nil) // tree stays nil for a small alphabet
	if n > len(small) {
		counts := make([]uint32, 2*n+1)
		tree, freq = counts[:n+1:n+1], counts[n+1:]
	}
	for s := range freq {
		freq[s] = 1
	}
	fenwick(tree, freq)
	total := uint32(n)
	topBit := 1 << (bits.Len(uint(n)) - 1)
	low, rng, pos := uint32(0), uint32(0xFFFFFFFF), 4
	code := byteAt(buf, 0)<<24 | byteAt(buf, 1)<<16 | byteAt(buf, 2)<<8 | byteAt(buf, 3)
	for i := range out {
		r := rng / total
		t := code - low
		s, cum := 0, uint32(0)
		if tree == nil {
			for s < n-1 && (cum+freq[s])*r <= t {
				cum += freq[s]
				s++
			}
		} else {
			target := t / r
			if target >= total {
				target = total - 1
			}
			for bit := topBit; bit > 0; bit >>= 1 {
				if next := s + bit; next <= n && cum+tree[next] <= target {
					s, cum = next, cum+tree[next]
				}
			}
		}
		low += cum * r
		rng = freq[s] * r
		for {
			if (low ^ (low + rng)) >= top {
				if rng >= bot {
					break
				}
				rng = -low & (bot - 1)
			}
			code = code<<8 | byteAt(buf, pos)
			pos++
			low <<= 8
			rng <<= 8
		}
		out[i] = base + int64(s)
		if pos > len(buf)+4 {
			return i
		}
		if total+inc > MaxTotal {
			total = 0
			for k, f := range freq {
				freq[k] = (f + 1) / 2
				total += freq[k]
			}
			fenwick(tree, freq)
		}
		bump := inc
		if total+bump > MaxTotal {
			bump = MaxTotal - total
		}
		freq[s] += bump
		total += bump
		for k := s + 1; k < len(tree); k += k & -k {
			tree[k] += bump
		}
	}
	return -1
}

// fenwick rebuilds the Fenwick tree over freq in place, in O(n): each node
// takes its own frequency after its children's sums, then adds to its parent.
func fenwick(tree, freq []uint32) {
	clear(tree)
	for k := 1; k < len(tree); k++ {
		tree[k] += freq[k-1]
		if p := k + k&-k; p < len(tree) {
			tree[p] += tree[k]
		}
	}
}
