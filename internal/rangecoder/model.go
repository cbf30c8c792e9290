package rangecoder

import "fmt"

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

// FindSymbol locates the symbol whose cumulative range contains target, which
// is below Total() — DecodeFreq's clamp sees to that — and returns (sym,
// cumFreq, freq). It descends the Fenwick tree in O(log n).
func (m *AdaptiveModel) FindSymbol(target uint32) (int, uint32, uint32) {
	idx := 0
	var cum uint32
	// Highest power of two ≤ n.
	mask := 1
	for mask<<1 <= m.n {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := idx + mask
		if next <= m.n && cum+m.tree[next] <= target {
			idx = next
			cum += m.tree[next]
		}
	}
	// idx symbols have cumulative frequency ≤ target, so idx is the symbol.
	return idx, cum, m.freq[idx]
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

// DecodeSymbol decodes one symbol and adapts, mirroring EncodeSymbol.
func (m *AdaptiveModel) DecodeSymbol(d *Decoder) int {
	target := d.DecodeFreq(m.total)
	sym, c, f := m.FindSymbol(target)
	d.Update(c, f)
	m.Update(sym)
	return sym
}
