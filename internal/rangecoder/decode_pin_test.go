package rangecoder

import (
	"bytes"
	"math/rand"
	"testing"
)

// FindSymbol and DecodeSymbol are the per-symbol adaptive decoder the codec
// used until DecodeAdaptive fused it into one loop: DecodeFreq, a Fenwick
// descent, Decoder.Update and AdaptiveModel.Update per symbol. They stay here
// as the reference DecodeAdaptive must reproduce.

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

// DecodeSymbol decodes one symbol and adapts, mirroring EncodeSymbol.
func (m *AdaptiveModel) DecodeSymbol(d *Decoder) int {
	target := d.DecodeFreq(m.total)
	sym, c, f := m.FindSymbol(target)
	d.Update(c, f)
	m.Update(sym)
	return sym
}

// refDecoder and refModel are the decoder and the adaptive model as they were
// before DecodeFreq kept its quotient for Update and the model kept its
// frequencies beside the tree: two divisions and two tree walks per symbol.
// The pin below holds today's decoder to them.
type refDecoder struct {
	low, rng, code uint32
	buf            []byte
	pos            int
}

func newRefDecoder(buf []byte) *refDecoder {
	d := &refDecoder{rng: 0xFFFFFFFF, buf: buf}
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *refDecoder) next() byte {
	d.pos++
	if d.pos <= len(d.buf) {
		return d.buf[d.pos-1]
	}
	return 0
}

func (d *refDecoder) decodeFreq(totFreq uint32) uint32 {
	r := d.rng / totFreq
	f := (d.code - d.low) / r
	if f >= totFreq {
		f = totFreq - 1
	}
	return f
}

func (d *refDecoder) update(cumFreq, freq, totFreq uint32) {
	r := d.rng / totFreq
	d.low += cumFreq * r
	d.rng = freq * r
	for {
		if (d.low ^ (d.low + d.rng)) >= top {
			if d.rng >= bot {
				break
			}
			d.rng = -d.low & (bot - 1)
		}
		d.code = d.code<<8 | uint32(d.next())
		d.low <<= 8
		d.rng <<= 8
	}
}

type refModel struct {
	n          int
	tree       []uint32
	total, inc uint32
}

func newRefModel(n int, inc uint32) *refModel {
	m := &refModel{n: n, tree: make([]uint32, n+1), inc: inc}
	for s := 0; s < n; s++ {
		m.add(s, 1)
	}
	m.total = uint32(n)
	return m
}

func (m *refModel) add(sym int, delta uint32) {
	for i := sym + 1; i <= m.n; i += i & (-i) {
		m.tree[i] += delta
	}
}

func (m *refModel) cum(sym int) uint32 {
	var s uint32
	for i := sym; i > 0; i -= i & (-i) {
		s += m.tree[i]
	}
	return s
}

func (m *refModel) freq(sym int) (uint32, uint32) {
	c := m.cum(sym)
	return c, m.cum(sym+1) - c
}

func (m *refModel) findSymbol(target uint32) (int, uint32, uint32) {
	idx, cum, mask := 0, uint32(0), 1
	for mask<<1 <= m.n {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		if next := idx + mask; next <= m.n && cum+m.tree[next] <= target {
			idx, cum = next, cum+m.tree[next]
		}
	}
	if idx >= m.n {
		idx = m.n - 1
		cum = m.cum(idx)
	}
	return idx, cum, m.cum(idx+1) - cum
}

func (m *refModel) update(sym int) {
	if m.total+m.inc > MaxTotal {
		freqs := make([]uint32, m.n)
		for s := range freqs {
			_, f := m.freq(s)
			freqs[s] = (f + 1) / 2
		}
		clear(m.tree)
		m.total = 0
		for s, f := range freqs {
			m.add(s, f)
			m.total += f
		}
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

// Property: over random alphabets of 1 to 4 096 symbols, increments from 1
// to past MaxTotal's reach (so that models rescale, and clamp at MaxTotal),
// skewed and uniform streams, the adaptive codec encodes the bytes the
// reference model encodes, and the decoder — one division and one tree walk
// per symbol — returns the reference pair's symbols and ends in its
// low/rng/code/pos, with the same model; DecodeAdaptive, the per-symbol
// decoder fused into one loop, returns the same symbols. Single-threaded
// arithmetic: it skips under the race detector, and check.sh runs it
// uninstrumented.
func TestDecoderMatchesTwoCallReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine sweep; runs uninstrumented (see scripts/check.sh)")
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		alphabet := 1 + rng.Intn(4096)
		inc := []uint32{1, 32, uint32(1 + rng.Intn(64)), uint32(1 + rng.Intn(20000)), MaxTotal}[rng.Intn(5)]
		n := 3000
		if inc > 64 { // a rescale every few symbols, each O(alphabet)
			n = 200
		}
		symbols := make([]int, rng.Intn(n))
		skew := rng.Float64()
		for i := range symbols {
			symbols[i] = rng.Intn(alphabet)
			if rng.Float64() < skew {
				symbols[i] = rng.Intn(1 + alphabet/16)
			}
		}
		enc, em := NewEncoder(), NewAdaptiveModel(alphabet, inc)
		refEnc, rm := NewEncoder(), newRefModel(alphabet, inc)
		for _, s := range symbols {
			em.EncodeSymbol(enc, s)
			c, f := rm.freq(s)
			refEnc.Encode(c, f, rm.total)
			rm.update(s)
		}
		buf := enc.Bytes()
		if !bytes.Equal(buf, refEnc.Bytes()) {
			t.Fatalf("alphabet %d, inc %d: encoded bytes differ from the reference model's", alphabet, inc)
		}
		fused := make([]int64, len(symbols))
		if at := DecodeAdaptive(buf, alphabet, inc, 0, fused); at >= 0 {
			t.Fatalf("alphabet %d, inc %d: DecodeAdaptive overran at symbol %d", alphabet, inc, at)
		}
		d, dm := NewDecoder(buf), NewAdaptiveModel(alphabet, inc)
		rd, rm := newRefDecoder(buf), newRefModel(alphabet, inc)
		for i, want := range symbols {
			got := dm.DecodeSymbol(d)
			sym, c, f := rm.findSymbol(rd.decodeFreq(rm.total))
			rd.update(c, f, rm.total)
			rm.update(sym)
			if got != sym || sym != want || fused[i] != int64(sym) {
				t.Fatalf("alphabet %d, inc %d, symbol %d: decoded %d, fused %d, reference %d, want %d", alphabet, inc, i, got, fused[i], sym, want)
			}
		}
		if d.low != rd.low || d.rng != rd.rng || d.code != rd.code || d.pos != rd.pos {
			t.Fatalf("alphabet %d, inc %d: decoder ends at %d/%d/%d/%d, reference at %d/%d/%d/%d",
				alphabet, inc, d.low, d.rng, d.code, d.pos, rd.low, rd.rng, rd.code, rd.pos)
		}
		if dm.Total() != rm.total {
			t.Fatalf("alphabet %d, inc %d: total %d, reference %d", alphabet, inc, dm.Total(), rm.total)
		}
		for s := 0; s < alphabet; s++ {
			c, f := dm.Freq(s)
			if rc, rf := rm.freq(s); c != rc || f != rf {
				t.Fatalf("alphabet %d, inc %d: symbol %d at (%d, %d), reference (%d, %d)", alphabet, inc, s, c, f, rc, rf)
			}
		}
	}
}
