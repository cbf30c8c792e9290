// Package huffman implements a canonical Huffman coder over small integer
// alphabets. DeepSqueeze uses it for the rank-coded categorical failure
// streams, where rank 0 ("the model's top prediction was right") dominates
// and earns a 1-bit code.
//
// The encoded form is self-describing: a header carries the alphabet and
// per-symbol code lengths, from which the decoder rebuilds the identical
// canonical code. Codes are assigned in (length, symbol) order, so
// construction is deterministic.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"deepsqueeze/internal/bitio"
)

// zigzag and unzigzag mirror colenc's mapping; duplicated here (they are
// two-liners) to keep huffman importable by colenc without a cycle.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ErrCorrupt is returned when an encoded buffer fails validation.
var ErrCorrupt = errors.New("huffman: corrupt buffer")

// maxCodeLen caps code lengths; with package-limited alphabet sizes
// (≤ 1<<20 symbols) depths stay far below this in practice.
const maxCodeLen = 58

// symFreq is one distinct symbol and how often it occurs.
type symFreq struct {
	symbol int64
	freq   uint64
}

// codeLengths computes the Huffman code length of each distinct symbol in
// syms, which it sorts into (freq, symbol) order; lengths[i] belongs to the
// sorted syms[i]. Ties between a leaf and a merged node go to the leaf, so
// the lengths are a function of the multiset alone.
func codeLengths(syms []symFreq) []uint {
	slices.SortFunc(syms, func(a, b symFreq) int {
		if c := cmp.Compare(a.freq, b.freq); c != 0 {
			return c
		}
		return cmp.Compare(a.symbol, b.symbol)
	})
	n := len(syms)
	lengths := make([]uint, n)
	if n == 1 {
		lengths[0] = 1
	}
	if n <= 1 {
		return lengths
	}
	// Two-queue merge over index-addressed nodes: leaves are 0..n-1 in sorted
	// order, merged node k is n+k and is created in nondecreasing weight
	// order, so the internal queue is the slice itself.
	freq := make([]uint64, 2*n-1)
	parent := make([]int, 2*n-1)
	for i, s := range syms {
		freq[i] = s.freq
	}
	leaf, inner := 0, n
	pop := func(next int) int {
		if leaf < n && (inner == next || freq[leaf] <= freq[inner]) {
			leaf++
			return leaf - 1
		}
		inner++
		return inner - 1
	}
	for next := n; next < 2*n-1; next++ {
		a := pop(next)
		b := pop(next)
		freq[next] = freq[a] + freq[b]
		parent[a], parent[b] = next, next
	}
	// Depths from the root (the last node) down: every parent is created
	// after its children, so one backward pass sees each parent first.
	depth := freq // the weights are no longer needed
	depth[2*n-2] = 0
	for k := 2*n - 3; k >= 0; k-- {
		depth[k] = depth[parent[k]] + 1
	}
	for i := range lengths {
		lengths[i] = uint(depth[i])
	}
	return lengths
}

type symCode struct {
	symbol int64
	length uint
	code   uint64
}

// canonicalCodes assigns canonical codes given per-symbol lengths,
// in (length, symbol) order.
func canonicalCodes(syms []symFreq, lengths []uint) []symCode {
	codes := make([]symCode, len(syms))
	for i, s := range syms {
		codes[i] = symCode{symbol: s.symbol, length: lengths[i]}
	}
	slices.SortFunc(codes, func(a, b symCode) int {
		if c := cmp.Compare(a.length, b.length); c != 0 {
			return c
		}
		return cmp.Compare(a.symbol, b.symbol)
	})
	var code uint64
	var prevLen uint
	for i := range codes {
		code <<= codes[i].length - prevLen
		codes[i].code = code
		prevLen = codes[i].length
		code++
	}
	return codes
}

// denseSpan reports whether values in [lo, hi] are few enough to count and
// look up in slices indexed by v − lo rather than in maps. The uint64
// difference is exact for any hi ≥ lo, so the widest int64 spans never
// qualify.
func denseSpan(lo, hi int64, n int) bool {
	return uint64(hi)-uint64(lo) < 4*uint64(n)+256
}

// Encode Huffman-codes values. Layout:
// count varint | alphabet size varint | symbols (zigzag varints, canonical
// order) | lengths (bytes) | packed bitstream.
func Encode(values []int64) []byte { return AppendEncode(nil, values) }

// AppendEncode appends Encode(values) to out and returns the extended slice.
func AppendEncode(out []byte, values []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(values)))
	if len(values) == 0 {
		return binary.AppendUvarint(out, 0)
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	if denseSpan(lo, hi, len(values)) {
		return appendDense(out, values, lo, hi)
	}
	return appendSparse(out, values)
}

// appendHeader writes the alphabet size, symbols and lengths of codes.
func appendHeader(out []byte, codes []symCode) []byte {
	out = binary.AppendUvarint(out, uint64(len(codes)))
	for _, c := range codes {
		out = binary.AppendUvarint(out, zigzag(c.symbol))
	}
	for _, c := range codes {
		out = append(out, byte(c.length))
	}
	return out
}

// appendDense encodes a stream whose values span [lo, hi], a range denseSpan
// accepts: one table of span+1 words first counts each value, then holds its
// code (shifted up 6 bits) and length (the low 6 bits: a length past
// maxCodeLen would take more values than fit in memory).
func appendDense(out []byte, values []int64, lo, hi int64) []byte {
	table := make([]uint64, uint64(hi)-uint64(lo)+1)
	for _, v := range values {
		table[v-lo]++
	}
	var syms []symFreq
	for i, f := range table {
		if f != 0 {
			syms = append(syms, symFreq{lo + int64(i), f})
		}
	}
	codes := canonicalCodes(syms, codeLengths(syms))
	for _, c := range codes {
		table[c.symbol-lo] = c.code<<6 | uint64(c.length)
	}
	out = appendHeader(out, codes)
	w := bitio.NewAppendWriter(out)
	for _, v := range values {
		e := table[v-lo]
		w.WriteBits(e>>6, uint(e&63))
	}
	return w.Bytes()
}

// appendSparse encodes a stream whose values span too wide a range for
// appendDense, counting and looking up codes in maps.
func appendSparse(out []byte, values []int64) []byte {
	freq := make(map[int64]uint64)
	for _, v := range values {
		freq[v]++
	}
	syms := make([]symFreq, 0, len(freq))
	for s, f := range freq {
		syms = append(syms, symFreq{s, f})
	}
	codes := canonicalCodes(syms, codeLengths(syms))
	bySym := make(map[int64]symCode, len(codes))
	for _, c := range codes {
		bySym[c.symbol] = c
	}
	out = appendHeader(out, codes)
	w := bitio.NewAppendWriter(out)
	for _, v := range values {
		c := bySym[v]
		w.WriteBits(c.code, c.length)
	}
	return w.Bytes()
}

// Decode inverts Encode.
func Decode(buf []byte) ([]int64, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing count", ErrCorrupt)
	}
	buf = buf[sz:]
	alpha, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing alphabet size", ErrCorrupt)
	}
	buf = buf[sz:]
	if n > 0 && alpha == 0 {
		return nil, fmt.Errorf("%w: empty alphabet with %d values", ErrCorrupt, n)
	}
	if alpha > uint64(len(buf)) {
		return nil, fmt.Errorf("%w: alphabet %d exceeds buffer", ErrCorrupt, alpha)
	}
	symbols := make([]int64, alpha)
	for i := range symbols {
		z, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated symbol table", ErrCorrupt)
		}
		symbols[i] = unzigzag(z)
		buf = buf[sz:]
	}
	if uint64(len(buf)) < alpha {
		return nil, fmt.Errorf("%w: truncated length table", ErrCorrupt)
	}
	codes := make([]symCode, alpha)
	for i := range codes {
		l := uint(buf[i])
		if l == 0 || l > maxCodeLen {
			return nil, fmt.Errorf("%w: code length %d", ErrCorrupt, l)
		}
		codes[i] = symCode{symbol: symbols[i], length: l}
	}
	buf = buf[alpha:]
	// Every code is at least one bit, so the bitstream length bounds the
	// value count; checking here keeps a corrupt count from driving the
	// output allocation below.
	if n > uint64(len(buf))*8 {
		return nil, fmt.Errorf("%w: count %d exceeds bitstream", ErrCorrupt, n)
	}
	// Rebuild canonical codes. The header stores entries already in
	// canonical (length, symbol) order; verify rather than trust.
	for i := 1; i < len(codes); i++ {
		a, b := codes[i-1], codes[i]
		if a.length > b.length || (a.length == b.length && a.symbol >= b.symbol) {
			return nil, fmt.Errorf("%w: symbol table not canonical", ErrCorrupt)
		}
	}
	var code uint64
	var prevLen uint
	for i := range codes {
		code <<= codes[i].length - prevLen
		codes[i].code = code
		prevLen = codes[i].length
		code++
	}
	// Decode with a (length → first code, offset) table.
	type lenGroup struct {
		first uint64 // canonical first code of this length
		start int    // index into codes of the first symbol of this length
		count int
	}
	groups := make(map[uint]lenGroup)
	for i, c := range codes {
		g, ok := groups[c.length]
		if !ok {
			g = lenGroup{first: c.code, start: i}
		}
		g.count++
		groups[c.length] = g
	}
	r := bitio.NewReader(buf)
	out := make([]int64, n)
	for i := range out {
		var acc uint64
		var l uint
		for {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("%w: truncated bitstream", ErrCorrupt)
			}
			acc = acc<<1 | uint64(bit)
			l++
			if g, ok := groups[l]; ok && acc >= g.first && acc < g.first+uint64(g.count) {
				out[i] = codes[g.start+int(acc-g.first)].symbol
				break
			}
			if l > maxCodeLen {
				return nil, fmt.Errorf("%w: no code within %d bits", ErrCorrupt, maxCodeLen)
			}
		}
	}
	if r.Remaining() >= 8 {
		return nil, fmt.Errorf("%w: %d trailing bits", ErrCorrupt, r.Remaining())
	}
	return out, nil
}
