package huffman

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refNode, refCodeLengths, refCanonical and refEncode are the map-based
// encoder the dense tables replaced, kept verbatim in substance as the
// reference every encoding must match byte for byte.
type refNode struct {
	freq        uint64
	symbol      int64
	left, right *refNode
	order       int
}

func refCodeLengths(freq map[int64]uint64) map[int64]uint {
	if len(freq) == 0 {
		return map[int64]uint{}
	}
	if len(freq) == 1 {
		for s := range freq {
			return map[int64]uint{s: 1}
		}
	}
	nodes := make([]*refNode, 0, len(freq))
	for s, f := range freq {
		nodes = append(nodes, &refNode{freq: f, symbol: s})
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].freq != nodes[j].freq {
			return nodes[i].freq < nodes[j].freq
		}
		return nodes[i].symbol < nodes[j].symbol
	})
	for i, n := range nodes {
		n.order = i
	}
	leaves, internal := nodes, []*refNode{}
	next := len(nodes)
	pop := func() *refNode {
		switch {
		case len(leaves) == 0:
			n := internal[0]
			internal = internal[1:]
			return n
		case len(internal) == 0:
			n := leaves[0]
			leaves = leaves[1:]
			return n
		case leaves[0].freq < internal[0].freq ||
			(leaves[0].freq == internal[0].freq && leaves[0].order < internal[0].order):
			n := leaves[0]
			leaves = leaves[1:]
			return n
		default:
			n := internal[0]
			internal = internal[1:]
			return n
		}
	}
	for len(leaves)+len(internal) > 1 {
		a, b := pop(), pop()
		internal = append(internal, &refNode{freq: a.freq + b.freq, left: a, right: b, order: next})
		next++
	}
	root := pop()
	lengths := make(map[int64]uint, len(freq))
	var walk func(n *refNode, depth uint)
	walk = func(n *refNode, depth uint) {
		if n.left == nil {
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

func refEncode(values []int64) []byte {
	freq := make(map[int64]uint64)
	for _, v := range values {
		freq[v]++
	}
	var codes []symCode
	for s, l := range refCodeLengths(freq) {
		codes = append(codes, symCode{symbol: s, length: l})
	}
	sort.Slice(codes, func(i, j int) bool {
		if codes[i].length != codes[j].length {
			return codes[i].length < codes[j].length
		}
		return codes[i].symbol < codes[j].symbol
	})
	var code uint64
	var prevLen uint
	bySym := make(map[int64]symCode, len(codes))
	for i := range codes {
		code <<= codes[i].length - prevLen
		codes[i].code = code
		prevLen = codes[i].length
		code++
		bySym[codes[i].symbol] = codes[i]
	}
	out := binary.AppendUvarint(nil, uint64(len(values)))
	out = binary.AppendUvarint(out, uint64(len(codes)))
	for _, c := range codes {
		out = binary.AppendUvarint(out, zigzag(c.symbol))
	}
	for _, c := range codes {
		out = append(out, byte(c.length))
	}
	// One bit at a time, MSB first, zero-padded: the writer before words.
	var bits []byte
	var cur byte
	var nCur uint
	for _, v := range values {
		c := bySym[v]
		for i := int(c.length) - 1; i >= 0; i-- {
			cur = cur<<1 | byte(c.code>>uint(i)&1)
			if nCur++; nCur == 8 {
				bits, cur, nCur = append(bits, cur), 0, 0
			}
		}
	}
	if nCur > 0 {
		bits = append(bits, cur<<(8-nCur))
	}
	return append(out, bits...)
}

// Dense and map tables are the same code: streams on both sides of the
// density threshold, and the edge cases — empty, one symbol, negative
// values, the full int64 range, a 65 536-value alphabet — encode to the
// reference's bytes, through Encode and through AppendEncode after a prefix.
func TestDenseEncodingMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	fill := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	// n values spanning exactly span+1 integers from lo: the first two are
	// the extremes, the rest skewed towards lo.
	spanning := func(n int, lo int64, span uint64) []int64 {
		return fill(n, func(i int) int64 {
			switch i {
			case 0:
				return lo
			case 1:
				return lo + int64(span)
			}
			return lo + int64(uint64(rng.ExpFloat64()*float64(span)/8)%(span+1))
		})
	}
	type tc struct {
		name   string
		values []int64
		dense  bool
	}
	cases := []tc{
		{"empty", nil, false},
		{"single value", []int64{-7}, true},
		{"single symbol", fill(500, func(int) int64 { return 42 }), true},
		{"negative", fill(1000, func(int) int64 { return -int64(rng.Intn(9)) - 3 }), true},
		{"ranks", fill(4096, func(int) int64 { return int64(rng.ExpFloat64() * 2) }), true},
		{"just dense", spanning(1000, -50, 4*1000+255), true},
		{"just sparse", spanning(1000, -50, 4*1000+256), false},
		{"int64 extremes", []int64{math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1, 1}, false},
		{"int64 extremes only", []int64{math.MaxInt64, math.MinInt64, math.MaxInt64}, false},
		{"near MaxInt64", fill(300, func(int) int64 { return math.MaxInt64 - int64(rng.Intn(20)) }), true},
		{"near MinInt64", fill(300, func(int) int64 { return math.MinInt64 + int64(rng.Intn(20)) }), true},
		{"wide sparse", fill(2000, func(int) int64 { return int64(rng.Intn(50)) * 1_000_003 }), false},
		{"alphabet 65536", fill(1<<17, func(i int) int64 { return int64(i%(1<<16)) - 1000 }), true},
		{"alphabet 65536 sparse", fill(1<<16, func(i int) int64 { return int64(i) * 7 }), false},
	}
	for _, c := range cases {
		lo, hi := int64(0), int64(0)
		if len(c.values) > 0 {
			lo, hi = c.values[0], c.values[0]
			for _, v := range c.values {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		if got := len(c.values) > 0 && denseSpan(lo, hi, len(c.values)); got != c.dense {
			t.Errorf("%s: dense path = %v, want %v", c.name, got, c.dense)
		}
		want := refEncode(c.values)
		if got := Encode(c.values); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode differs from the map reference (%d vs %d bytes)", c.name, len(got), len(want))
		}
		prefix := []byte{9, 8, 7}
		if got := AppendEncode(append([]byte(nil), prefix...), c.values); !bytes.Equal(got, append(prefix, want...)) {
			t.Errorf("%s: AppendEncode does not continue its prefix with Encode's bytes", c.name)
		}
		if len(c.values) > 0 {
			roundTrip(t, c.values)
		}
	}
}

// Random streams of random alphabets and spans match the reference too.
func TestDenseEncodingMatchesMapReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(2000)
		alpha := 1 + rng.Intn(300)
		stride := int64(1 + rng.Intn(40))
		base := rng.Int63n(1<<40) - 1<<39
		values := make([]int64, n)
		for i := range values {
			values[i] = base + stride*int64(rng.Intn(alpha))
		}
		if got, want := Encode(values), refEncode(values); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (n %d, alphabet %d, stride %d): Encode differs from the map reference", trial, n, alpha, stride)
		}
	}
}
