package colenc

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"deepsqueeze/internal/huffman"
)

// freshEncodeBest is EncodeBest as it was before candidates shared scratch:
// every applicable encoding into a buffer of its own, tried in tag order and
// replaced only when strictly smaller.
func freshEncodeBest(values []int64) []byte {
	best, bestEnc := EncodeVarints(values), EncVarint
	try := func(enc Encoding, buf []byte) {
		if len(buf) < len(best) {
			best, bestEnc = buf, enc
		}
	}
	try(EncDelta, EncodeDelta(values))
	try(EncFOR, EncodeFOR(values))
	if distinctUpTo(values, huffmanMaxAlphabet+1) <= huffmanMaxAlphabet {
		try(EncHuffman, huffman.Encode(values))
	}
	return append([]byte{byte(bestEnc)}, best...)
}

// EncodeBest builds its candidates in pooled scratch; none of it may show in
// the result. Streams that each offered encoding wins, long and short in turn so the
// scratch holds stale bytes past the current candidate's end, from 8
// goroutines in different orders, must equal the fresh-buffer selector's
// output — and one stream must stay intact while the next is encoded.
func TestEncodeBestReusedStateIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fill := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	streams := [][]int64{
		nil,
		{7},
		fill(3000, func(i int) int64 { return int64(rng.Int63()) }),             // varint
		fill(2500, func(i int) int64 { return 1e12 + int64(i)*3 }),              // delta
		fill(2000, func(i int) int64 { return int64(i / 500) }),                 // runs
		fill(1500, func(i int) int64 { return 1000 + int64(rng.Intn(13)) }),     // FOR
		fill(4000, func(i int) int64 { return int64(rng.ExpFloat64()) * 1000 }), // Huffman
		fill(5000, func(i int) int64 { return int64(rng.Intn(50) / 49) }),       // sparse binary
		fill(huffmanMaxAlphabet+10, func(i int) int64 { return int64(i) }),      // more distinct values than Huffman takes
		fill(40, func(i int) int64 { return int64(rng.Intn(5)) }),
	}
	want := make([][]byte, len(streams))
	won := map[Encoding]bool{}
	for i, v := range streams {
		want[i] = freshEncodeBest(v)
		won[Encoding(want[i][0])] = true
	}
	for _, enc := range []Encoding{EncVarint, EncDelta, EncFOR, EncHuffman} {
		if !won[enc] {
			t.Errorf("no stream is encoded as %v", enc)
		}
	}
	if won[EncRLE] || won[EncBitmap] {
		t.Errorf("a retired encoding won: %v", won)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			var prev, prevWant []byte
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(streams)) {
				got := EncodeBest(streams[i])
				if !bytes.Equal(got, want[i]) {
					t.Errorf("stream %d: %v encoding of %d bytes, fresh buffers give %v of %d",
						i, Encoding(got[0]), len(got), Encoding(want[i][0]), len(want[i]))
				}
				if !bytes.Equal(prev, prevWant) {
					t.Errorf("stream %d's encoding overwrote the previous result", i)
				}
				prev, prevWant = got, want[i]
			}
		}(int64(g))
	}
	wg.Wait()
}
