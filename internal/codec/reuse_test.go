package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"deepsqueeze/internal/colenc"
	"deepsqueeze/internal/rangecoder"
)

// freshDeflate is CompressBytes as it was before writers were reused: a new
// flate.Writer and a new buffer per call.
func freshDeflate(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(TagDeflate)
	if fw, err := flate.NewWriter(&buf, flate.BestCompression); err == nil {
		if _, err := fw.Write(payload); err == nil {
			if err := fw.Close(); err == nil && buf.Len() < len(payload)+1 {
				return buf.Bytes()
			}
		}
	}
	return append([]byte{TagStored}, payload...)
}

// freshCompressInts is CompressInts as it was before candidates shared
// scratch: one freshly allocated frame per eligible codec, tried in tag order
// and replaced only when strictly smaller. gated offers DEFLATE only where
// deflateMayPay admits it, as CompressInts does; ungated, it is offered to
// every stream, as it was before the gate.
func freshCompressInts(values []int64, mask Mask, gated bool) []byte {
	mask = mask.normalize()
	enc := colenc.EncodeBest(values)
	best := append([]byte{TagStored}, enc...)
	if mask&MaskDeflate != 0 && (!gated || deflateMayPay(enc)) {
		if f := freshDeflate(enc); len(f) < len(best) {
			best = f
		}
	}
	if mask&MaskRangeAdaptive == 0 || len(values) == 0 || len(values) > maxRangeValues {
		return best
	}
	base, hi := values[0], values[0]
	for _, v := range values[1:] {
		base, hi = min(base, v), max(hi, v)
	}
	span := uint64(hi) - uint64(base)
	if span >= maxRangeAlphabet {
		return best
	}
	f := binary.AppendUvarint([]byte{TagRangeAdaptive}, uint64(len(values)))
	f = binary.AppendUvarint(binary.AppendVarint(f, base), span+1)
	m, e := rangecoder.NewAdaptiveModel(int(span)+1, rangeInc), rangecoder.NewEncoder()
	for _, v := range values {
		m.EncodeSymbol(e, int(v-base))
	}
	if f = append(f, e.Bytes()...); len(f) < len(best) {
		best = f
	}
	return best
}

// streamCorpus imitates the integer streams an archive holds, plus the edge
// shapes of the selector: nothing to model, nothing to choose, no alphabet.
func streamCorpus() map[string][]int64 {
	rng := rand.New(rand.NewSource(31))
	fill := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	walk := int64(128)
	return map[string][]int64{
		"codes": fill(1024, func(int) int64 {
			walk = min(255, max(0, walk+int64(rng.Intn(9))-4))
			return walk
		}),
		"cat-ranks":      skewedValues(1024, 7, 32),
		"binary-xor":     fill(1024, func(int) int64 { return int64(rng.Intn(40) / 39) }),
		"numeric-deltas": fill(1024, func(int) int64 { return int64(rng.NormFloat64() * 3) }),
		"tiny":           fill(32, func(int) int64 { return int64(rng.Intn(1 << 20)) }),
		"all-equal":      fill(1000, func(int) int64 { return -17 }),
		"empty":          nil,
		"wide-alphabet":  fill(600, func(i int) int64 { return int64(i%2) * (maxRangeAlphabet + 5) }),
		"incompressible": fill(512, func(int) int64 { return rng.Int63() - 1<<62 }),
	}
}

// Candidate scratch and DEFLATE writers are reused across streams, masks and
// goroutines; none of it may show in a frame. Every stream of the corpus
// under every mask, in a different order on each of 8 goroutines (a random
// half of the jobs each), must come out byte for byte as the fresh-state
// selector builds it under the same DEFLATE gate: the same tag, the same
// bytes. (TestCompressIntsDeflateGate tests the gate itself.)
func TestCompressIntsReusedStateIsByteIdentical(t *testing.T) {
	type job struct {
		name   string
		values []int64
		mask   Mask
		want   []byte
	}
	var jobs []job
	tags := map[byte]int{}
	bytesWant := map[string][]byte{} // the stream's ByteOnly frame, framed again as bytes
	for name, values := range streamCorpus() {
		for mask := Mask(0); mask <= Auto; mask++ {
			want := freshCompressInts(values, mask, true)
			tags[want[0]]++
			jobs = append(jobs, job{name, values, mask, want})
			if mask == ByteOnly {
				bytesWant[name] = freshDeflate(want)
			}
		}
	}
	for tag := TagStored; tag <= TagRangeAdaptive; tag++ {
		if tags[tag] == 0 {
			t.Errorf("no stream of the corpus is framed as %s", Name(tag))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			order := rand.New(rand.NewSource(seed)).Perm(len(jobs))
			for _, i := range order[:len(jobs)/2] { // each job runs on about four of the eight
				j := jobs[i]
				if got := CompressInts(j.values, j.mask); !bytes.Equal(got, j.want) {
					t.Errorf("%s under %v: %s frame of %d bytes, fresh state builds a %s frame of %d",
						j.name, j.mask, Name(got[0]), len(got), Name(j.want[0]), len(j.want))
				}
				if j.mask == ByteOnly { // byte streams share the writers
					if got := CompressBytes(j.want); !bytes.Equal(got, bytesWant[j.name]) {
						t.Errorf("%s: CompressBytes differs from a fresh writer's frame", j.name)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
