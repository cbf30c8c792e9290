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

// freshDeflateLevel is DeflateLevel as it was before writers were reused: a
// new flate.Writer and a new buffer per call.
func freshDeflateLevel(payload []byte, level int) []byte {
	var buf bytes.Buffer
	buf.WriteByte(TagDeflate)
	if fw, err := flate.NewWriter(&buf, level); err == nil {
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
// and replaced only when strictly smaller.
func freshCompressInts(values []int64, mask Mask) []byte {
	mask = mask.normalize()
	enc := colenc.EncodeBest(values)
	best := append([]byte{TagStored}, enc...)
	if mask&MaskDeflate != 0 {
		if f := freshDeflateLevel(enc, flate.BestCompression); len(f) < len(best) {
			best = f
		}
	}
	if mask&(MaskRangeAdaptive|MaskRangeCPT) == 0 || len(values) == 0 || len(values) > maxRangeValues {
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
	header := func(tag byte) []byte {
		out := binary.AppendUvarint([]byte{tag}, uint64(len(values)))
		return binary.AppendUvarint(binary.AppendVarint(out, base), span+1)
	}
	if mask&MaskRangeAdaptive != 0 {
		m, e := rangecoder.NewAdaptiveModel(int(span)+1, rangeInc), rangecoder.NewEncoder()
		for _, v := range values {
			m.EncodeSymbol(e, int(v-base))
		}
		if f := append(header(TagRangeAdaptive), e.Bytes()...); len(f) < len(best) {
			best = f
		}
	}
	if mask&MaskRangeCPT != 0 {
		counts := make([]int, span+1)
		for _, v := range values {
			counts[v-base]++
		}
		t, e := newStaticTable(counts, len(counts)), rangecoder.NewEncoder()
		for _, v := range values {
			e.Encode(t.cum[v-base], uint32(t.freq[v-base]), t.tot)
		}
		if f := append(t.appendBinary(header(TagRangeCPT)), e.Bytes()...); len(f) < len(best) {
			best = f
		}
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
// selector builds it: the same tag, the same bytes.
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
			want := freshCompressInts(values, mask)
			tags[want[0]]++
			jobs = append(jobs, job{name, values, mask, want})
			if mask == ByteOnly {
				bytesWant[name] = freshDeflateLevel(want, flate.BestCompression)
			}
		}
	}
	for tag := TagStored; tag <= TagRangeCPT; tag++ {
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
					if got := CompressBytes(j.want, ByteOnly); !bytes.Equal(got, bytesWant[j.name]) {
						t.Errorf("%s: CompressBytes differs from a fresh writer's frame", j.name)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// An invalid level yields the stored frame and leaves nothing behind for the
// next caller, at that level or a valid one; every valid level matches a
// fresh writer's output.
func TestDeflateLevelReusedStateIsByteIdentical(t *testing.T) {
	p := bytes.Repeat([]byte("deepsqueeze "), 300)
	for round := 0; round < 2; round++ {
		for _, level := range []int{1234, flate.HuffmanOnly - 1, flate.HuffmanOnly, flate.DefaultCompression, flate.NoCompression, 1, 6, flate.BestCompression} {
			got, want := DeflateLevel(p, level), freshDeflateLevel(p, level)
			if !bytes.Equal(got, want) {
				t.Errorf("round %d, level %d: %s frame of %d bytes, a fresh writer builds a %s frame of %d",
					round, level, Name(got[0]), len(got), Name(want[0]), len(want))
			}
			if out, err := DecompressBytes(got); err != nil || !bytes.Equal(out, p) {
				t.Errorf("round %d, level %d: frame does not round trip: %v", round, level, err)
			}
		}
	}
}
