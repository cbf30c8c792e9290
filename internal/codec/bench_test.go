package codec

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkDecompressInts sizes the integer-stream decode layer on its own:
// the frozen range-cpt frames in testdata, and adaptive range frames of
// skewed streams — mostly small symbols with a quarter drawn uniformly, like
// failure ranks — over alphabets 2, 8, 16, 17 (either side of the array
// scan's limit) and 123, of 256 and 4 096 symbols. It reports ns per decoded
// symbol.
func BenchmarkDecompressInts(b *testing.B) {
	type frame struct {
		name  string
		buf   []byte
		count int
	}
	var frames []frame
	for _, l := range readFrozen(b, "testdata/frozen.txt") {
		frames = append(frames, frame{l.name, l.buf, len(l.values)})
	}
	rng := rand.New(rand.NewSource(1))
	for _, alphabet := range []int{2, 8, 16, 17, 123} {
		for _, count := range []int{256, 4096} {
			values := make([]int64, count)
			for i := range values {
				v := int64(rng.ExpFloat64() * float64(alphabet) / 8)
				if rng.Intn(4) == 0 {
					v = rng.Int63n(int64(alphabet))
				}
				values[i] = min(v, int64(alphabet-1))
			}
			name := fmt.Sprintf("range-adaptive/alphabet=%d/n=%d", alphabet, count)
			frames = append(frames, frame{name, appendRangeAdaptive(nil, values, 0, alphabet), count})
		}
	}
	for _, f := range frames {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecompressInts(f.buf, f.count); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.count), "ns/symbol")
		})
	}
}
