package codec

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecompressInts: on any frame and bound, DecompressInts returns at most
// max values or an ErrCorrupt error, and never panics. Seeded with a frame of every tag: the frozen
// range-cpt frames, colenc's frozen run-length and bitmap bodies as stored
// and as DEFLATE frames, and adaptive range frames of the same values. The
// bound stays below 2^16, so that a mutated count costs at most a few
// hundred kilobytes.
func FuzzDecompressInts(f *testing.F) {
	seeds := readFrozen(f, "testdata/frozen.txt")
	var s scratch
	for _, l := range readFrozen(f, "../colenc/testdata/frozen.txt") {
		seeds = append(seeds,
			frozenLine{buf: appendStored(nil, l.buf), values: l.values},
			frozenLine{buf: bytes.Clone(s.deflate(l.buf)), values: l.values},
			frozenLine{buf: CompressInts(l.values, MaskStored|MaskRangeAdaptive), values: l.values})
	}
	tags := map[byte]bool{}
	for _, s := range seeds {
		tags[s.buf[0]] = true
		f.Add(s.buf, uint16(len(s.values)))
	}
	if len(tags) != 4 {
		f.Fatalf("seed frames carry tags %v, want all four", tags)
	}
	f.Fuzz(func(t *testing.T, frame []byte, bound uint16) {
		got, err := DecompressInts(frame, int(bound))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if len(got) > int(bound) {
			t.Fatalf("decoded %d values past the bound %d", len(got), bound)
		}
	})
}
