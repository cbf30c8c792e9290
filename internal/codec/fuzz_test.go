package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"deepsqueeze/internal/colenc"
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

// fuzzValues reads data as consecutive zigzag varints, up to the first that
// does not parse: short fuzz inputs make small values and repeats, long
// ones wide values.
func fuzzValues(data []byte) []int64 {
	var out []int64
	for len(data) > 0 {
		v, n := binary.Varint(data)
		if n <= 0 {
			break
		}
		out, data = append(out, v), data[n:]
	}
	return out
}

// FuzzCompressInts: for any stream and mask, CompressInts' frame decodes to
// the stream, comes out the same on a second call, is the ungated selector's
// frame byte for byte wherever the DEFLATE gate admits the stream, and is
// never larger than the best frame without DEFLATE — stored, or range where
// the mask allows it. Seeded with the reuse corpus's streams and the gate
// test's shapes.
func FuzzCompressInts(f *testing.F) {
	seed := func(values []int64) {
		var data []byte
		for _, v := range values {
			data = binary.AppendVarint(data, v)
		}
		f.Add(data, uint8(Auto))
	}
	for _, values := range streamCorpus() {
		seed(values)
	}
	seed([]int64{5, 900_001, -17, 123_456_789, 5, 900_001, -17, 123_456_789})
	seed(skewedValues(300, 1000, 11))
	f.Fuzz(func(t *testing.T, data []byte, m uint8) {
		values := fuzzValues(data)
		mask := (Mask(m) & Auto).normalize()
		frame := CompressInts(values, mask)
		got, err := DecompressInts(frame, len(values))
		if err != nil {
			t.Fatalf("%s frame of %d values: %v", Name(frame[0]), len(values), err)
		}
		if !slices.Equal(got, values) {
			t.Fatalf("%s frame decodes to %d values, not the %d compressed", Name(frame[0]), len(got), len(values))
		}
		if again := CompressInts(values, mask); !bytes.Equal(again, frame) {
			t.Fatalf("second call built a %s frame of %d bytes, the first a %s frame of %d", Name(again[0]), len(again), Name(frame[0]), len(frame))
		}
		if deflateMayPay(colenc.EncodeBest(values)) {
			if want := freshCompressInts(values, mask, false); !bytes.Equal(frame, want) {
				t.Fatalf("gate admits the stream, but the frame is %s of %d bytes, ungated %s of %d", Name(frame[0]), len(frame), Name(want[0]), len(want))
			}
		}
		if floor := freshCompressInts(values, mask&^MaskDeflate, false); len(frame) > len(floor) {
			t.Fatalf("%s frame of %d bytes, larger than the %s frame of %d", Name(frame[0]), len(frame), Name(floor[0]), len(floor))
		}
	})
}
