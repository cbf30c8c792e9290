package colenc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"deepsqueeze/internal/bitio"
)

// EncodeFOR applies frame-of-reference bit-packing: the minimum value is
// stored once and every value is packed as (v - min) in the fewest bits that
// hold the range. This is the workhorse for quantized bucket indexes and
// integerized codes, whose ranges are small; an all-equal stream packs into
// zero bits.
//
// Layout: count varint | min zigzag-varint | width byte | packed bits.
func EncodeFOR(values []int64) []byte { return appendFOR(nil, values) }

func appendFOR(out []byte, values []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(values)))
	if len(values) == 0 {
		return out
	}
	min, max := values[0], values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	out = binary.AppendUvarint(out, Zigzag(min))
	span := uint64(max - min)
	width := uint(bits.Len64(span)) // 0 when all values equal
	out = append(out, byte(width))
	w := bitio.NewAppendWriter(out)
	for _, v := range values {
		w.WriteBits(uint64(v-min), width)
	}
	return w.Bytes()
}

// DecodeFOR inverts EncodeFOR with no expected-count bound.
func DecodeFOR(buf []byte) ([]int64, error) { return DecodeFORMax(buf, -1) }

// DecodeFORMax inverts EncodeFOR, rejecting counts above max (max < 0
// disables the bound). The bound matters most at width 0 — all-equal values
// pack into zero bits, so the buffer length puts no ceiling on the declared
// count and a corrupt count would otherwise drive an arbitrary allocation.
func DecodeFORMax(buf []byte, max int) ([]int64, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing count", ErrCorrupt)
	}
	if err := checkCount(n, max); err != nil {
		return nil, err
	}
	buf = buf[sz:]
	if n == 0 {
		if len(buf) != 0 {
			return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
		}
		return []int64{}, nil
	}
	minz, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing min", ErrCorrupt)
	}
	buf = buf[sz:]
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: missing width", ErrCorrupt)
	}
	width := uint(buf[0])
	if width > 64 {
		return nil, fmt.Errorf("%w: width %d", ErrCorrupt, width)
	}
	buf = buf[1:]
	if width > 0 && n > uint64(len(buf))*8/uint64(width) {
		// Also guards the n*width product below against overflow.
		return nil, fmt.Errorf("%w: count %d exceeds packed section", ErrCorrupt, n)
	}
	need := (n*uint64(width) + 7) / 8
	if uint64(len(buf)) != need {
		return nil, fmt.Errorf("%w: packed section %d bytes, want %d", ErrCorrupt, len(buf), need)
	}
	min := Unzigzag(minz)
	r := bitio.NewReader(buf)
	out := make([]int64, n)
	for i := range out {
		v, err := r.ReadBits(width)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		out[i] = min + int64(v)
	}
	return out, nil
}
