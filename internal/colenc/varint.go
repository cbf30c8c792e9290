// Package colenc implements the lightweight columnar encodings DeepSqueeze
// materializes failures and codes with: varint, zigzag, delta,
// frame-of-reference bit-packing, Huffman, and a generic "pick the smallest"
// selector, plus decoders for the run-length and bitmap streams earlier
// writers also chose. Every encoding is self-describing: the value count is
// embedded, and decoding validates the buffer before trusting it.
package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is returned when an encoded buffer fails validation.
var ErrCorrupt = errors.New("colenc: corrupt buffer")

// Zigzag maps signed integers to unsigned so small magnitudes (of either
// sign) become small values: 0→0, -1→1, 1→2, -2→3, ...
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint appends v to dst in LEB128 form.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// EncodeVarints encodes signed values with zigzag + LEB128.
func EncodeVarints(values []int64) []byte { return appendVarints(nil, values) }

func appendVarints(out []byte, values []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(values)))
	for _, v := range values {
		out = binary.AppendUvarint(out, Zigzag(v))
	}
	return out
}

// DecodeVarints decodes a buffer produced by EncodeVarints.
func DecodeVarints(buf []byte) ([]int64, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing count", ErrCorrupt)
	}
	buf = buf[sz:]
	if n > uint64(len(buf))+1 { // each value takes ≥1 byte
		return nil, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, n)
	}
	out := make([]int64, n)
	for i := range out {
		v, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated varint at %d", ErrCorrupt, i)
		}
		out[i] = Unzigzag(v)
		buf = buf[sz:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	return out, nil
}
