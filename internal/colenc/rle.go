package colenc

import (
	"encoding/binary"
	"fmt"
)

// EncodeRLE encodes values as (value, run-length) varint pairs prefixed by
// the total value count. Long runs — the XOR'd binary failure streams and
// expert labels DeepSqueeze produces — collapse to a few bytes.
func EncodeRLE(values []int64) []byte { return appendRLE(nil, values) }

func appendRLE(out []byte, values []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(values)))
	i := 0
	for i < len(values) {
		j := i + 1
		for j < len(values) && values[j] == values[i] {
			j++
		}
		out = binary.AppendUvarint(out, Zigzag(values[i]))
		out = binary.AppendUvarint(out, uint64(j-i))
		i = j
	}
	return out
}

// DecodeRLE inverts EncodeRLE with no expected-count bound.
func DecodeRLE(buf []byte) ([]int64, error) { return DecodeRLEMax(buf, -1) }

// DecodeRLEMax inverts EncodeRLE, rejecting counts above max (max < 0
// disables the bound). A single run pair a few bytes long can legally cover
// the whole declared count, so without an external bound a corrupt count
// drives an arbitrarily large output allocation.
func DecodeRLEMax(buf []byte, max int) ([]int64, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing count", ErrCorrupt)
	}
	if err := checkCount(n, max); err != nil {
		return nil, err
	}
	buf = buf[sz:]
	const maxPrealloc = 1 << 24
	cap := n
	if cap > maxPrealloc {
		cap = maxPrealloc
	}
	out := make([]int64, 0, cap)
	for uint64(len(out)) < n {
		vz, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated run value", ErrCorrupt)
		}
		buf = buf[sz:]
		run, sz := binary.Uvarint(buf)
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated run length", ErrCorrupt)
		}
		buf = buf[sz:]
		if run == 0 || uint64(len(out))+run > n {
			return nil, fmt.Errorf("%w: run length %d overflows count %d", ErrCorrupt, run, n)
		}
		v := Unzigzag(vz)
		for k := uint64(0); k < run; k++ {
			out = append(out, v)
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	return out, nil
}
