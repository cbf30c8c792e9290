package colenc

import (
	"encoding/binary"
	"fmt"
)

// Run-length streams (tag EncRLE) are (value, run-length) varint pairs
// prefixed by the total value count. Writers no longer produce them — under
// the codec layer's DEFLATE and range passes they never won archive bytes —
// but archives written before that still hold them, so they decode.

// DecodeRLEMax decodes a run-length stream, rejecting counts above max (max
// < 0 disables the bound). A single run pair a few bytes long can legally
// cover the whole declared count, so without an external bound a corrupt
// count drives an arbitrarily large output allocation.
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
