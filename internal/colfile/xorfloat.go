package colfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"deepsqueeze/internal/bitio"
)

// XOR float compression in the style of Facebook's Gorilla TSDB: each value
// is XORed with its predecessor; slowly-varying sensor streams (the Monitor
// workload) produce mostly-zero XOR words that pack into a few bits.
// PackFloats offers this layout alongside raw and dictionary layouts and
// keeps whichever is smallest.
//
// Per value after the first: bit 0 → identical to predecessor; bits 1 +
// 6-bit leading-zero count + 6-bit (significant-bit count − 1) + the
// significant bits.
func packFloatsXOR(values []float64) []byte {
	out := binary.AppendUvarint([]byte{chunkNumXor}, uint64(len(values)))
	if len(values) == 0 {
		return out
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(values[0]))
	w := bitio.NewAppendWriter(out)
	prev := math.Float64bits(values[0])
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.WriteBit(0)
			continue
		}
		w.WriteBit(1)
		lz := bits.LeadingZeros64(x)
		if lz > 63 {
			lz = 63
		}
		tz := bits.TrailingZeros64(x)
		sig := 64 - lz - tz
		w.WriteBits(uint64(lz), 6)
		w.WriteBits(uint64(sig-1), 6)
		w.WriteBits(x>>uint(tz), uint(sig))
	}
	return w.Bytes()
}

// unpackFloatsXOR inverts packFloatsXOR (excluding the leading layout tag,
// which the caller has consumed). max < 0 disables the expected-count bound;
// either way the declared count is checked against the bitstream length
// (every value after the first costs at least one bit) before allocating.
func unpackFloatsXOR(body []byte, max int) ([]float64, error) {
	n, sz := binary.Uvarint(body)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: xor float count", ErrCorrupt)
	}
	if max >= 0 && n > uint64(max) {
		return nil, fmt.Errorf("%w: xor float count %d exceeds expected maximum %d", ErrCorrupt, n, max)
	}
	body = body[sz:]
	if n == 0 {
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: trailing xor bytes", ErrCorrupt)
		}
		return []float64{}, nil
	}
	if len(body) < 8 {
		return nil, fmt.Errorf("%w: missing first value", ErrCorrupt)
	}
	if n-1 > uint64(len(body)-8)*8 {
		return nil, fmt.Errorf("%w: xor float count %d exceeds bitstream", ErrCorrupt, n)
	}
	prev := binary.LittleEndian.Uint64(body)
	r := bitio.NewReader(body[8:])
	out := make([]float64, n)
	out[0] = math.Float64frombits(prev)
	for i := uint64(1); i < n; i++ {
		bit, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		if bit == 0 {
			out[i] = math.Float64frombits(prev)
			continue
		}
		lz, err := r.ReadBits(6)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		sigM1, err := r.ReadBits(6)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		sig := uint(sigM1) + 1
		if uint(lz)+sig > 64 {
			return nil, fmt.Errorf("%w: xor window %d+%d", ErrCorrupt, lz, sig)
		}
		val, err := r.ReadBits(sig)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		tz := 64 - uint(lz) - sig
		x := val << tz
		prev ^= x
		out[i] = math.Float64frombits(prev)
	}
	if r.Remaining() >= 8 {
		return nil, fmt.Errorf("%w: %d trailing xor bits", ErrCorrupt, r.Remaining())
	}
	return out, nil
}
