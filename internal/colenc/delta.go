package colenc

import "encoding/binary"

// EncodeDelta stores the first value verbatim and every subsequent value as
// a zigzag-varint difference from its predecessor. Sorted or slowly-varying
// sequences (tuple indexes grouped by expert, truncated codes) compress to a
// byte or two per value.
func EncodeDelta(values []int64) []byte { return appendDelta(nil, values) }

func appendDelta(out []byte, values []int64) []byte {
	out = binary.AppendUvarint(out, uint64(len(values)))
	prev := int64(0)
	for _, v := range values {
		out = binary.AppendUvarint(out, Zigzag(v-prev))
		prev = v
	}
	return out
}

// DecodeDelta inverts EncodeDelta.
func DecodeDelta(buf []byte) ([]int64, error) {
	deltas, err := DecodeVarints(buf)
	if err != nil {
		return nil, err
	}
	prev := int64(0)
	for i, d := range deltas {
		prev += d
		deltas[i] = prev
	}
	return deltas, nil
}
