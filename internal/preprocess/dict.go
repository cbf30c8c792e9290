// Package preprocess implements the first stage of DeepSqueeze's pipeline
// (paper §4): dictionary encoding for categorical columns, min-max scaling
// and error-bounded quantization for numerical columns, skew-aware model
// alphabets, and high-cardinality fallback detection. Every transformation
// is invertible (exactly for categorical data, within the error bound for
// quantized numerics) and serializable into the archive header.
package preprocess

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"deepsqueeze/internal/codec"
)

// ErrCorrupt is returned when serialized preprocessing metadata fails
// validation.
var ErrCorrupt = errors.New("preprocess: corrupt metadata")

// Dictionary maps distinct categorical values to dense integer codes.
// Codes are assigned by descending frequency (ties broken lexicographically)
// so that code magnitude correlates with rarity — the skew-handling and
// rank-coding stages both rely on "small code = frequent value".
type Dictionary struct {
	values []string
	codes  map[string]int
}

// BuildDictionary constructs a dictionary from a column of values.
func BuildDictionary(column []string) *Dictionary {
	freq := make(map[string]int)
	for _, v := range column {
		freq[v]++
	}
	values := make([]string, 0, len(freq))
	for v := range freq {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool {
		if freq[values[i]] != freq[values[j]] {
			return freq[values[i]] > freq[values[j]]
		}
		return values[i] < values[j]
	})
	return newDictionary(values)
}

func newDictionary(values []string) *Dictionary {
	codes := make(map[string]int, len(values))
	for i, v := range values {
		codes[v] = i
	}
	return &Dictionary{values: values, codes: codes}
}

// Len returns the number of distinct values.
func (d *Dictionary) Len() int { return len(d.values) }

// Code returns the code for v; the boolean reports membership.
func (d *Dictionary) Code(v string) (int, bool) {
	c, ok := d.codes[v]
	return c, ok
}

// Value returns the value for code c.
func (d *Dictionary) Value(c int) string { return d.values[c] }

// Encode maps a column to codes. Every value must be in the dictionary.
func (d *Dictionary) Encode(column []string) ([]int, error) {
	out := make([]int, len(column))
	for i, v := range column {
		c, ok := d.codes[v]
		if !ok {
			return nil, fmt.Errorf("preprocess: value %q not in dictionary", v)
		}
		out[i] = c
	}
	return out, nil
}

// Decode maps codes back to values.
func (d *Dictionary) Decode(codes []int) ([]string, error) {
	out := make([]string, len(codes))
	if err := d.decodeInto(out, codes); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeInto maps codes back to values in dst, which is at least
// len(codes) long: dst[i] is the value of codes[i].
func (d *Dictionary) decodeInto(dst []string, codes []int) error {
	dst = dst[:len(codes)]
	for i, c := range codes {
		if c < 0 || c >= len(d.values) {
			return fmt.Errorf("preprocess: code %d outside dictionary of %d", c, len(d.values))
		}
		dst[i] = d.values[c]
	}
	return nil
}

// AppendBinary serializes the dictionary: count varint, then
// length-prefixed strings in code order.
func (d *Dictionary) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.values)))
	for _, v := range d.values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// appendPacked serializes the dictionary with its body DEFLATE-compressed:
// raw-size varint, frame-size varint, then the compressed AppendBinary form.
// Residual-digit plans use this shape — their dictionaries carry every
// distinct value of a high-cardinality column, orders of magnitude larger
// than a model alphabet, and the frequency-sorted value strings share long
// prefixes that DEFLATE folds away.
func (d *Dictionary) appendPacked(dst []byte) []byte {
	raw := d.AppendBinary(nil)
	body := codec.Deflate(raw)
	dst = binary.AppendUvarint(dst, uint64(len(raw)))
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// decodePackedDictionary parses a dictionary serialized by appendPacked and
// returns it with the number of bytes consumed.
func decodePackedDictionary(buf []byte) (*Dictionary, int, error) {
	rawLen, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("%w: missing packed dictionary size", ErrCorrupt)
	}
	pos := sz
	frameLen, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("%w: missing packed dictionary frame size", ErrCorrupt)
	}
	pos += sz
	if frameLen > uint64(len(buf)-pos) {
		return nil, 0, fmt.Errorf("%w: packed dictionary overruns buffer", ErrCorrupt)
	}
	// DEFLATE expands at most ~1032:1, so a raw size past that bound cannot
	// be honest — reject it before it becomes an allocation amplifier.
	if rawLen > (frameLen+64)*1100 {
		return nil, 0, fmt.Errorf("%w: packed dictionary claims %d raw bytes from a %d-byte frame", ErrCorrupt, rawLen, frameLen)
	}
	raw, err := codec.Inflate(buf[pos:pos+int(frameLen)], int(rawLen))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: packed dictionary: %v", ErrCorrupt, err)
	}
	if uint64(len(raw)) != rawLen {
		return nil, 0, fmt.Errorf("%w: packed dictionary of %d bytes, declared %d", ErrCorrupt, len(raw), rawLen)
	}
	d, used, err := DecodeDictionary(raw)
	if err != nil {
		return nil, 0, err
	}
	if used != len(raw) {
		return nil, 0, fmt.Errorf("%w: trailing packed dictionary bytes", ErrCorrupt)
	}
	return d, pos + int(frameLen), nil
}

// DecodeDictionary parses a dictionary serialized by AppendBinary and
// returns it with the number of bytes consumed.
func DecodeDictionary(buf []byte) (*Dictionary, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("%w: missing dictionary count", ErrCorrupt)
	}
	pos := sz
	if n > uint64(len(buf)) {
		return nil, 0, fmt.Errorf("%w: dictionary count %d exceeds buffer", ErrCorrupt, n)
	}
	values := make([]string, n)
	for i := range values {
		l, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("%w: truncated dictionary entry", ErrCorrupt)
		}
		pos += sz
		if uint64(len(buf)-pos) < l {
			return nil, 0, fmt.Errorf("%w: dictionary entry overruns buffer", ErrCorrupt)
		}
		values[i] = string(buf[pos : pos+int(l)])
		pos += int(l)
	}
	return newDictionary(values), pos, nil
}
