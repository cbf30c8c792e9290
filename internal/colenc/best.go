package colenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"deepsqueeze/internal/huffman"
)

// Encoding identifies one of the self-describing integer encodings.
type Encoding byte

// The available encodings. Values are part of the on-disk format; do not
// renumber.
const (
	EncVarint Encoding = iota
	EncDelta
	EncRLE
	EncFOR
	EncHuffman
	EncBitmap
)

// String returns the canonical lowercase name of the encoding.
func (e Encoding) String() string {
	switch e {
	case EncVarint:
		return "varint"
	case EncDelta:
		return "delta"
	case EncRLE:
		return "rle"
	case EncFOR:
		return "for"
	case EncHuffman:
		return "huffman"
	case EncBitmap:
		return "bitmap"
	default:
		return fmt.Sprintf("encoding(%d)", byte(e))
	}
}

// huffmanMaxAlphabet bounds the distinct-value count at which EncodeBest
// still tries Huffman; beyond it the symbol table dwarfs any gain.
const huffmanMaxAlphabet = 1 << 16

// scratch is what one EncodeBest call builds its candidates in: the smallest
// so far and the one on trial, which trade places when the trial wins.
type scratch struct{ best, cand []byte }

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// EncodeBest encodes values with varint, delta, frame-of-reference and
// Huffman and returns the smallest result, prefixed by a one-byte encoding
// tag. This mirrors the per-column encoding selection a columnar format like
// Parquet performs. Candidates are tried in tag order and replace the
// incumbent only when strictly smaller; only the winner is copied out of the
// reused scratch. Run-length and bitmap streams are not offered: behind the
// codec layer's DEFLATE and range passes they never paid (DESIGN.md §16).
func EncodeBest(values []int64) []byte {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	s.best = appendVarints(append(s.best[:0], byte(EncVarint)), values)
	try := func(enc Encoding, encode func(out []byte, values []int64) []byte) {
		s.cand = encode(append(s.cand[:0], byte(enc)), values)
		if len(s.cand) < len(s.best) {
			s.best, s.cand = s.cand, s.best
		}
	}
	try(EncDelta, appendDelta)
	try(EncFOR, appendFOR)
	// No more distinct values than values: only a stream longer than the
	// alphabet bound has to be counted.
	if len(values) <= huffmanMaxAlphabet || distinctUpTo(values, huffmanMaxAlphabet+1) <= huffmanMaxAlphabet {
		try(EncHuffman, huffman.AppendEncode)
	}
	return bytes.Clone(s.best)
}

// DecodeBest inverts EncodeBest with no expected-count bound. Prefer
// DecodeBestMax when the caller knows how many values the stream should
// hold: several encodings (RLE runs, zero-width FOR) can declare counts far
// beyond what their buffer size implies, and only an external bound stops a
// corrupt buffer from forcing a huge allocation.
func DecodeBest(buf []byte) ([]int64, error) {
	return DecodeBestMax(buf, -1)
}

// DecodeBestMax inverts EncodeBest — and decodes the run-length and bitmap
// streams earlier writers also chose — rejecting streams that declare more
// than max values before allocating for them. max < 0 disables the bound.
func DecodeBestMax(buf []byte, max int) ([]int64, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	enc, body := Encoding(buf[0]), buf[1:]
	if enc > EncBitmap {
		return nil, fmt.Errorf("%w: unknown encoding tag %d", ErrCorrupt, buf[0])
	}
	// Every encoding leads with its value count: bound it here, for all six.
	if n, sz := binary.Uvarint(body); sz > 0 {
		if err := checkCount(n, max); err != nil {
			return nil, err
		}
	}
	switch enc {
	case EncVarint:
		return DecodeVarints(body)
	case EncDelta:
		return DecodeDelta(body)
	case EncRLE:
		return DecodeRLEMax(body, max)
	case EncFOR:
		return DecodeFORMax(body, max)
	case EncHuffman:
		return huffman.Decode(body)
	default:
		return DecodeBitmapMax(body, max)
	}
}

// checkCount validates a declared value count against an optional external
// bound, shared by the Max decode variants.
func checkCount(n uint64, max int) error {
	if max >= 0 && n > uint64(max) {
		return fmt.Errorf("%w: count %d exceeds expected maximum %d", ErrCorrupt, n, max)
	}
	return nil
}

// distinctUpTo counts distinct values, stopping early once limit is reached.
func distinctUpTo(values []int64, limit int) int {
	seen := make(map[int64]struct{}, 64)
	for _, v := range values {
		seen[v] = struct{}{}
		if len(seen) >= limit {
			break
		}
	}
	return len(seen)
}
