// Package colfile implements a compact columnar file format ("parquet-lite")
// in the spirit of Apache Parquet, which the paper uses as a lossless
// baseline; DeepSqueeze's archives reuse its string and float chunk layouts
// for the failure streams that are not integers. Each column is stored as an
// independently-encoded chunk: string data in a dictionary or raw layout,
// float data as raw bits, Gorilla-style XOR or a value dictionary — integer
// dictionary codes and ranks going through colenc's selector (varint, delta,
// frame-of-reference or Huffman) — and every chunk gets a DEFLATE pass kept
// only when it pays.
package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/colenc"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/preprocess"
)

// ErrCorrupt is returned when a file fails validation.
var ErrCorrupt = errors.New("colfile: corrupt file")

var magic = [4]byte{'D', 'S', 'C', 'F'}

const version = 1

// Column chunk layouts. Part of the on-disk format; do not renumber.
const (
	chunkCatDict byte = iota // string dictionary + integer codes
	chunkCatRaw              // length-prefixed strings
	chunkNumRaw              // 8-byte little-endian float64s
	chunkNumDict             // float64 value dictionary + integer ranks
	chunkNumXor              // Gorilla-style XOR-compressed float64s
)

// wrapCodecErr keeps this package's error contract across the codec
// delegation: colenc errors pass through untouched, anything else is
// classified under ErrCorrupt.
func wrapCodecErr(err error) error {
	if err == nil || errors.Is(err, colenc.ErrCorrupt) || errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// Deflate wraps payload with a 1-byte tag: 0 = stored, 1 = DEFLATE. The
// compressed form is kept only when strictly smaller.
func Deflate(payload []byte) []byte {
	return codec.CompressBytes(payload)
}

// Inflate inverts Deflate.
func Inflate(buf []byte) ([]byte, error) {
	out, err := codec.DecompressBytes(buf)
	return out, wrapCodecErr(err)
}

// PackStrings encodes a string column, choosing between a dictionary layout
// and raw length-prefixed strings, with a DEFLATE pass.
func PackStrings(values []string) []byte {
	dict := preprocess.BuildDictionary(values)
	var dictPayload []byte
	if codes, err := dict.Encode(values); err == nil {
		codes64 := make([]int64, len(codes))
		for i, c := range codes {
			codes64[i] = int64(c)
		}
		dictPayload = append([]byte{chunkCatDict}, dict.AppendBinary(nil)...)
		dictPayload = append(dictPayload, colenc.EncodeBest(codes64)...)
	}
	rawPayload := []byte{chunkCatRaw}
	rawPayload = binary.AppendUvarint(rawPayload, uint64(len(values)))
	for _, v := range values {
		rawPayload = binary.AppendUvarint(rawPayload, uint64(len(v)))
		rawPayload = append(rawPayload, v...)
	}
	a, b := Deflate(dictPayload), Deflate(rawPayload)
	if dictPayload != nil && len(a) < len(b) {
		return a
	}
	return b
}

// UnpackStrings inverts PackStrings with no expected-count bound. Prefer
// UnpackStringsMax when decoding untrusted bytes with a known value count.
func UnpackStrings(buf []byte) ([]string, error) { return UnpackStringsMax(buf, -1) }

// UnpackStringsMax inverts PackStrings, rejecting streams that declare more
// than max values before allocating for them. max < 0 disables the bound.
func UnpackStringsMax(buf []byte, max int) ([]string, error) {
	body, err := Inflate(buf)
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty string chunk", ErrCorrupt)
	}
	switch body[0] {
	case chunkCatDict:
		dict, used, err := preprocess.DecodeDictionary(body[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		codes64, err := colenc.DecodeBestMax(body[1+used:], max)
		if err != nil {
			return nil, wrapCodecErr(err)
		}
		codes := make([]int, len(codes64))
		for i, c := range codes64 {
			codes[i] = int(c)
		}
		out, err := dict.Decode(codes)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return out, nil
	case chunkCatRaw:
		pos := 1
		n, sz := binary.Uvarint(body[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("%w: missing string count", ErrCorrupt)
		}
		pos += sz
		if n > uint64(len(body)) {
			return nil, fmt.Errorf("%w: string count %d exceeds chunk", ErrCorrupt, n)
		}
		if max >= 0 && n > uint64(max) {
			return nil, fmt.Errorf("%w: string count %d exceeds expected maximum %d", ErrCorrupt, n, max)
		}
		out := make([]string, n)
		for i := range out {
			l, sz := binary.Uvarint(body[pos:])
			if sz <= 0 || uint64(len(body)-pos-sz) < l {
				return nil, fmt.Errorf("%w: truncated string %d", ErrCorrupt, i)
			}
			pos += sz
			out[i] = string(body[pos : pos+int(l)])
			pos += int(l)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown string layout %d", ErrCorrupt, body[0])
	}
}

// PackFloats encodes a float64 column, choosing between raw bits and a
// value-dictionary layout, with a DEFLATE pass. Lossless.
func PackFloats(values []float64) []byte {
	raw := make([]byte, 1, 1+8*len(values))
	raw[0] = chunkNumRaw
	for _, v := range values {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	best := Deflate(raw)
	if x := Deflate(packFloatsXOR(values)); len(x) < len(best) {
		best = x
	}
	vd := preprocess.BuildValueDict(values)
	// A dictionary only pays when distinct count is well below n.
	if vd.Len() < len(values)/2 {
		ranks := make([]int64, len(values))
		ok := true
		for i, v := range values {
			r, found := vd.Rank(v)
			if !found {
				ok = false
				break
			}
			ranks[i] = int64(r)
		}
		if ok {
			payload := append([]byte{chunkNumDict}, vd.AppendBinary(nil)...)
			payload = append(payload, colenc.EncodeBest(ranks)...)
			if d := Deflate(payload); len(d) < len(best) {
				best = d
			}
		}
	}
	return best
}

// UnpackFloats inverts PackFloats with no expected-count bound. Prefer
// UnpackFloatsMax when decoding untrusted bytes with a known value count.
func UnpackFloats(buf []byte) ([]float64, error) { return UnpackFloatsMax(buf, -1) }

// UnpackFloatsMax inverts PackFloats, rejecting streams that declare more
// than max values before allocating for them. max < 0 disables the bound.
func UnpackFloatsMax(buf []byte, max int) ([]float64, error) {
	body, err := Inflate(buf)
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("%w: empty float chunk", ErrCorrupt)
	}
	switch body[0] {
	case chunkNumRaw:
		body = body[1:]
		if len(body)%8 != 0 {
			return nil, fmt.Errorf("%w: float chunk length %d", ErrCorrupt, len(body))
		}
		if max >= 0 && len(body)/8 > max {
			return nil, fmt.Errorf("%w: float count %d exceeds expected maximum %d", ErrCorrupt, len(body)/8, max)
		}
		out := make([]float64, len(body)/8)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
		}
		return out, nil
	case chunkNumXor:
		return unpackFloatsXOR(body[1:], max)
	case chunkNumDict:
		vd, used, err := preprocess.DecodeValueDict(body[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		ranks, err := colenc.DecodeBestMax(body[1+used:], max)
		if err != nil {
			return nil, wrapCodecErr(err)
		}
		out := make([]float64, len(ranks))
		for i, r := range ranks {
			if r < 0 || int(r) >= vd.Len() {
				return nil, fmt.Errorf("%w: rank %d outside dictionary", ErrCorrupt, r)
			}
			out[i] = vd.Value(int(r))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown float layout %d", ErrCorrupt, body[0])
	}
}

// Write serializes t as a parquet-lite file and returns bytes written.
func Write(w io.Writer, t *dataset.Table) (int64, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version)
	var tmp []byte
	tmp = binary.AppendUvarint(tmp, uint64(t.NumRows()))
	tmp = binary.AppendUvarint(tmp, uint64(t.Schema.NumColumns()))
	buf.Write(tmp)
	crc := crc32.NewIEEE()
	for i, c := range t.Schema.Columns {
		var hdr []byte
		hdr = binary.AppendUvarint(hdr, uint64(len(c.Name)))
		hdr = append(hdr, c.Name...)
		hdr = append(hdr, byte(c.Type))
		var chunk []byte
		if c.Type == dataset.Categorical {
			chunk = PackStrings(t.Str[i])
		} else {
			chunk = PackFloats(t.Num[i])
		}
		hdr = binary.AppendUvarint(hdr, uint64(len(chunk)))
		buf.Write(hdr)
		buf.Write(chunk)
		crc.Write(chunk)
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], crc.Sum32())
	buf.Write(footer[:])
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Read parses a file produced by Write.
func Read(r io.Reader) (*dataset.Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("colfile: read: %w", err)
	}
	if len(data) < len(magic)+1+4 || !bytes.Equal(data[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[4])
	}
	pos := 5
	rows, sz := binary.Uvarint(data[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing row count", ErrCorrupt)
	}
	pos += sz
	ncols, sz := binary.Uvarint(data[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("%w: missing column count", ErrCorrupt)
	}
	pos += sz
	if ncols > uint64(len(data)) {
		return nil, fmt.Errorf("%w: column count %d", ErrCorrupt, ncols)
	}
	if rows > math.MaxInt {
		return nil, fmt.Errorf("%w: row count %d", ErrCorrupt, rows)
	}
	schema := &dataset.Schema{Columns: make([]dataset.Column, ncols)}
	chunks := make([][]byte, ncols)
	crc := crc32.NewIEEE()
	for i := range schema.Columns {
		l, sz := binary.Uvarint(data[pos:])
		if sz <= 0 || uint64(len(data)-pos-sz) < l {
			return nil, fmt.Errorf("%w: truncated column name", ErrCorrupt)
		}
		pos += sz
		schema.Columns[i].Name = string(data[pos : pos+int(l)])
		pos += int(l)
		if pos >= len(data) {
			return nil, fmt.Errorf("%w: truncated column type", ErrCorrupt)
		}
		typ := dataset.ColumnType(data[pos])
		if typ != dataset.Categorical && typ != dataset.Numeric {
			return nil, fmt.Errorf("%w: bad column type %d", ErrCorrupt, typ)
		}
		schema.Columns[i].Type = typ
		pos++
		cl, sz := binary.Uvarint(data[pos:])
		if sz <= 0 || uint64(len(data)-pos-sz) < cl {
			return nil, fmt.Errorf("%w: truncated chunk", ErrCorrupt)
		}
		pos += sz
		chunks[i] = data[pos : pos+int(cl)]
		crc.Write(chunks[i])
		pos += int(cl)
	}
	if len(data)-pos != 4 {
		return nil, fmt.Errorf("%w: bad footer", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[pos:]) != crc.Sum32() {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// The table is built from the unpacked columns, never sized by the
	// declared row count: the checksum covers the chunks, not the header. The
	// count bounds each column's decode before it allocates; a table without
	// columns holds nothing to check it against.
	t := dataset.NewTable(schema, 0)
	for i, c := range schema.Columns {
		n := 0
		if c.Type == dataset.Categorical {
			t.Str[i], err = UnpackStringsMax(chunks[i], int(rows))
			n = len(t.Str[i])
		} else {
			t.Num[i], err = UnpackFloatsMax(chunks[i], int(rows))
			n = len(t.Num[i])
		}
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", c.Name, err)
		}
		if n != int(rows) {
			return nil, fmt.Errorf("%w: column %q has %d rows, want %d", ErrCorrupt, c.Name, n, rows)
		}
	}
	t.SetNumRows(int(rows))
	return t, nil
}

// Size returns the parquet-lite encoded size of t in bytes without
// retaining the output.
func Size(t *dataset.Table) (int64, error) {
	var cw countingWriter
	return Write(&cw, t)
}

type countingWriter struct{}

func (countingWriter) Write(p []byte) (int, error) { return len(p), nil }
