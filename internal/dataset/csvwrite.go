package dataset

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

const (
	// csvBufSize is how many rendered bytes CSVWriter gathers before it
	// hands them to the underlying writer.
	csvBufSize = 8 << 10
	// csvBufSlack covers the cell that crosses csvBufSize: a separator, the
	// longest number and a newline, so numeric rows never grow the buffer.
	csvBufSlack = 64

	// memoBits sets the per-column format memo at 1<<memoBits slots.
	memoBits  = 6
	memoSlots = 1 << memoBits
	// maxNumericText is the longest text AppendNumeric produces for a
	// float64: "-1.2345678901234567e-308" (sign, 17 digits, point, e-308).
	maxNumericText = 24
)

// AppendNumeric appends v's CSV text: the shortest decimal that parses back
// to v ('g', precision -1). Every numeric cell the package writes is this
// text, memoized or not.
func AppendNumeric(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// numericMemo is one column's direct-mapped cache from a float64's bits to
// its AppendNumeric text. It is exact: equal bits always format to equal
// text, and a slot answers only for the bits it stores. Quantized columns
// decode to a few bucket values each, so most cells hit.
type numericMemo struct {
	bits [memoSlots]uint64
	n    [memoSlots]uint8 // text length; 0 marks an empty slot
	text [memoSlots][maxNumericText]byte
}

// append appends v's text, formatting it only when v's slot holds other
// bits (or none). A hit copies the slot's whole text array, a fixed-size
// move, and keeps its first n bytes; CSVWriter's buffer slack leaves room.
func (m *numericMemo) append(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	s := memoSlot(b)
	if n := m.n[s]; n != 0 && m.bits[s] == b {
		if l := len(dst); cap(dst)-l >= maxNumericText {
			*(*[maxNumericText]byte)(dst[l : l+maxNumericText]) = m.text[s]
			return dst[:l+int(n)]
		}
		return append(dst, m.text[s][:n]...)
	}
	start := len(dst)
	dst = AppendNumeric(dst, v)
	m.bits[s] = b
	m.n[s] = uint8(copy(m.text[s][:], dst[start:]))
	return dst
}

// memoSlot spreads a float's bits over the memo's slots (Fibonacci hashing:
// bucket midpoints differ mostly in their low mantissa bits).
func memoSlot(bits uint64) uint64 {
	return (bits * 0x9e3779b97f4a7c15) >> (64 - memoBits)
}

// appendField appends one categorical cell exactly as encoding/csv's Writer
// (Comma ',', UseCRLF false) writes it: see fieldNeedsQuotes for when it is
// quoted; inside quotes a '"' doubles and every other byte, '\r' and '\n'
// included, is copied as is.
func appendField(dst []byte, field string) []byte {
	if !fieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := strings.IndexByte(field, '"'); i >= 0; i = strings.IndexByte(field, '"') {
		dst = append(dst, field[:i+1]...)
		dst = append(dst, '"')
		field = field[i+1:]
	}
	dst = append(dst, field...)
	return append(dst, '"')
}

// fieldNeedsQuotes is encoding/csv's rule for a ',' delimiter: quote a field
// holding a comma, quote, '\r' or '\n', one starting with a Unicode space,
// and Postgres's end-of-data marker `\.`; never the empty field.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// CSVWriter writes tables incrementally as one headered CSV stream, the
// bytes encoding/csv would write for the same cells: the header goes out
// before the first rows, and every WriteTable appends rows, numeric values
// as AppendNumeric text. Rows are rendered into a buffer handed to the
// underlying writer whenever it passes csvBufSize, so memory is one buffer
// plus a format memo per numeric column, whatever the table's size; the
// memos carry across WriteTable calls.
type CSVWriter struct {
	w           io.Writer
	schema      *Schema
	memo        []*numericMemo // per column; nil for a categorical one
	buf         []byte
	err         error
	wroteHeader bool
}

// NewCSVWriter returns a writer producing one headered CSV stream for
// tables with the given schema.
func NewCSVWriter(w io.Writer, schema *Schema) *CSVWriter {
	memo := make([]*numericMemo, len(schema.Columns))
	for i, c := range schema.Columns {
		if c.Type == Numeric {
			memo[i] = new(numericMemo)
		}
	}
	return &CSVWriter{w: w, schema: schema, memo: memo, buf: make([]byte, 0, csvBufSize+csvBufSlack)}
}

// WriteTable appends t's rows. t must have the writer's schema.
func (w *CSVWriter) WriteTable(t *Table) error {
	if !t.Schema.Equal(w.schema) {
		return fmt.Errorf("dataset: table schema differs from writer schema")
	}
	w.header()
	buf := w.buf
	for r := 0; r < t.rows; r++ {
		// The buffer is checked before every cell, so it holds at most
		// csvBufSize plus one cell and its separator.
		if len(buf) >= csvBufSize {
			buf = w.flush(buf)
		}
		for i, m := range w.memo {
			if i > 0 {
				if len(buf) >= csvBufSize {
					buf = w.flush(buf)
				}
				buf = append(buf, ',')
			}
			if m == nil {
				buf = appendField(buf, t.Str[i][r])
			} else {
				buf = m.append(buf, t.Num[i][r])
			}
		}
		buf = append(buf, '\n')
	}
	w.buf = buf
	return w.err
}

// Flush writes the header if no rows were ever written, hands buffered rows
// to the underlying writer, and reports the first write error.
func (w *CSVWriter) Flush() error {
	w.header()
	w.buf = w.flush(w.buf)
	return w.err
}

// header renders the header row once, before anything else.
func (w *CSVWriter) header() {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	for i, c := range w.schema.Columns {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = appendField(w.buf, c.Name)
	}
	w.buf = append(w.buf, '\n')
}

// flush writes buf to the underlying writer and returns it emptied. After
// the first failure nothing more is written, and w.err keeps that failure
// for every later WriteTable and Flush to return.
func (w *CSVWriter) flush(buf []byte) []byte {
	if w.err == nil && len(buf) > 0 {
		if _, err := w.w.Write(buf); err != nil {
			w.err = fmt.Errorf("dataset: write csv: %w", err)
		}
	}
	return buf[:0]
}
