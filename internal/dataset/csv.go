package dataset

import (
	"io"
	"math"
)

// WriteCSV writes the table as CSV with a header row, through CSVWriter.
// Numeric values use the shortest representation that round-trips ('g',
// precision -1).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := NewCSVWriter(w, t.Schema)
	if err := cw.WriteTable(t); err != nil {
		return err
	}
	return cw.Flush()
}

// ReadCSV reads a table in the format produced by WriteCSV. The schema
// supplies column types; the CSV header must match the schema's column names
// in order.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	s, err := NewCSVScanner(r, schema)
	if err != nil {
		return nil, err
	}
	t := NewTable(schema, 1024)
	if _, err := s.readRows(t, math.MaxInt); err != nil {
		return nil, err
	}
	return t, nil
}

// CSVSize returns the size in bytes of the table's CSV serialization. This
// is the "raw size" denominator of the paper's compression ratios.
func (t *Table) CSVSize() int64 {
	var cw countingWriter
	if err := t.WriteCSV(&cw); err != nil {
		// Writing to an in-memory counter cannot fail.
		panic(err)
	}
	return cw.n
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
