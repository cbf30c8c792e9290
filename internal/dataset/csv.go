package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
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
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) != len(schema.Columns) {
		return nil, fmt.Errorf("dataset: header has %d columns, schema %d", len(header), len(schema.Columns))
	}
	for i, c := range schema.Columns {
		if header[i] != c.Name {
			return nil, fmt.Errorf("dataset: header column %d is %q, schema says %q", i, header[i], c.Name)
		}
	}
	t := NewTable(schema, 1024)
	for rowNum := 0; ; rowNum++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read row %d: %w", rowNum, err)
		}
		for i, c := range schema.Columns {
			if c.Type == Categorical {
				t.Str[i] = append(t.Str[i], rec[i])
			} else {
				v, err := strconv.ParseFloat(rec[i], 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: row %d column %q: %w", rowNum, c.Name, err)
				}
				t.Num[i] = append(t.Num[i], v)
			}
		}
		t.rows++
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
