package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSVScanner reads a headered CSV file in bounded row chunks, so tables
// larger than memory can flow through the streaming compressor. The header
// is read and validated against the schema up front; each ReadChunk then
// returns at most maxRows rows. ReadCSV is a scanner read to the end into one
// table.
type CSVScanner struct {
	cr     *csv.Reader
	schema *Schema
	rowNum int
	done   bool
}

// NewCSVScanner reads and validates the header row. The schema supplies
// column types; the header must match the schema's column names in order.
func NewCSVScanner(r io.Reader, schema *Schema) (*CSVScanner, error) {
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
	return &CSVScanner{cr: cr, schema: schema}, nil
}

// ReadChunk returns the next chunk of up to maxRows rows. At the end of the
// file it returns io.EOF (with no table); a final short chunk is returned
// with a nil error first.
func (s *CSVScanner) ReadChunk(maxRows int) (*Table, error) {
	if s.done {
		return nil, io.EOF
	}
	if maxRows < 1 {
		return nil, fmt.Errorf("dataset: chunk of %d rows", maxRows)
	}
	t := NewTable(s.schema, maxRows)
	eof, err := s.readRows(t, maxRows)
	if err != nil {
		return nil, err
	}
	s.done = eof
	if t.NumRows() == 0 {
		return nil, io.EOF
	}
	return t, nil
}

// readRows appends rows to t until it holds maxRows of them or the file
// ends, reporting which: the one row loop behind ReadChunk and ReadCSV.
func (s *CSVScanner) readRows(t *Table, maxRows int) (eof bool, err error) {
	for t.rows < maxRows {
		rec, err := s.cr.Read()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("dataset: read row %d: %w", s.rowNum, err)
		}
		for i, c := range s.schema.Columns {
			if c.Type == Categorical {
				t.Str[i] = append(t.Str[i], rec[i])
			} else {
				v, err := strconv.ParseFloat(rec[i], 64)
				if err != nil {
					return false, fmt.Errorf("dataset: row %d column %q: %w", s.rowNum, c.Name, err)
				}
				t.Num[i] = append(t.Num[i], v)
			}
		}
		t.rows++
		s.rowNum++
	}
	return false, nil
}
