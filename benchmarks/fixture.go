package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"deepsqueeze"
)

// archiveName is the file dsqzd serves inside the fixture's root directory.
const archiveName = "w.dsqz"

// preparedQuery is a querySpec in every form a round needs: the JSON body
// dsqzd receives, the options the in-process paths take, and the
// decompress-then-filter CSV every response must equal byte for byte.
type preparedQuery struct {
	spec     querySpec
	body     []byte // format csv: what the measured queries send
	bodyJSON []byte // format json: the traced run reads its stages array
	opts     deepsqueeze.QueryOptions
	want     []byte
}

// fixture is everything set-up produces for one workload and seed.
type fixture struct {
	w          *workload
	src        *deepsqueeze.Table
	thresholds []float64
	opts       deepsqueeze.Options
	csv        []byte // the source table as CSV: compress input
	archive    []byte // first archive: every recompress must equal it
	backCSV    []byte // decompressed CSV: every decompress must equal it
	back       *deepsqueeze.Table
	dir        string
	path       string // dir/archiveName
	points     []preparedQuery
	scan       preparedQuery
	d          *daemon
	speed      *speedRef // the run's speed kernels (speed.go)
	took       stretch   // what set-up took: a setup_s sample
	hotSeq     int       // rotates the point queries over the hot set
}

// groupRows is the row-group size the writer uses for this fixture.
func (f *fixture) groupRows() int {
	n := f.opts.RowGroupSize
	if n <= 0 {
		n = 4096
	}
	if n > f.src.NumRows() {
		n = f.src.NumRows()
	}
	return n
}

// compressCSV is `dsqz compress` without the files: CSV bytes through
// NewCSVScanner and NewArchiveWriter, one row group per Write. onWrite, when
// non-nil, brackets every ArchiveWriter.Write (the traced run's hook).
func compressCSV(csv []byte, schema *deepsqueeze.Schema, thresholds []float64, opts deepsqueeze.Options, onWrite func(group int) func()) ([]byte, error) {
	sc, err := deepsqueeze.NewCSVScanner(bytes.NewReader(csv), schema)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(len(csv) / 4)
	aw, err := deepsqueeze.NewArchiveWriter(&out, schema, thresholds, opts)
	if err != nil {
		return nil, err
	}
	chunkRows := opts.RowGroupSize
	if chunkRows <= 0 {
		chunkRows = 4096
	}
	for group := 0; ; group++ {
		chunk, err := sc.ReadChunk(chunkRows)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		var done func()
		if onWrite != nil {
			done = onWrite(group)
		}
		err = aw.Write(chunk)
		if done != nil {
			done()
		}
		if err != nil {
			return nil, err
		}
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// decompressCSV is `dsqz decompress` without the files: archive bytes
// through NewArchiveReader and NewCSVWriter, one row group at a time. onNext,
// when non-nil, brackets every ArchiveReader.Next and is told whether that
// call was the final one (footer and checksum verification, io.EOF).
func decompressCSV(archive []byte, sizeHint int, onNext func() func(eof bool)) ([]byte, error) {
	ar, err := deepsqueeze.NewArchiveReader(bytes.NewReader(archive))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(sizeHint)
	cw := deepsqueeze.NewCSVWriter(&out, ar.Schema())
	for {
		var done func(eof bool)
		if onNext != nil {
			done = onNext()
		}
		g, err := ar.Next()
		if done != nil {
			done(err == io.EOF)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := cw.WriteTable(g); err != nil {
			return nil, err
		}
	}
	if err := cw.Flush(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// verifyBounds is deepsqueeze.VerifyBounds with one part in a million of
// slack on every threshold. A value at its column's minimum or maximum
// decodes to a bucket midpoint exactly t·range away, and VerifyBounds
// compares without rounding slack, so about one seed in eight fails it by
// the last bit of a float64; that is not the regression this audit is for.
func verifyBounds(src, got *deepsqueeze.Table, thresholds []float64) error {
	slack := make([]float64, len(thresholds))
	for i, t := range thresholds {
		slack[i] = t * (1 + 1e-6)
	}
	return deepsqueeze.VerifyBounds(src, got, slack)
}

// tableCSV renders a table exactly as dsqz and dsqzd render results.
func tableCSV(t *deepsqueeze.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// filterReference is decompress-then-filter, written without the query
// package: evaluate the conjunction row by row over the decompressed table,
// keep the selected columns in schema order, render CSV.
func filterReference(back *deepsqueeze.Table, q querySpec) ([]byte, error) {
	colIdx := make(map[string]int)
	for i, c := range back.Schema.Columns {
		colIdx[c.Name] = i
	}
	var keep []int
	for r := 0; r < back.NumRows(); r++ {
		ok := true
		for _, c := range q.conds {
			i, found := colIdx[c.col]
			if !found {
				return nil, fmt.Errorf("reference: no column %q", c.col)
			}
			if c.str != "" {
				ok = back.Str[i][r] == c.str
			} else {
				v := back.Num[i][r]
				switch c.op {
				case "<":
					ok = v < c.num
				case ">":
					ok = v > c.num
				case ">=":
					ok = v >= c.num
				case "=":
					ok = v == c.num
				default:
					return nil, fmt.Errorf("reference: operator %q", c.op)
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			keep = append(keep, r)
		}
	}
	rows := back.Sample(keep)
	if q.sel == nil {
		return tableCSV(rows)
	}
	selected := make(map[string]bool)
	for _, s := range q.sel {
		selected[s] = true
	}
	var cols []deepsqueeze.Column
	var idx []int
	for i, c := range back.Schema.Columns {
		if selected[c.Name] {
			cols = append(cols, c)
			idx = append(idx, i)
		}
	}
	out := deepsqueeze.NewTable(deepsqueeze.NewSchema(cols...), 0)
	for j, i := range idx {
		out.Str[j], out.Num[j] = rows.Str[i], rows.Num[i]
	}
	out.SetNumRows(rows.NumRows())
	return tableCSV(out)
}

func (f *fixture) prepare(q querySpec) (preparedQuery, error) {
	p := preparedQuery{spec: q}
	where := q.where()
	pred, err := deepsqueeze.ParsePredicate(where)
	if err != nil {
		return p, fmt.Errorf("query %q: %w", where, err)
	}
	p.opts = deepsqueeze.QueryOptions{Where: pred, Select: q.sel, Parallelism: 1}
	req := map[string]string{"archive": archiveName, "where": where, "select": strings.Join(q.sel, ","), "format": "csv"}
	if p.body, err = json.Marshal(req); err != nil {
		return p, err
	}
	req["format"] = "json"
	if p.bodyJSON, err = json.Marshal(req); err != nil {
		return p, err
	}
	if p.want, err = filterReference(f.back, q); err != nil {
		return p, err
	}
	if bytes.Count(p.want, []byte{'\n'}) < 2 {
		return p, fmt.Errorf("query %q matches no row", where)
	}
	return p, nil
}

// setUp does the deterministic per-workload preparation that setup_s times:
// table from the seed, CSV render, first archive, decompressed reference and
// its bounds audit, a decompress-then-filter reference per distinct query,
// and a dsqzd child answering GET /archives. The child lives until close or
// until ctx is done.
func setUp(ctx context.Context, w *workload, seed int64, dsqzd, outDir string, speed *speedRef) (*fixture, error) {
	f := &fixture{w: w, speed: speed}
	f.took.Start = speed.now()
	f.src = w.table(rand.New(rand.NewSource(seed)), w.rows)
	f.thresholds = w.thresholds(f.src)
	f.opts = w.options()
	var err error
	if f.csv, err = tableCSV(f.src); err != nil {
		return nil, err
	}
	if f.archive, err = compressCSV(f.csv, f.src.Schema, f.thresholds, f.opts, nil); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	if f.backCSV, err = decompressCSV(f.archive, len(f.csv), nil); err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	if f.back, err = deepsqueeze.ReadCSV(bytes.NewReader(f.backCSV), f.src.Schema); err != nil {
		return nil, fmt.Errorf("parse decompressed CSV: %w", err)
	}
	if err := verifyBounds(f.src, f.back, f.thresholds); err != nil {
		return nil, fmt.Errorf("bounds: %w", err)
	}

	// Query constants come from their own stream so that a change to how a
	// generator consumes randomness does not move them.
	points, scan := w.queries(rand.New(rand.NewSource(seed^0x5eed)), f.src)
	for _, q := range points {
		p, err := f.prepare(q)
		if err != nil {
			return nil, err
		}
		f.points = append(f.points, p)
	}
	if f.scan, err = f.prepare(scan); err != nil {
		return nil, err
	}

	if f.dir, err = os.MkdirTemp(outDir, "root-"); err != nil {
		return nil, err
	}
	f.path = filepath.Join(f.dir, archiveName)
	if err := os.WriteFile(f.path, f.archive, 0o644); err != nil {
		f.close()
		return nil, err
	}
	if f.d, err = startDaemon(ctx, dsqzd, f.dir, w.blockCache); err != nil {
		f.close()
		return nil, err
	}
	f.took.End = speed.now()
	return f, nil
}

// close stops the daemon (waiting for it to exit) and removes the root.
func (f *fixture) close() {
	if f.d != nil {
		f.d.stop()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
