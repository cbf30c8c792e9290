package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// compressLatent compresses a latentTable archive once for the projection
// and row-range tests below.
func compressLatent(t *testing.T, rows int, seed int64, opts Options) ([]byte, *dataset.Table) {
	t.Helper()
	tb := latentTable(rows, seed)
	res, err := Compress(tb, []float64{0, 0, 0.1, 0.1, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Archive, tb
}

// decodeOpts decompresses with options, failing the test on error.
func decodeOpts(t *testing.T, archive []byte, opts DecompressOptions) *dataset.Table {
	t.Helper()
	res, err := DecompressContext(context.Background(), archive, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Table
}

// columnEqual compares one column of got against the full decode's column,
// over the full-decode rows [lo, lo+got.NumRows()).
func columnEqual(full, got *dataset.Table, fullCol, gotCol, lo int) error {
	typ := full.Schema.Columns[fullCol].Type
	for i := 0; i < got.NumRows(); i++ {
		if typ == dataset.Categorical {
			if full.Str[fullCol][lo+i] != got.Str[gotCol][i] {
				return fmt.Errorf("col %d row %d: %q != %q", fullCol, i, got.Str[gotCol][i], full.Str[fullCol][lo+i])
			}
		} else if full.Num[fullCol][lo+i] != got.Num[gotCol][i] {
			return fmt.Errorf("col %d row %d: %v != %v", fullCol, i, got.Num[gotCol][i], full.Num[fullCol][lo+i])
		}
	}
	return nil
}

func TestDecompressColumnProjection(t *testing.T) {
	archive, tb := compressLatent(t, 800, 31, quickOpts())
	full := decodeOpts(t, archive, DecompressOptions{})

	// Every single-column projection, plus a two-column and an
	// out-of-request-order selection.
	var sets [][]string
	for _, c := range tb.Schema.Columns {
		sets = append(sets, []string{c.Name})
	}
	sets = append(sets, []string{"cat", "grade"}, []string{"m2", "bin"})
	for _, names := range sets {
		got := decodeOpts(t, archive, DecompressOptions{Columns: names})
		if got.NumRows() != full.NumRows() {
			t.Fatalf("cols %v: %d rows, want %d", names, got.NumRows(), full.NumRows())
		}
		if got.Schema.NumColumns() != len(names) {
			t.Fatalf("cols %v: schema has %d columns", names, got.Schema.NumColumns())
		}
		// Output schema lists selected columns in archive order.
		want := map[string]bool{}
		for _, n := range names {
			want[n] = true
		}
		gi := 0
		for fi, c := range full.Schema.Columns {
			if !want[c.Name] {
				continue
			}
			if got.Schema.Columns[gi].Name != c.Name || got.Schema.Columns[gi].Type != c.Type {
				t.Fatalf("cols %v: schema[%d] = %+v, want %+v", names, gi, got.Schema.Columns[gi], c)
			}
			if err := columnEqual(full, got, fi, gi, 0); err != nil {
				t.Fatalf("cols %v: %v", names, err)
			}
			gi++
		}
	}
}

func TestDecompressProjectionFallbackColumns(t *testing.T) {
	// Fallback-heavy table: projections must work on columns that bypass the
	// model entirely, and on escape-heavy model columns.
	schema := dataset.NewSchema(
		dataset.Column{Name: "id", Type: dataset.Categorical},   // unique → fallback strings
		dataset.Column{Name: "skew", Type: dataset.Categorical}, // skewed → model + escapes
		dataset.Column{Name: "wild", Type: dataset.Numeric},     // t=0, many distinct → fallback floats
	)
	rows := 900
	tb := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < rows; i++ {
		skew := "common"
		if rng.Float64() < 0.04 {
			skew = fmt.Sprintf("rare-%d", rng.Intn(30))
		}
		tb.AppendRow([]string{fmt.Sprintf("id-%06d", i), skew}, []float64{rng.NormFloat64() * 1e6})
	}
	opts := quickOpts()
	opts.Preproc.MaxValueDictLen = 64
	res, err := Compress(tb, []float64{0, 0, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := decodeOpts(t, res.Archive, DecompressOptions{})
	for fi, c := range schema.Columns {
		got := decodeOpts(t, res.Archive, DecompressOptions{Columns: []string{c.Name}})
		if err := columnEqual(full, got, fi, 0, 0); err != nil {
			t.Fatalf("projection %q: %v", c.Name, err)
		}
	}
}

func TestDecompressRowRange(t *testing.T) {
	archive, _ := compressLatent(t, 700, 33, quickOpts())
	full := decodeOpts(t, archive, DecompressOptions{})
	for _, rr := range []RowRange{{0, 700}, {0, 1}, {699, 700}, {123, 456}, {350, 350}} {
		got := decodeOpts(t, archive, DecompressOptions{RowRange: &rr})
		if got.NumRows() != rr.Hi-rr.Lo {
			t.Fatalf("range %v: %d rows", rr, got.NumRows())
		}
		for col := range full.Schema.Columns {
			if err := columnEqual(full, got, col, col, rr.Lo); err != nil {
				t.Fatalf("range %v: %v", rr, err)
			}
		}
	}
}

func TestDecompressRowRangeWithProjectionMoE(t *testing.T) {
	opts := quickOpts()
	opts.NumExperts = 3
	archive, _ := compressLatent(t, 800, 34, opts)
	full := decodeOpts(t, archive, DecompressOptions{})
	got := decodeOpts(t, archive, DecompressOptions{
		Columns:  []string{"bin", "m1"},
		RowRange: &RowRange{Lo: 200, Hi: 500},
	})
	if got.NumRows() != 300 || got.Schema.NumColumns() != 2 {
		t.Fatalf("got %d rows × %d cols", got.NumRows(), got.Schema.NumColumns())
	}
	if err := columnEqual(full, got, 1, 0, 200); err != nil { // bin
		t.Fatal(err)
	}
	if err := columnEqual(full, got, 2, 1, 200); err != nil { // m1
		t.Fatal(err)
	}
}

// blocksCSV renders what Archive.DecodeBlocks decodes of every group and
// column on a pool of par workers as one CSV, groups in archive order.
func blocksCSV(t *testing.T, archive []byte, par int) []byte {
	t.Helper()
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]int, a.NumGroups())
	for g := range groups {
		groups[g] = g
	}
	schema := a.meta.plan.Schema
	cols := make([]int, len(schema.Columns))
	for c := range cols {
		cols[c] = c
	}
	blocks, err := a.DecodeBlocks(context.Background(), groups, cols, pipeline.NewPool(par))
	if err != nil {
		t.Fatal(err)
	}
	out := dataset.NewTable(schema, 0)
	rows := 0
	for g := range groups {
		for c := range cols {
			out.Str[c] = append(out.Str[c], blocks[g][c].Str...)
			out.Num[c] = append(out.Num[c], blocks[g][c].Num...)
		}
		rows += a.GroupRows(g)
	}
	out.SetNumRows(rows)
	return csvBytes(t, out)
}

// Every read path decodes the same bytes at every Parallelism: a two-expert
// table, and two one-expert tables whose groups hold at least 512 rows, so
// that decode splits each group × expert into row parts (a lossless Census
// head, and a residual-digit categorical whose digits accumulate within a
// part). DecompressContext, ArchiveReader and Archive.DecodeBlocks at
// Parallelism 1, 2, 3 and 8 each render the CSV of DecompressContext at 1;
// and at Parallelism 2 the one-expert archives' decode makes more work items
// than groups × experts. Under -race only Parallelism 1 and 2 run; the full
// sweep runs uninstrumented (scripts/check.sh).
func TestDecompressParallelDeterminism(t *testing.T) {
	levels := []int{1, 2, 3, 8}
	if raceEnabled {
		levels = levels[:2]
	}
	twoExperts := quickOpts()
	twoExperts.NumExperts = 2
	moe, _ := compressLatent(t, 900, 35, twoExperts)

	resOpts := residualOpts()
	resOpts.RowGroupSize = 600
	clicks := clickTable(1200, 500, 74)
	clicksRes, err := Compress(clicks, []float64{0, 0, 0.05}, resOpts)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := parseArchiveMeta(clicksRes.Archive); err != nil || m.plan.Cols[0].Kind != preprocess.KindCatResidual {
		t.Fatalf("user column is not residual digits (err %v)", err)
	}

	cases := []struct {
		name    string
		archive []byte
		split   bool // one expert, ≥ 512 rows per group
	}{
		{"two experts", moe, false},
		{"census head", censusArchive(t), true},
		{"residual digits", clicksRes.Archive, true},
	}
	for _, c := range cases {
		want := csvBytes(t, decodeOpts(t, c.archive, DecompressOptions{Parallelism: 1}))
		for _, p := range levels {
			got := map[string][]byte{
				"DecompressContext":    csvBytes(t, decodeOpts(t, c.archive, DecompressOptions{Parallelism: p})),
				"Archive.DecodeBlocks": blocksCSV(t, c.archive, p),
			}
			var err error
			if got["ArchiveReader"], err = readerCSV(c.archive, DecompressOptions{Parallelism: p}); err != nil {
				t.Fatal(err)
			}
			for path, csv := range got {
				if !bytes.Equal(csv, want) {
					t.Fatalf("%s: %s at parallelism %d decoded a different table than DecompressContext at 1", c.name, path, p)
				}
			}
		}
		if !c.split {
			continue
		}
		a, err := Open(c.archive)
		if err != nil {
			t.Fatal(err)
		}
		opts := DecompressOptions{Parallelism: 2}
		d, err := a.decodeStages(pipeline.New(context.Background(), opts.Parallelism), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, whole := len(d.decodeItems()), len(d.groups)*d.meta.numExperts; n <= whole {
			t.Errorf("%s: %d decode items at parallelism 2 for %d groups × experts, want more", c.name, n, whole)
		}
	}
}

func TestDecompressContextCancellation(t *testing.T) {
	archive, _ := compressLatent(t, 400, 36, quickOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DecompressContext(ctx, archive, DecompressOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDecompressOptionErrors(t *testing.T) {
	archive, _ := compressLatent(t, 300, 37, quickOpts())
	cases := []struct {
		name string
		opts DecompressOptions
		want string
	}{
		{"unknown column", DecompressOptions{Columns: []string{"nope"}}, `unknown column "nope"`},
		{"empty selection", DecompressOptions{Columns: []string{}}, "no columns selected"},
		{"negative lo", DecompressOptions{RowRange: &RowRange{Lo: -1, Hi: 5}}, "row range"},
		{"hi past end", DecompressOptions{RowRange: &RowRange{Lo: 0, Hi: 301}}, "row range"},
		{"inverted", DecompressOptions{RowRange: &RowRange{Lo: 20, Hi: 10}}, "row range"},
	}
	for _, c := range cases {
		_, err := DecompressContext(context.Background(), archive, c.opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: usage error misclassified as corruption: %v", c.name, err)
		}
	}
}

func TestDecompressMaxRows(t *testing.T) {
	archive, _ := compressLatent(t, 300, 38, quickOpts())
	_, err := DecompressContext(context.Background(), archive, DecompressOptions{MaxRows: 100})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := DecompressContext(context.Background(), archive, DecompressOptions{MaxRows: 300}); err != nil {
		t.Fatalf("MaxRows at the exact row count rejected: %v", err)
	}
}

func TestDecompressStagesReported(t *testing.T) {
	archive, _ := compressLatent(t, 500, 39, quickOpts())
	res, err := DecompressContext(context.Background(), archive, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"parse", "scan", "unpack", "resolve", "decode", "assemble"}
	if len(res.Stages) != len(wantStages) {
		t.Fatalf("got %d stages, want %d", len(res.Stages), len(wantStages))
	}
	for i, name := range wantStages {
		if res.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, res.Stages[i].Name, name)
		}
	}
	if res.Stages[1].Bytes != 0 {
		t.Fatalf("full decode skipped %d bytes", res.Stages[1].Bytes)
	}
	// A projection must actually skip archive bytes (unselected failure
	// streams) — that is the point of being projection-aware.
	proj, err := DecompressContext(context.Background(), archive, DecompressOptions{Columns: []string{"cat"}})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Stages[1].Bytes == 0 {
		t.Fatal("projection skipped no archive bytes")
	}
}

func TestDecompressBatchContextProjection(t *testing.T) {
	model, batch, _ := batchFixture(t)
	full, err := DecompressBatch(model, batch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecompressBatchContext(context.Background(), model, batch,
		DecompressOptions{Columns: []string{"cat", "m2"}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Table
	if got.Schema.NumColumns() != 2 || got.NumRows() != full.NumRows() {
		t.Fatalf("got %d rows × %d cols", got.NumRows(), got.Schema.NumColumns())
	}
	if err := columnEqual(full, got, 0, 0, 0); err != nil { // cat
		t.Fatal(err)
	}
	if err := columnEqual(full, got, 3, 1, 0); err != nil { // m2
		t.Fatal(err)
	}
	// A batch archive is not self-contained.
	if _, err := DecompressContext(context.Background(), batch, DecompressOptions{}); err == nil {
		t.Fatal("batch archive decompressed without its model")
	}
}

// A plan whose column kind disagrees with its schema type (a fallback or a
// model categorical declared numeric) is corrupt at every reader: they
// allocate output by type and fill it by kind.
func TestKindTypeMismatchRejected(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "categorical.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"code", "city"} { // fallback, model categorical
		at := bytes.Index(v1, []byte(col)) + len(col) // the type byte follows the name
		if v1[at] != byte(dataset.Categorical) {
			t.Fatalf("%s: type byte %d, fixture layout changed", col, v1[at])
		}
		crafted := append([]byte(nil), v1...)
		crafted[at] = byte(dataset.Numeric)
		crafted = refreshCRC(crafted)
		if _, err := Decompress(crafted); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s declared numeric: Decompress err = %v, want ErrCorrupt", col, err)
		}
		if _, err := NewArchiveReader(bytes.NewReader(crafted)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s declared numeric: NewArchiveReader err = %v, want ErrCorrupt", col, err)
		}
	}
}
