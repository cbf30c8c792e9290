package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/pipeline"
)

// csvBytes renders a table to CSV for strict byte comparison.
func csvBytes(t *testing.T, tb *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// groupedArchive compresses a latentTable into a multi-group archive with
// zone maps — the shape the serving path cares about.
func groupedArchive(t *testing.T, rows int) []byte {
	t.Helper()
	opts := quickOpts()
	opts.RowGroupSize = 64
	archive, _ := compressLatent(t, rows, 7, opts)
	return archive
}

// TestOpenMatchesByteAPI pins the tentpole contract: a request against an
// Open-ed handle returns exactly what the one-shot byte API returns, for a
// full decode, a projection, and a row range.
func TestOpenMatchesByteAPI(t *testing.T) {
	archive := groupedArchive(t, 500)
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts DecompressOptions
	}{
		{"full", DecompressOptions{}},
		{"projection", DecompressOptions{Columns: []string{"m1", "cat"}}},
		{"rowrange", DecompressOptions{RowRange: &RowRange{Lo: 100, Hi: 300}}},
		{"parallel", DecompressOptions{Parallelism: 4}},
	}
	for _, c := range cases {
		want, err := DecompressContext(context.Background(), archive, c.opts)
		if err != nil {
			t.Fatalf("%s: byte API: %v", c.name, err)
		}
		got, err := a.Decompress(c.opts)
		if err != nil {
			t.Fatalf("%s: handle: %v", c.name, err)
		}
		if !bytes.Equal(csvBytes(t, want.Table), csvBytes(t, got.Table)) {
			t.Fatalf("%s: handle decode differs from byte API", c.name)
		}
	}
}

// TestOpenGoldenV1 checks the handle path reads frozen version-1 archives.
func TestOpenGoldenV1(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "categorical.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join("testdata", "categorical.csv"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Decompress(DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, res.Table), wantCSV) {
		t.Fatal("v1 golden decode through handle differs from committed CSV")
	}
}

// TestOpenRejectsCorrupt checks that envelope damage is caught at Open time
// and classified as ErrCorrupt, not returned raw or panicked on.
func TestOpenRejectsCorrupt(t *testing.T) {
	archive := groupedArchive(t, 200)
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not an archive at all, sorry")},
		{"truncated", archive[:len(archive)/2]},
		{"bad magic", append([]byte("XSQZ"), archive[4:]...)},
	}
	for _, c := range cases {
		if _, err := Open(c.buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// TestOpenFile checks the file entry point and that its errors carry the
// offending path.
func TestOpenFile(t *testing.T) {
	archive := groupedArchive(t, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.dsqz")
	if err := os.WriteFile(path, archive, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() == 0 || a.Size() != len(archive) {
		t.Fatalf("Rows=%d Size=%d, want rows>0 size=%d", a.Rows(), a.Size(), len(archive))
	}

	if _, err := OpenFile(filepath.Join(dir, "missing.dsqz")); err == nil ||
		!strings.Contains(err.Error(), "missing.dsqz") {
		t.Fatalf("missing file: err = %v, want path in message", err)
	}
	bad := filepath.Join(dir, "bad.dsqz")
	if err := os.WriteFile(bad, archive[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), "bad.dsqz") {
		t.Fatalf("corrupt file: err = %v, want ErrCorrupt with path", err)
	}
}

// TestHandleIndexMatchesReadIndex checks the cached Index equals the
// one-shot ReadIndex, and that repeated calls return the same parse.
func TestHandleIndexMatchesReadIndex(t *testing.T) {
	archive := groupedArchive(t, 500)
	want, err := ReadIndex(archive)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Index()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("handle Index differs from ReadIndex")
	}
	again, err := a.Index()
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Fatal("Index reparsed on second call; want the cached pointer")
	}
}

// TestHandleDecodersParsedOnce checks the decoder section is inflated
// exactly once per handle no matter how many requests need the model, and
// that the float32 views exist, narrowed in the same parse, only for an
// archive carrying the float32 plan.
func TestHandleDecodersParsedOnce(t *testing.T) {
	f32, _ := f32Fixture(t)
	for name, archive := range map[string][]byte{"float64": groupedArchive(t, 300), "float32": f32} {
		a, err := Open(archive)
		if err != nil {
			t.Fatal(err)
		}
		d1, v1, err := a.decoders()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Decompress(DecompressOptions{}); err != nil {
			t.Fatal(err)
		}
		d2, v2, err := a.decoders()
		if err != nil {
			t.Fatal(err)
		}
		if len(d1) == 0 || &d1[0] != &d2[0] {
			t.Fatalf("%s: decoder slice reparsed between requests; want one cached parse", name)
		}
		if (v1 != nil) != (name == "float32") || (v1 != nil && (len(v1) != len(d1) || &v1[0] != &v2[0])) {
			t.Fatalf("%s: float32 views %v then %v for %d decoders", name, v1, v2, len(d1))
		}
	}
}

// retainedStates counts the inference states a pool holds.
func retainedStates(p *inferPool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// TestHandleConcurrentRequests hammers one two-expert handle from many
// goroutines with mixed projections and row ranges under -race: all shared
// handle state must be immutable, Once-guarded or behind the inference pool's
// lock; every result must match a fresh handle's byte for byte; and the
// handle never retains more inference states than decode workers ran at
// once: goroutines × per-request parallelism, whatever the expert count.
func TestHandleConcurrentRequests(t *testing.T) {
	opts := quickOpts()
	opts.RowGroupSize = 64
	opts.NumExperts = 2
	archive, _ := compressLatent(t, 500, 7, opts)
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	const workers, par = 8, 2
	shapes := []DecompressOptions{
		{},
		{Columns: []string{"m2"}},
		{Columns: []string{"cat", "grade"}},
		{RowRange: &RowRange{Lo: 64, Hi: 256}},
		{Columns: []string{"bin", "m1"}, RowRange: &RowRange{Lo: 10, Hi: 450}},
		{Columns: []string{"cat"}, RowRange: &RowRange{Lo: 300, Hi: 301}},
	}
	want := make([][]byte, len(shapes))
	for i := range shapes {
		shapes[i].Parallelism = par
		res, err := DecompressContext(context.Background(), archive, shapes[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = csvBytes(t, res.Table)
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				shape := (w + i) % len(shapes)
				res, err := a.DecompressContext(context.Background(), shapes[shape])
				if err != nil {
					errs[w] = err
					return
				}
				var buf bytes.Buffer
				if err := res.Table.WriteCSV(&buf); err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(buf.Bytes(), want[shape]) {
					errs[w] = errors.New("concurrent decode differs from baseline")
					return
				}
				if _, err := a.Index(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// States are only made when none is free and are never dropped, so the
	// count after the run is the most the handle ever held.
	if n := retainedStates(&a.infer); n < 1 || n > workers*par {
		t.Errorf("%d inference states retained, want 1…%d", n, workers*par)
	}
}

// warmQueryCeiling bounds the bytes a warm handle allocates per query in
// TestWarmHandleQueryBytesSurviveGC: 2 048 rows in one group, two experts.
// Measured 443 KB, all of it the query's own streams, codes and blocks. A
// handle that builds its inference memory per request (decoder scratch and
// packed weights) measured 1 113 KB on the same queries: 670 KB above this
// measurement, 537 KB above the ceiling.
const warmQueryCeiling = 576 << 10

// A warm handle keeps its inference memory through garbage collections and
// across projections: 31 column projections in rotation, two runtime.GC()
// before each, and no query pays for decoder scratch again. The retained states stay
// bounded: one per expert, the decode running on a pool of one.
func TestWarmHandleQueryBytesSurviveGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs uninstrumented (see scripts/check.sh)")
	}
	opts := quickOpts()
	opts.NumExperts = 2
	archive, tb := compressLatent(t, 2048, 11, opts)
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	var projections [][]int
	for mask := 1; mask < 1<<len(tb.Schema.Columns); mask++ {
		var cols []int
		for c := range tb.Schema.Columns {
			if mask&(1<<c) != 0 {
				cols = append(cols, c)
			}
		}
		projections = append(projections, cols)
	}
	pool := pipeline.NewPool(1)
	query := func(cols []int) {
		if _, err := a.DecodeBlocks(context.Background(), []int{0}, cols, pool); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range projections {
		query(cols) // warm: every projection once
	}
	var total uint64
	var before, after runtime.MemStats
	for round := 0; round < 2; round++ {
		for _, cols := range projections {
			runtime.GC() // twice: a sync.Pool keeps its items through one
			runtime.GC()
			runtime.ReadMemStats(&before)
			query(cols)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	perQuery := total / uint64(2*len(projections))
	t.Logf("%d B per warm query over %d projections", perQuery, len(projections))
	if perQuery > warmQueryCeiling {
		t.Errorf("warm query allocates %d B, ceiling %d", perQuery, warmQueryCeiling)
	}
	if n := retainedStates(&a.infer); n != 1 {
		t.Errorf("%d inference states retained, want 1", n)
	}
}
