package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"deepsqueeze/internal/datagen"
	"deepsqueeze/internal/dataset"
)

// writeStream pushes tb through an ArchiveWriter in writeRows-sized calls.
func writeStream(t *testing.T, tb *dataset.Table, writeRows int, opts Options) ([]byte, WriterStats) {
	t.Helper()
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf, tb.Schema, []float64{0, 0, 0.05, 0.05, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < tb.NumRows(); lo += writeRows {
		hi := lo + writeRows
		if hi > tb.NumRows() {
			hi = tb.NumRows()
		}
		chunk := dataset.NewTable(tb.Schema, hi-lo)
		appendRows(chunk, tb, lo, hi)
		if err := aw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), aw.Stats()
}

// readStream drains an ArchiveReader into one table.
func readStream(t *testing.T, archive []byte) *dataset.Table {
	t.Helper()
	ar, err := NewArchiveReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	out := dataset.NewTable(ar.Schema(), 0)
	for {
		g, err := ar.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		appendRows(out, g, 0, g.NumRows())
	}
	return out
}

func TestArchiveWriterReaderRoundTrip(t *testing.T) {
	tb := latentTable(1100, 21)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	tol := tolerances(tb, thr)
	for _, experts := range []int{1, 2} {
		opts := quickOpts()
		opts.RowGroupSize = 250
		opts.NumExperts = experts
		archive, stats := writeStream(t, tb, 170, opts)
		if stats.Rows != 1100 || stats.Groups != 5 {
			t.Fatalf("experts %d: stats %+v", experts, stats)
		}
		// Structural bounded-memory guarantee: the buffer never holds more
		// than one row group plus one Write call's rows.
		if stats.MaxBufferedRows > 250+170 {
			t.Fatalf("experts %d: buffered %d rows", experts, stats.MaxBufferedRows)
		}
		// The streamed archive is a normal v2 archive for the in-memory path.
		got, err := Decompress(archive)
		if err != nil {
			t.Fatalf("experts %d: %v", experts, err)
		}
		if err := tb.EqualWithin(got, tol); err != nil {
			t.Fatalf("experts %d: in-memory decode: %v", experts, err)
		}
		// And the streaming reader reproduces the same rows group by group.
		sgot := readStream(t, archive)
		if err := tb.EqualWithin(sgot, tol); err != nil {
			t.Fatalf("experts %d: streaming decode: %v", experts, err)
		}
		info, err := Inspect(archive)
		if err != nil {
			t.Fatal(err)
		}
		if info.Rows != 1100 || len(info.Groups) != 5 {
			t.Fatalf("experts %d: inspect %+v", experts, info)
		}
	}
}

func TestArchiveWriterShortTable(t *testing.T) {
	// Fewer rows than one group: everything flushes at Close.
	tb := latentTable(60, 22)
	opts := quickOpts()
	opts.RowGroupSize = 4096
	archive, stats := writeStream(t, tb, 25, opts)
	if stats.Groups != 1 {
		t.Fatalf("stats %+v", stats)
	}
	got := readStream(t, archive)
	if err := tb.EqualWithin(got, tolerances(tb, []float64{0, 0, 0.05, 0.05, 0})); err != nil {
		t.Fatal(err)
	}
}

func TestArchiveWriterEmpty(t *testing.T) {
	schema := latentTable(1, 23).Schema
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf, schema, []float64{0, 0, 0, 0, 0}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Fatalf("%d rows", got.NumRows())
	}
	if sg := readStream(t, buf.Bytes()); sg.NumRows() != 0 {
		t.Fatalf("streaming: %d rows", sg.NumRows())
	}
}

// TestArchiveWriterOneGroupEqualsCompress is the contract that lets the writer
// frame its first group straight from the state it trained and decided on: a
// table of at most one row group streams to exactly the bytes Compress returns.
func TestArchiveWriterOneGroupEqualsCompress(t *testing.T) {
	thr := []float64{0, 0, 0.05, 0.05, 0}
	for _, rows := range []int{0, 60, 250} {
		for _, experts := range []int{1, 2} {
			for _, keep := range []bool{true, false} {
				opts := quickOpts()
				opts.RowGroupSize = 250
				opts.NumExperts = experts
				opts.KeepRowOrder = keep
				tb := latentTable(rows, 27)
				res, err := Compress(tb, thr, opts)
				if err != nil {
					t.Fatal(err)
				}
				streamed, stats := writeStream(t, tb, 100, opts)
				if !bytes.Equal(streamed, res.Archive) {
					t.Errorf("rows %d experts %d keepRowOrder %v: writer emitted %d bytes, Compress %d, and they differ",
						rows, experts, keep, len(streamed), len(res.Archive))
				}
				if stats.Groups != 1 || stats.BytesWritten != int64(len(streamed)) {
					t.Errorf("rows %d experts %d keepRowOrder %v: stats %+v for a one-group archive of %d bytes",
						rows, experts, keep, stats, len(streamed))
				}
			}
		}
	}
}

// fallbackWriteAllocs measures what one ArchiveWriter.Write of rows lossless
// high-cardinality numeric rows, and the Close after it, allocate, in 32-row
// groups: fallback streams, no model, so that the stream codecs' and the
// writer's own costs are all there is. The measurement ends after Close,
// which waits for the last group Write left compressing, so that every group
// is inside it.
func fallbackWriteAllocs(t *testing.T, rows int) (uint64, WriterStats) {
	t.Helper()
	schema := dataset.NewSchema(
		dataset.Column{Name: "a", Type: dataset.Numeric},
		dataset.Column{Name: "b", Type: dataset.Numeric},
		dataset.Column{Name: "c", Type: dataset.Numeric},
		dataset.Column{Name: "d", Type: dataset.Numeric},
	)
	opts := quickOpts()
	opts.RowGroupSize = 32
	tb := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < rows; i++ {
		tb.AppendRow(nil, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	aw, err := NewArchiveWriter(io.Discard, schema, []float64{0, 0, 0, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := aw.Write(tb); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, aw.Stats()
}

// TestArchiveWriterLargeWriteIsLinear pins the cost of one Write spanning many
// row groups: every row is copied into the buffer once and the partial tail
// once more, so four times the rows allocate four times the bytes, to within
// the few percent that one-time costs and the tail move it. (The writer used
// to re-copy the whole remainder after each flushed group, which made it
// quadratic.) A group costs the same to compress wherever it starts, so
// that cost scales with the rows too, once the codecs' pooled writers exist:
// a first Write makes them, and the collector is off while the two measured
// ones run, so that it cannot empty the pools between groups. Uninstrumented
// only: under the race detector sync.Pool drops items on purpose, and each
// drop costs a DEFLATE writer.
func TestArchiveWriterLargeWriteIsLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector; gate runs uninstrumented (see scripts/check.sh)")
	}
	fallbackWriteAllocs(t, 2048+10)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, _ := fallbackWriteAllocs(t, 2048+10)
	large, stats := fallbackWriteAllocs(t, 8192+10)
	t.Logf("one Write of 2058 rows allocated %d bytes, of 8202 rows %d (%.1fx)", small, large, float64(large)/float64(small))
	if float64(large) > 4.2*float64(small) {
		t.Errorf("4x the rows allocated %.1fx the bytes: Write is not linear in its input", float64(large)/float64(small))
	}
	// The buffer held that one Write's rows and never a full group more.
	if stats.Rows != 8202 || stats.Groups != 257 || stats.MaxBufferedRows != 8202 {
		t.Errorf("stats %+v", stats)
	}
}

// TestArchiveWriterAutoCodecAllocs is the same Write: trying every frame on
// every stream may cost a small multiple of writing the streams as they are,
// not a DEFLATE writer's 1.2 MB of state per candidate (≈ 45x, before the
// writers were pooled). The ceiling is 3x what a group allocated with every
// stream stored (77 676–77 702 B on amd64, when writers could still be told
// to store), a gate no looser than the 3x ratio it replaces. Uninstrumented
// only: under the race detector sync.Pool drops items on purpose.
func TestArchiveWriterAutoCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector; gate runs uninstrumented (see scripts/check.sh)")
	}
	const ceiling = 233_000 // bytes per 32-row group
	auto, stats := fallbackWriteAllocs(t, 2048+10)
	perGroup := auto / uint64(stats.Groups)
	t.Logf("%d bytes per 32-row group", perGroup)
	if perGroup > ceiling {
		t.Errorf("a 32-row group allocates %d bytes, want at most %d", perGroup, ceiling)
	}
}

// failingWriter counts its Write calls and fails the n-th and every one
// after it; n 0 fails none.
type failingWriter struct {
	n, calls int
}

var errSinkFailed = errors.New("sink failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.n > 0 && w.calls >= w.n {
		return 0, errSinkFailed
	}
	return len(p), nil
}

// The writer frames a group in the caller's goroutine, inside the Write that
// fills the group after it or inside Close, so an io.Writer failing on its
// n-th call fails exactly the call that makes it, and every call after that.
// Nothing reaches the io.Writer before the first group has compressed, and
// Stats between the calls counts the group compressing among the rows but
// not among the groups — read while that group compresses, which the race
// detector watches.
func TestArchiveWriterErrorOrder(t *testing.T) {
	opts := quickOpts()
	opts.RowGroupSize = 100
	tb := latentTable(400, 29)
	// feed writes tb to w, one group per Write, then closes; it returns each
	// call's error and w's call count after each call.
	feed := func(w *failingWriter) (errs []error, calls []int) {
		t.Helper()
		aw, err := NewArchiveWriter(w, tb.Schema, []float64{0, 0, 0.05, 0.05, 0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < tb.NumRows(); lo += 100 {
			errs = append(errs, aw.Write(sliceRows(tb, lo, lo+100)))
			calls = append(calls, w.calls)
			if s := aw.Stats(); errs[len(errs)-1] == nil && (s.Rows != lo+100 || s.Groups != lo/100) {
				t.Fatalf("after the Write of rows [%d, %d): stats %+v, want %d rows in %d framed groups", lo, lo+100, s, lo+100, lo/100)
			}
		}
		errs = append(errs, aw.Close())
		return errs, append(calls, w.calls)
	}
	errs, calls := feed(&failingWriter{})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d on a working io.Writer: %v", i, err)
		}
	}
	if calls[0] != 0 {
		t.Fatalf("the first Write made %d io.Writer calls while its group compressed, want 0", calls[0])
	}
	for n := 1; n <= calls[len(calls)-1]; n++ {
		errs, _ := feed(&failingWriter{n: n})
		for i, err := range errs {
			if want := calls[i] >= n; errors.Is(err, errSinkFailed) != want || (!want && err != nil) {
				t.Fatalf("io.Writer failing on call %d: call %d (of %d; %d io.Writer calls by its end on a working one) returned %v",
					n, i, len(errs), calls[i], err)
			}
		}
	}
}

// A writer dropped without Close while a group compresses leaks nothing: the
// goroutine compressing it, and the pool helpers it took, end with the
// group. Each writer here frames a training group and leaves a refit group
// compressing.
func TestArchiveWriterAbandonLeaksNothing(t *testing.T) {
	opts := quickOpts()
	opts.RowGroupSize = 100
	opts.Parallelism = 2
	tb := latentTable(200, 30)
	base := runtime.NumGoroutine()
	for range 3 {
		aw, err := NewArchiveWriter(io.Discard, tb.Schema, []float64{0, 0, 0.05, 0.05, 0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := aw.Write(tb); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after the writers were dropped, %d before they were made", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestArchiveWriterRange(t *testing.T) {
	// Row-range decode of a streamed archive skips non-overlapping groups.
	tb := latentTable(800, 24)
	opts := quickOpts()
	opts.RowGroupSize = 100
	archive, _ := writeStream(t, tb, 800, opts)
	full := decodeOpts(t, archive, DecompressOptions{})
	got := decodeOpts(t, archive, DecompressOptions{RowRange: &RowRange{Lo: 350, Hi: 420}})
	if got.NumRows() != 70 {
		t.Fatalf("%d rows", got.NumRows())
	}
	for col := range full.Schema.Columns {
		if err := columnEqual(full, got, col, col, 350); err != nil {
			t.Fatal(err)
		}
	}
}

func TestArchiveReaderV1Fallback(t *testing.T) {
	// A v1 golden fixture decodes through the streaming reader (in-memory
	// fallback, one table).
	tb := latentTable(300, 25)
	res, err := Compress(tb, []float64{0, 0, 0.05, 0.05, 0}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize a v1 archive check using the golden fixtures instead: the
	// current compressor only writes v2, so flip through the reader with the
	// v2 archive to ensure no fallback, then rely on golden_test for v1.
	ar, err := NewArchiveReader(bytes.NewReader(res.Archive))
	if err != nil {
		t.Fatal(err)
	}
	if ar.v1 {
		t.Fatal("v2 archive took the v1 fallback path")
	}
}

func TestArchiveReaderCorrupt(t *testing.T) {
	tb := latentTable(400, 26)
	opts := quickOpts()
	opts.RowGroupSize = 100
	archive, _ := writeStream(t, tb, 400, opts)
	// Flip one byte in the middle (inside some segment): the reader must
	// fail with ErrCorrupt at or before that group, never panic.
	for _, pos := range []int{len(archive) / 3, len(archive) / 2, len(archive) - 3} {
		bad := append([]byte(nil), archive...)
		bad[pos] ^= 0xFF
		ar, err := NewArchiveReader(bytes.NewReader(bad))
		for err == nil {
			_, err = ar.Next()
			if err == io.EOF {
				t.Fatalf("pos %d: corrupt archive read to EOF", pos)
			}
		}
	}
	// Truncation at every prefix length must error, never panic or succeed.
	for _, n := range []int{0, 5, 6, 20, len(archive) / 2, len(archive) - 1} {
		ar, err := NewArchiveReader(bytes.NewReader(archive[:n]))
		for err == nil {
			_, err = ar.Next()
			if err == io.EOF {
				t.Fatalf("len %d: truncated archive read to EOF", n)
			}
		}
	}
}

// A chunk length the stream cannot back is corrupt without the reader first
// allocating it: the length prefix below claims 256 MiB and five bytes
// follow.
func TestArchiveReaderCorruptLengthAllocatesLittle(t *testing.T) {
	head := binary.AppendUvarint([]byte("DSQZ\x02\x00"), 1<<28)
	bad := append(head, 1, 2, 3, 4, 5)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewArchiveReader(bytes.NewReader(bad))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
		t.Fatalf("a %d-byte stream made the reader allocate %d bytes", len(bad), n)
	}
}

// The streaming reader's row cap refuses a group that would take the rows
// past it before decoding the group, at either format version.
func TestArchiveReaderRowCap(t *testing.T) {
	opts := quickOpts()
	opts.RowGroupSize = 100
	archive, _ := writeStream(t, latentTable(250, 27), 250, opts)
	v1, err := os.ReadFile(filepath.Join("testdata", "categorical.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	rowsOf := func(archive []byte, maxRows int) (int, error) {
		ar, err := NewArchiveReader(bytes.NewReader(archive), DecompressOptions{MaxRows: maxRows})
		rows := 0
		for err == nil {
			var g *dataset.Table
			if g, err = ar.Next(); err == nil {
				rows += g.NumRows()
			}
		}
		if err == io.EOF {
			err = nil
		}
		return rows, err
	}
	for _, tc := range []struct {
		archive []byte
		rows    int
	}{{archive, 250}, {v1, 0}} {
		if tc.rows == 0 {
			info, err := Inspect(tc.archive)
			if err != nil {
				t.Fatal(err)
			}
			tc.rows = info.Rows
		}
		if n, err := rowsOf(tc.archive, tc.rows); n != tc.rows || err != nil {
			t.Fatalf("cap %d: read %d rows, error %v", tc.rows, n, err)
		}
		if n, err := rowsOf(tc.archive, tc.rows-1); !errors.Is(err, ErrCorrupt) || n >= tc.rows {
			t.Fatalf("cap %d: read %d rows, error %v, want ErrCorrupt", tc.rows-1, n, err)
		}
	}
}

// readerCSV drains an ArchiveReader opened with opts into one CSV stream.
func readerCSV(archive []byte, opts DecompressOptions) ([]byte, error) {
	ar, err := NewArchiveReader(bytes.NewReader(archive), opts)
	if err != nil {
		return nil, err
	}
	return readAllCSV(ar)
}

// readAllCSV renders every group ar has left as one CSV.
func readAllCSV(ar *ArchiveReader) ([]byte, error) {
	var buf bytes.Buffer
	cw := dataset.NewCSVWriter(&buf, ar.Schema())
	for {
		g, err := ar.Next()
		if err == io.EOF {
			err = cw.Flush()
			return buf.Bytes(), err
		}
		if err != nil {
			return nil, err
		}
		if err := cw.WriteTable(g); err != nil {
			return nil, err
		}
	}
}

// TestArchiveReaderMatchesHandle runs the streaming reader and a handle's
// DecompressContext with the same options over every committed fixture: the
// reader's groups, concatenated, render the handle's table at parallelism 1
// byte for byte at reader parallelism 1, 2 and 4, and a request one of them
// refuses fails both with the same error.
func TestArchiveReaderMatchesHandle(t *testing.T) {
	names := []string{"batch_v2"}
	for _, gc := range goldenCases() {
		names = append(names, gc.name)
	}
	for _, name := range names {
		archive, err := os.ReadFile(filepath.Join("testdata", name+".dsqz"))
		if err != nil {
			t.Fatal(err)
		}
		info, err := Inspect(archive)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := info.Rows, info.Schema.Columns
		bound := rows // the first group boundary
		if len(info.Groups) > 1 {
			bound = info.Groups[0].RowCount
		}
		spans := []*RowRange{
			nil,
			{0, 0},
			{bound, bound},
			{bound / 4, bound / 2}, // inside one group
			{bound / 2, min(bound+(rows-bound)/2+1, rows)}, // across groups
			{rows / 3, rows},     // ending at the last row
			{rows / 2, rows + 1}, // past the last row
		}
		if name == "batch_v2" {
			// The handle checks a span against the row count before it
			// needs the model; the reader refuses a batch archive at open,
			// before it can know the row count.
			spans = spans[:len(spans)-1]
		}
		for _, sel := range [][]string{nil, {cols[len(cols)-1].Name}, {cols[len(cols)-1].Name, cols[0].Name}} {
			for _, rr := range spans {
				var want []byte
				res, herr := DecompressContext(context.Background(), archive, DecompressOptions{Columns: sel, RowRange: rr, Parallelism: 1})
				if herr == nil {
					want = csvBytes(t, res.Table)
				}
				for _, par := range []int{1, 2, 4} {
					opts := DecompressOptions{Columns: sel, RowRange: rr, Parallelism: par}
					label := fmt.Sprintf("%s columns %v span %v parallelism %d", name, sel, rr, par)
					got, rerr := readerCSV(archive, opts)
					if fmt.Sprint(herr) != fmt.Sprint(rerr) {
						t.Fatalf("%s: handle error %v, reader error %v", label, herr, rerr)
					}
					if name == "batch_v2" && (herr == nil || !errors.Is(herr, errBatchArchive)) {
						t.Fatalf("%s: error %v, want %v", label, herr, errBatchArchive)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: reader wrote\n%s\nhandle wrote\n%s", label, got, want)
					}
				}
			}
		}
	}
}

// groupCSVs renders each group a reader returns as a CSV of its own.
func groupCSVs(t *testing.T, archive []byte) [][]byte {
	t.Helper()
	ar, err := NewArchiveReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for {
		g, err := ar.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, csvBytes(t, g))
	}
}

// The reader decodes one group ahead, yet errors surface in group order.
// Damage inside group k+1 — a flipped byte its segment checksum catches, a
// flipped byte behind refreshed checksums that only its decode can notice,
// or the stream ending inside its segment — leaves the first k+1 Nexts
// returning exactly the groups an undamaged read returns, and fails the
// Next that would return group k+1, and the one after it, with ErrCorrupt.
func TestArchiveReaderErrorOrder(t *testing.T) {
	opts := quickOpts()
	opts.RowGroupSize = 100
	archive, _ := writeStream(t, latentTable(400, 28), 400, opts)
	m, err := parseArchiveMeta(archive)
	if err != nil {
		t.Fatal(err)
	}
	want := groupCSVs(t, archive)
	check := func(label string, bad []byte, k int) {
		t.Helper()
		ar, err := NewArchiveReader(bytes.NewReader(bad), DecompressOptions{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		for i := 0; i <= k; i++ {
			g, err := ar.Next()
			if err != nil {
				t.Fatalf("%s: Next %d failed before group %d: %v", label, i, k+1, err)
			}
			if !bytes.Equal(csvBytes(t, g), want[i]) {
				t.Fatalf("%s: group %d differs from an undamaged read", label, i)
			}
		}
		for i := k + 1; i <= k+2; i++ {
			if _, err := ar.Next(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: Next %d returned %v, want ErrCorrupt", label, i, err)
			}
		}
	}
	for k := 0; k+1 < len(m.groups); k++ {
		seg := m.groups[k+1]
		mid, end := int(seg.off+seg.segLen/2), int(seg.off+seg.segLen)
		bad := append([]byte(nil), archive...)
		bad[mid] ^= 0xff
		check(fmt.Sprintf("group %d checksum", k+1), bad, k)
		check(fmt.Sprintf("group %d truncated", k+1), archive[:mid], k)
		decoded := false
		for pos := mid; pos < end-4 && !decoded; pos++ {
			bad := append([]byte(nil), archive...)
			bad[pos] ^= 0x5a
			if bad = refreshCRC(bad); func() bool { _, err := readerCSV(bad, DecompressOptions{}); return err == nil }() {
				continue
			}
			check(fmt.Sprintf("group %d byte %d", k+1, pos), bad, k)
			decoded = true
		}
		if !decoded {
			t.Fatalf("no damage to group %d behind its checksum failed a read", k+1)
		}
	}
}

// A reader dropped after one Next, while it decodes the next group, leaks
// nothing: the goroutine decoding ahead and the pool helpers it took end
// with the group, and no Close is needed.
func TestArchiveReaderAbandonLeaksNothing(t *testing.T) {
	archive := censusArchive(t)
	base := runtime.NumGoroutine()
	for range 3 {
		ar, err := NewArchiveReader(bytes.NewReader(archive), DecompressOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ar.Next(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after the readers were dropped, %d before they were opened", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A segment outside the row span is read and checksummed but never unpacked:
// damage to any byte of the first group's streams, its checksums refreshed so
// that only decoding could notice, fails a whole read somewhere yet never a
// read of the last group, which still matches the handle's.
func TestArchiveReaderSkipsGroupsOutsideSpan(t *testing.T) {
	archive, err := os.ReadFile(filepath.Join("testdata", "multigroup_v2.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseArchiveMeta(archive)
	if err != nil {
		t.Fatal(err)
	}
	first, last := m.groups[0], m.groups[len(m.groups)-1]
	_, body, n, err := m.segment(&sectionReader{buf: m.body, pos: int(first.off)}, first, true)
	if err != nil {
		t.Fatal(err)
	}
	// The segment's framed chunk ends the segment; its streams start where
	// the segment header leaves off and stop at its checksum.
	framed := int(first.off+first.segLen) - int(n)
	opts := DecompressOptions{RowRange: &RowRange{last.start, last.start + last.count}}
	res, err := DecompressContext(context.Background(), archive, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := csvBytes(t, res.Table)
	damaging := 0
	for pos := framed + body.pos; pos < framed+int(n)-4; pos++ {
		bad := append([]byte(nil), archive...)
		bad[pos] ^= 0x5a
		bad = refreshCRC(bad)
		if _, err := readerCSV(bad, DecompressOptions{}); err != nil {
			damaging++
		}
		got, err := readerCSV(bad, opts)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("byte %d of the first group damaged: reading the last group: error %v, same CSV %v", pos, err, bytes.Equal(got, want))
		}
	}
	if damaging == 0 {
		t.Fatal("no damage to the first group's streams failed a whole read")
	}
}

// censusArchive is a lossless one-expert archive of a 24-column Census head
// in two 520-row groups, compressed once for the tests that read it.
func censusArchive(t *testing.T) []byte {
	t.Helper()
	archive, err := censusOnce()
	if err != nil {
		t.Fatal(err)
	}
	return archive
}

var censusOnce = sync.OnceValues(func() ([]byte, error) {
	opts := fingerprintOpts()
	opts.RowGroupSize = 520
	tb := censusHead(rand.New(rand.NewSource(44)), 1040, 24)
	res, err := Compress(tb, datagen.Thresholds(tb, 0), opts)
	if err != nil {
		return nil, err
	}
	return res.Archive, nil
})

// TestConcurrentReaders runs streaming readers over mixed archives and
// projections from many goroutines at once under -race: each renders the CSV
// a reader running alone does, and each reader's own inference pool never
// holds more states than the decode workers it ran at once.
func TestConcurrentReaders(t *testing.T) {
	twoExperts := quickOpts()
	twoExperts.NumExperts = 2
	twoExperts.RowGroupSize = 300
	moe, _ := compressLatent(t, 900, 36, twoExperts)
	census := censusArchive(t)
	const workers, par = 6, 2
	type read struct {
		archive []byte
		opts    DecompressOptions
	}
	reads := []read{
		{census, DecompressOptions{}},
		{moe, DecompressOptions{}},
		{census, DecompressOptions{Columns: []string{"attr03", "attr17"}}},
		{moe, DecompressOptions{Columns: []string{"cat", "m2"}, RowRange: &RowRange{Lo: 100, Hi: 700}}},
		{census, DecompressOptions{RowRange: &RowRange{Lo: 500, Hi: 540}}},
		{groupedArchive(t, 300), DecompressOptions{Columns: []string{"m1"}}},
	}
	want := make([][]byte, len(reads))
	for i := range reads {
		reads[i].opts.Parallelism = par
		var err error
		if want[i], err = readerCSV(reads[i].archive, reads[i].opts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range len(reads) {
				r := (w + i) % len(reads)
				ar, err := NewArchiveReader(bytes.NewReader(reads[r].archive), reads[r].opts)
				if err != nil {
					errs[w] = err
					return
				}
				got, err := readAllCSV(ar)
				if err != nil {
					errs[w] = err
					return
				}
				if !bytes.Equal(got, want[r]) {
					errs[w] = fmt.Errorf("read %d differs from a reader running alone", r)
					return
				}
				// States are only made when none is free and are never
				// dropped, so the count after the read is the most the
				// reader ever held at once.
				if n := retainedStates(ar.d.infer); n < 1 || n > par {
					errs[w] = fmt.Errorf("read %d: reader retained %d inference states, want 1…%d", r, n, par)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// inferStateFloor is less than the inference memory one state holds after
// decoding one of censusArchive's 520-row groups at parallelism 1.
const inferStateFloor = 768 << 10

// secondGroupAllocs opens a reader on archive at parallelism 1 and decodes
// its first group as the first Next does, then calls between and measures
// the bytes the second group allocates to be read and decoded. Next starts
// decoding the second group before it returns the first, so the measurement
// waits for that decode to end. It returns the least of three such
// measurements, each on a reader of its own, and the last reader.
func secondGroupAllocs(t *testing.T, archive []byte, between func(*ArchiveReader)) (uint64, *ArchiveReader) {
	t.Helper()
	var least uint64
	var ar *ArchiveReader
	for i := range 3 {
		var err error
		if ar, err = NewArchiveReader(bytes.NewReader(archive), DecompressOptions{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		ar.ahead = ar.advance()
		<-ar.ahead.done
		between(ar)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ar.Next(); err != nil {
			t.Fatal(err)
		}
		<-ar.ahead.done
		runtime.ReadMemStats(&after)
		if ar.ahead.err != nil {
			t.Fatal(ar.ahead.err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least, ar
}

// A streaming reader decodes its later groups in the inference memory its
// first group left in the reader's pool: its second group makes no
// inferState (the pool holds one state after it) and grows no arena, so it
// allocates much less than the same group decoded in a fresh pool.
// Uninstrumented only, like the other allocation gates.
func TestReaderReusesInferenceMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs uninstrumented (see scripts/check.sh)")
	}
	archive := censusArchive(t)
	warm, ar := secondGroupAllocs(t, archive, func(*ArchiveReader) {})
	cold, _ := secondGroupAllocs(t, archive, func(ar *ArchiveReader) { ar.d.infer = new(inferPool) })
	t.Logf("second group allocated %d B; in a fresh pool %d B", warm, cold)
	if states := retainedStates(ar.d.infer); states != 1 {
		t.Errorf("the reader retained %d states after two groups, want 1", states)
	}
	if warm+inferStateFloor > cold {
		t.Errorf("the second group allocated %d B, within %d B of the same group in a fresh pool (%d B): it built inference memory again", warm, inferStateFloor, cold)
	}
}

// A streaming reader decodes its second group in the decode slots its first
// group used — the inverted perm and one code slice per model column — so
// it allocates less than the same group decoded in fresh slots, by at least
// half their size. The rest is margin for the codec's pooled stream
// decoders (sync.Pool): whether the group finds one after the collection
// that precedes the measurement moves its bytes by about 42 KB.
// Uninstrumented only, like the other allocation gates.
func TestReaderReusesDecodeSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs uninstrumented (see scripts/check.sh)")
	}
	archive := censusArchive(t)
	warm, ar := secondGroupAllocs(t, archive, func(*ArchiveReader) {})
	cold, _ := secondGroupAllocs(t, archive, func(ar *ArchiveReader) { ar.d.slots = new(decodeSlots) })
	// What fresh slots hold for the group: its unperm, and one code or value
	// slice per model column, each a word per row.
	slots := 1
	for _, c := range ar.d.slots.colCodes {
		slots += min(len(c), 1)
	}
	for _, c := range ar.d.slots.contOut {
		slots += min(len(c), 1)
	}
	size := uint64(slots * 8 * len(ar.d.slots.unperm))
	floor := size / 2
	t.Logf("second group allocated %d B; in fresh slots %d B (%d slots, %d B)", warm, cold, slots, size)
	if slots < 2 {
		t.Fatalf("the reader kept %d decode slots, want its unperm and the model columns'", slots)
	}
	if warm+floor > cold {
		t.Errorf("the second group allocated %d B, within %d B of the same group in fresh slots (%d B): it allocated its decode slots again", warm, floor, cold)
	}
}
