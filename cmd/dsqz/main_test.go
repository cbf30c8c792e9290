package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepsqueeze"
)

func TestParseSchema(t *testing.T) {
	s, err := parseSchema("city:cat,temp:num, humid:num")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumColumns() != 3 {
		t.Fatalf("columns = %d", s.NumColumns())
	}
	want := []deepsqueeze.Column{
		{Name: "city", Type: deepsqueeze.Categorical},
		{Name: "temp", Type: deepsqueeze.Numeric},
		{Name: "humid", Type: deepsqueeze.Numeric},
	}
	for i, c := range want {
		if s.Columns[i] != c {
			t.Fatalf("column %d = %+v, want %+v", i, s.Columns[i], c)
		}
	}
}

func TestParseSchemaErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"noseparator",
		"name:bogus",
		"a:cat,b",
	} {
		if _, err := parseSchema(bad); err == nil {
			t.Errorf("parseSchema(%q) accepted", bad)
		}
	}
}

func TestParseRowRange(t *testing.T) {
	good := map[string]deepsqueeze.RowRange{
		"0:100":     {Lo: 0, Hi: 100},
		"50:50":     {Lo: 50, Hi: 50},
		"1000:2000": {Lo: 1000, Hi: 2000},
	}
	for in, want := range good {
		rr, err := parseRowRange(in)
		if err != nil {
			t.Errorf("parseRowRange(%q): %v", in, err)
			continue
		}
		if rr != want {
			t.Errorf("parseRowRange(%q) = %+v, want %+v", in, rr, want)
		}
	}
	bad := []string{
		"", "100", "a:b", "10:", ":10", "100:50", "-5:10", "0:-1",
	}
	for _, in := range bad {
		if _, err := parseRowRange(in); err == nil {
			t.Errorf("parseRowRange(%q) accepted", in)
		}
	}
}

// buildTestArchive compresses a tiny table for flag-validation tests.
func buildTestArchive(t *testing.T) []byte {
	t.Helper()
	schema := deepsqueeze.NewSchema(
		deepsqueeze.Column{Name: "city", Type: deepsqueeze.Categorical},
		deepsqueeze.Column{Name: "temp", Type: deepsqueeze.Numeric},
	)
	tb := deepsqueeze.NewTable(schema, 80)
	for i := 0; i < 80; i++ {
		tb.AppendRow([]string{[]string{"oslo", "lima"}[i%2]}, []float64{float64(i)})
	}
	opts := deepsqueeze.DefaultOptions()
	opts.Train.Epochs = 2
	opts.Seed = 3
	res, err := deepsqueeze.Compress(tb, deepsqueeze.UniformThresholds(tb, 0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Archive
}

// A request the archive cannot serve fails naming what is wrong — an
// unknown column with the archive's columns, a span past the last row with
// the row count — and publishes nothing: a file already at -out survives.
func TestDecompressRejectsBadRequest(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "t.dsqz"), filepath.Join(dir, "out.csv")
	if err := os.WriteFile(in, buildTestArchive(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cols", "nope"}, `unknown column "nope" (columns: city, temp)`},
		{[]string{"-rows", "0:81"}, "row range [0,81) outside table of 80 rows"},
		{[]string{"-rows", "70:90", "-cols", "temp"}, "row range [70,90) outside table of 80 rows"},
	} {
		err := runDecompress(context.Background(), append([]string{"-in", in, "-out", out}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if got, _ := os.ReadFile(out); string(got) != "previous\n" {
			t.Errorf("%v: -out holds %q after a failed decompress", tc.args, got)
		}
		if _, err := os.Stat(out + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: .tmp left behind (stat error %v)", tc.args, err)
		}
	}
}

// An empty -rows span writes only the header, wherever it starts: "0:0" is
// not RowRange's select-everything zero value.
func TestDecompressEmptyRowSpan(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "t.dsqz")
	if err := os.WriteFile(in, buildTestArchive(t), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.csv")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rows", "0:0"}, "city,temp\n"},
		{[]string{"-rows", "5:5"}, "city,temp\n"},
		{[]string{"-rows", "80:80"}, "city,temp\n"},
		{[]string{"-rows", "0:0", "-cols", "temp"}, "temp\n"},
	} {
		captureStdout(t, func() error {
			return runDecompress(context.Background(), append([]string{"-in", in, "-out", out}, tc.args...))
		})
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%v: wrote %q, want %q", tc.args, got, tc.want)
		}
	}
}

// The read subcommands open an archive once, and a corrupt one fails each of
// them with ErrCorrupt naming its path exactly once.
func TestCorruptArchiveNamedOnce(t *testing.T) {
	archive := buildTestArchive(t)
	archive[len(archive)/2] ^= 0x01 // the checksum no longer matches
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.dsqz")
	if err := os.WriteFile(in, archive, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.csv")
	for name, run := range map[string]func() error{
		"decompress -cols": func() error {
			return runDecompress(context.Background(), []string{"-in", in, "-out", out, "-cols", "city"})
		},
		"query":   func() error { return runQuery(context.Background(), []string{"-in", in}) },
		"inspect": func() error { return runInspect([]string{"-in", in}) },
	} {
		err := run()
		if !errors.Is(err, deepsqueeze.ErrCorrupt) || strings.Count(err.Error(), in) != 1 {
			t.Errorf("%s: error %v, want ErrCorrupt naming %s once", name, err, in)
		}
	}
}

func TestParseAggs(t *testing.T) {
	aggs, err := parseAggs("count, min:temp,max:temp ,sum:temp")
	if err != nil {
		t.Fatal(err)
	}
	want := []deepsqueeze.AggOp{
		{Kind: deepsqueeze.AggCount},
		{Kind: deepsqueeze.AggMin, Col: "temp"},
		{Kind: deepsqueeze.AggMax, Col: "temp"},
		{Kind: deepsqueeze.AggSum, Col: "temp"},
	}
	if len(aggs) != len(want) {
		t.Fatalf("%d aggs, want %d", len(aggs), len(want))
	}
	for i := range want {
		if aggs[i] != want[i] {
			t.Errorf("agg %d = %+v, want %+v", i, aggs[i], want[i])
		}
	}
	for _, bad := range []string{"", "avg:temp", "min", "min:", "count:temp", ","} {
		if _, err := parseAggs(bad); err == nil {
			t.Errorf("parseAggs(%q) accepted", bad)
		}
	}
}

func TestArchiveErr(t *testing.T) {
	if err := archiveErr("x.dsqz", nil); err != nil {
		t.Fatalf("nil error wrapped: %v", err)
	}
	plain := fmt.Errorf("disk on fire")
	if err := archiveErr("x.dsqz", plain); err != plain {
		t.Fatalf("non-corrupt error rewrapped: %v", err)
	}
	_, cerr := deepsqueeze.Decompress([]byte("DSQZ garbage that is not an archive"))
	if cerr == nil {
		t.Fatal("garbage archive accepted")
	}
	wrapped := archiveErr("x.dsqz", cerr)
	if !strings.Contains(wrapped.Error(), "x.dsqz") || !errors.Is(wrapped, deepsqueeze.ErrCorrupt) {
		t.Fatalf("corrupt error not attributed to the archive: %v", wrapped)
	}
}

// TestRunInspectJSON checks `inspect -json` emits the same summary document
// dsqzd's /archives endpoint serves, with the path filled in.
func TestRunInspectJSON(t *testing.T) {
	archive := buildTestArchive(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.dsqz")
	if err := os.WriteFile(path, archive, 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error { return runInspect([]string{"-in", path, "-json"}) })

	var sum deepsqueeze.ArchiveSummary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("inspect -json emitted invalid JSON: %v\n%s", err, out)
	}
	if sum.Path != path || sum.Rows != 80 || sum.Bytes != len(archive) {
		t.Fatalf("summary = %+v, want path=%s rows=80 bytes=%d", sum, path, len(archive))
	}
	if len(sum.Columns) != 2 || sum.Columns[0].Name != "city" || sum.Columns[0].Type != "cat" ||
		sum.Columns[1].Name != "temp" || sum.Columns[1].Type != "num" {
		t.Fatalf("columns = %+v", sum.Columns)
	}
}

// TestFloat32ArchiveCLI runs core's committed float32-plan golden through
// the commands: no writer emits the plan any more, but inspect still names it
// and decompress still reproduces the committed decode byte for byte.
func TestFloat32ArchiveCLI(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "core", "testdata", "f32_v2")
	wantCSV, err := os.ReadFile(fixture + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return runInspect([]string{"-in", fixture + ".dsqz"}) })
	if !strings.Contains(string(out), "float32 decode plan") {
		t.Fatalf("inspect does not name the float32 plan:\n%s", out)
	}
	out = captureStdout(t, func() error { return runInspect([]string{"-in", fixture + ".dsqz", "-json"}) })
	var sum deepsqueeze.ArchiveSummary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("inspect -json emitted invalid JSON: %v\n%s", err, out)
	}
	if !sum.Float32Decode || !strings.Contains(string(out), `"float32_decode": true`) {
		t.Fatalf("inspect -json does not report the float32 plan:\n%s", out)
	}
	csvPath := filepath.Join(t.TempDir(), "f32.csv")
	if err := runDecompress(context.Background(), []string{"-in", fixture + ".dsqz", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantCSV) {
		t.Fatal("decompress of the float32 fixture differs from its committed CSV")
	}
}

// TestDecompressPublishesOnlyVerifiedOutput: the streaming reader can verify
// the footer and the archive checksum only after it has decoded — and
// decompress has written — every row group. A corrupt tail must therefore
// fail the command (main exits 1 on any error) without leaving a CSV, whole
// or partial, under the -out name or its .tmp.
func TestDecompressPublishesOnlyVerifiedOutput(t *testing.T) {
	schema := deepsqueeze.NewSchema(
		deepsqueeze.Column{Name: "city", Type: deepsqueeze.Categorical},
		deepsqueeze.Column{Name: "temp", Type: deepsqueeze.Numeric},
	)
	tb := deepsqueeze.NewTable(schema, 90)
	for i := 0; i < 90; i++ {
		tb.AppendRow([]string{[]string{"oslo", "lima"}[i%2]}, []float64{float64(i)})
	}
	opts := deepsqueeze.DefaultOptions()
	opts.Train.Epochs = 2
	opts.RowGroupSize = 30
	res, err := deepsqueeze.Compress(tb, deepsqueeze.UniformThresholds(tb, 0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "t.dsqz"), filepath.Join(dir, "t.csv")
	decompress := func(archive []byte) error {
		if err := os.WriteFile(in, archive, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		captureStdout(t, func() error {
			err = runDecompress(context.Background(), []string{"-in", in, "-out", out})
			return nil
		})
		return err
	}

	bad := append([]byte(nil), res.Archive...)
	bad[len(bad)-14] ^= 0x01 // inside the footer: every segment before it still verifies
	if err := decompress(bad); !errors.Is(err, deepsqueeze.ErrCorrupt) || !strings.Contains(err.Error(), in) {
		t.Fatalf("corrupt footer: error %v, want ErrCorrupt naming %s", err, in)
	}
	for _, path := range []string{out, out + ".tmp"} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s exists after a failed decompress (stat error %v)", filepath.Base(path), err)
		}
	}

	if err := decompress(res.Archive); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines != 91 {
		t.Errorf("decompressed CSV has %d lines, want 91", lines)
	}
	if _, err := os.Stat(out + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf(".tmp left behind after a successful decompress (stat error %v)", err)
	}
}

// TestWriteAtomic: every file dsqz writes goes through writeAtomic, so a body
// that fails half way — a write error, a full disk, an interrupt, a corrupt
// archive tail — must leave what was at the path before untouched and nothing
// under the temporary name; only a body that returns nil replaces the file.
func TestWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := os.WriteFile(path, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(when, want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s: %s holds %q (error %v), want %q", when, filepath.Base(path), got, err, want)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: .tmp left behind (stat error %v)", when, err)
		}
	}
	half := make([]byte, 3<<20) // past writeAtomic's buffer: bytes reach the file before the failure
	failed := errors.New("disk full")
	err := writeAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(half); err != nil {
			return err
		}
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("writeAtomic returned %v, want the body's error", err)
	}
	check("after a failed body", "previous\n")

	err = writeAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "next\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	check("after a successful body", "next\n")

	if err := writeAtomic(filepath.Join(t.TempDir(), "missing", "out.csv"), nil); err == nil {
		t.Error("writeAtomic into a missing directory returned nil")
	}
}

// writeTestCSV writes rows rows of a two-column table as a headered CSV.
func writeTestCSV(t *testing.T, path string, rows int) {
	t.Helper()
	var b strings.Builder
	b.WriteString("city,temp\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%s,%d\n", []string{"oslo", "lima", "pune"}[i%3], i%17+i/5)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The tuner's trials run one after another whatever -p says, so a tuned
// archive is the same bytes at every parallelism.
func TestCompressTuneIndependentOfParallelism(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "t.csv")
	writeTestCSV(t, in, 120)
	var archives [2][]byte
	for i, p := range []string{"1", "2"} {
		out := filepath.Join(dir, "t"+p+".dsqz")
		captureStdout(t, func() error {
			return runCompress(context.Background(), []string{"-in", in, "-out", out,
				"-schema", "city:cat,temp:num", "-error", "0.05", "-tune", "-p", p})
		})
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		archives[i] = b
	}
	if !bytes.Equal(archives[0], archives[1]) {
		t.Fatal("compress -tune wrote different archives at -p 1 and -p 2")
	}
}

// -p reaches the reader on every invocation and never changes the CSV, with
// or without a projection and a row span.
func TestDecompressIndependentOfParallelism(t *testing.T) {
	dir := t.TempDir()
	in, archive := filepath.Join(dir, "t.csv"), filepath.Join(dir, "t.dsqz")
	writeTestCSV(t, in, 300)
	captureStdout(t, func() error {
		return runCompress(context.Background(), []string{"-in", in, "-out", archive,
			"-schema", "city:cat,temp:num", "-error", "0.05", "-rowgroup", "100"})
	})
	for _, args := range [][]string{nil, {"-cols", "temp"}, {"-rows", "50:250"}, {"-rows", "150:300", "-cols", "city"}} {
		var csv [2][]byte
		for i, p := range []string{"1", "2"} {
			out := filepath.Join(dir, "out"+p+".csv")
			captureStdout(t, func() error {
				return runDecompress(context.Background(), append([]string{"-in", archive, "-out", out, "-p", p}, args...))
			})
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			csv[i] = b
		}
		if !bytes.Equal(csv[0], csv[1]) || len(csv[0]) == 0 {
			t.Errorf("%v: -p 1 and -p 2 wrote different CSV", args)
		}
	}
}
