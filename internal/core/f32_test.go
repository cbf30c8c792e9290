package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/pipeline"
)

// No writer emits the float32 decode plan any more (DESIGN.md §15); the
// committed f32_v2 golden is the archive that carries it, and these tests
// read it through every reader.

// f32Fixture returns the committed float32-plan archive and its decode.
func f32Fixture(t *testing.T) (archive, wantCSV []byte) {
	t.Helper()
	archive, err := os.ReadFile(filepath.Join("testdata", "f32_v2.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err = os.ReadFile(filepath.Join("testdata", "f32_v2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return archive, wantCSV
}

// A float32-plan archive decodes to what its writer decoded, and the plan
// flag is surfaced on every metadata path.
func TestFloat32RoundTrip(t *testing.T) {
	archive, wantCSV := f32Fixture(t)
	if got := csvBytes(t, decodeOpts(t, archive, DecompressOptions{})); !bytes.Equal(got, wantCSV) {
		t.Fatal("float32 fixture decoded differently than when committed")
	}
	info, err := Inspect(archive)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Float32Decode {
		t.Fatal("Inspect does not report the float32 plan")
	}
	if !info.Summary().Float32Decode {
		t.Fatal("Summary does not report the float32 plan")
	}
}

// Float32 decode is bit-identical across readers, parallelism levels and
// single-group decodes: chunking is constant, so the float32 inference every
// row sees is independent of how the work is scheduled.
func TestFloat32DecodeDeterminism(t *testing.T) {
	archive, wantCSV := f32Fixture(t)
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGroups() < 2 {
		t.Fatalf("want a multi-group fixture, got %d groups", a.NumGroups())
	}
	cols := make([]int, len(a.Schema().Columns))
	for c := range cols {
		cols[c] = c
	}
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		if !bytes.Equal(wantCSV, csvBytes(t, decodeOpts(t, archive, DecompressOptions{Parallelism: p}))) {
			t.Fatalf("parallelism %d: Decompress decoded a different table", p)
		}
		stitched := dataset.NewTable(a.Schema(), 0)
		pool := pipeline.NewPool(p)
		for g, start := 0, 0; g < a.NumGroups(); g, start = g+1, start+a.GroupRows(g) {
			part := decodeOpts(t, archive, DecompressOptions{RowRange: &RowRange{Lo: start, Hi: start + a.GroupRows(g)}, Parallelism: p})
			blocks, err := a.DecodeBlocks(context.Background(), []int{g}, cols, pool)
			if err != nil {
				t.Fatal(err)
			}
			for c, col := range a.Schema().Columns {
				for i := 0; i < part.NumRows(); i++ {
					if col.Type == dataset.Categorical && blocks[0][c].Str[i] != part.Str[c][i] ||
						col.Type == dataset.Numeric && blocks[0][c].Num[i] != part.Num[c][i] {
						t.Fatalf("parallelism %d group %d col %d row %d: DecodeBlocks differs from the row-range decode", p, g, c, i)
					}
				}
			}
			appendRows(stitched, part, 0, part.NumRows())
		}
		if !bytes.Equal(wantCSV, csvBytes(t, stitched)) {
			t.Fatalf("parallelism %d: stitched single-group decodes differ from the full decode", p)
		}
	}
}

// The streaming reader replays the float32 plan group by group, to the same
// bytes as the in-memory decode.
func TestFloat32Streaming(t *testing.T) {
	archive, wantCSV := f32Fixture(t)
	if !bytes.Equal(wantCSV, csvBytes(t, readStream(t, archive))) {
		t.Fatal("ArchiveReader decoded the float32 fixture differently")
	}
}
