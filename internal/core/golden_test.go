package core

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"deepsqueeze/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "write the version-2 golden fixtures not committed yet")

// goldenCase is one committed archive fixture: a deterministic table, the
// options it was compressed with, and the fixture's base name under
// testdata/. The committed .dsqz bytes are the format-stability contract:
// decoder changes must keep decoding them to the committed .csv exactly.
// Version-1 fixtures, f32_v2 and cpt_v2 are frozen — the writer no longer
// emits v1, the float32 plan or static-table range frames, so they can never
// be regenerated; -update rewrites only the v2 fixtures that have a builder.
type goldenCase struct {
	name    string
	version byte
	build   func() (*dataset.Table, []float64, Options) // nil: frozen v2 fixture
	// writeRows, when positive, regenerates the fixture through an
	// ArchiveWriter fed writeRows rows per Write instead of through Compress.
	writeRows int
}

func goldenCases() []goldenCase {
	cases := []goldenCase{
		{name: "categorical", version: 1, build: func() (*dataset.Table, []float64, Options) {
			// Pure categorical: model columns with escapes plus a
			// high-cardinality fallback column.
			schema := dataset.NewSchema(
				dataset.Column{Name: "city", Type: dataset.Categorical},
				dataset.Column{Name: "tier", Type: dataset.Categorical},
				dataset.Column{Name: "code", Type: dataset.Categorical},
			)
			tb := dataset.NewTable(schema, 150)
			rng := rand.New(rand.NewSource(101))
			cities := []string{"ankara", "bergen", "cusco", "dakar"}
			for i := 0; i < 150; i++ {
				city := cities[rng.Intn(len(cities))]
				tier := "std"
				if rng.Float64() < 0.05 {
					tier = fmt.Sprintf("rare%d", rng.Intn(9))
				}
				tb.AppendRow([]string{city, tier, fmt.Sprintf("K-%04d", i)}, nil)
			}
			return tb, []float64{0, 0, 0}, goldenOpts(1)
		}},
		{name: "numerical", version: 1, build: func() (*dataset.Table, []float64, Options) {
			// Numeric kinds side by side: quantized lossy, exact value
			// dictionary, and t=0 high-cardinality fallback.
			schema := dataset.NewSchema(
				dataset.Column{Name: "temp", Type: dataset.Numeric},
				dataset.Column{Name: "grade", Type: dataset.Numeric},
				dataset.Column{Name: "reading", Type: dataset.Numeric},
			)
			tb := dataset.NewTable(schema, 150)
			rng := rand.New(rand.NewSource(102))
			for i := 0; i < 150; i++ {
				z := rng.Float64()
				tb.AppendRow(nil, []float64{
					z*40 - 10 + rng.NormFloat64(),
					float64(int(z * 6)),
					rng.NormFloat64() * 1e4,
				})
			}
			opts := goldenOpts(1)
			opts.Preproc.MaxValueDictLen = 16
			return tb, []float64{0.1, 0, 0}, opts
		}},
		{name: "moe", version: 1, build: func() (*dataset.Table, []float64, Options) {
			// Mixed table through a two-expert mixture, exercising the
			// mapping chunk and expert-grouped assembly.
			return latentTable(180, 103), []float64{0, 0, 0.1, 0.1, 0}, goldenOpts(2)
		}},
	}
	// v2 fixtures: the same builders re-compressed under the row-group
	// format, plus a multi-group case pinning segment framing and the
	// footer index. These fixtures predate zone maps and are pinned with
	// NoZoneMaps so -update reproduces their committed bytes; they double
	// as coverage for flag-less v2 archives.
	for _, base := range cases[:3] {
		build := base.build
		cases = append(cases, goldenCase{name: base.name + "_v2", version: 2, build: func() (*dataset.Table, []float64, Options) {
			tb, thresholds, opts := build()
			opts.NoZoneMaps = true
			return tb, thresholds, opts
		}})
	}
	cases = append(cases, goldenCase{name: "multigroup_v2", version: 2, build: func() (*dataset.Table, []float64, Options) {
		opts := goldenOpts(2)
		opts.RowGroupSize = 100
		opts.NoZoneMaps = true
		return latentTable(300, 104), []float64{0, 0, 0.1, 0.1, 0}, opts
	}})
	// stats_v2 pins the zone-map stats chunk: multi-group with default
	// (enabled) zone maps, so the fixture's flag byte, kindStats framing,
	// and per-kind zone payloads are all under the golden contract. It is
	// also the one golden carrying run-length stored frames, which writers no
	// longer build: -update would rewrite them away, so never regenerate it.
	cases = append(cases, goldenCase{name: "stats_v2", version: 2, build: func() (*dataset.Table, []float64, Options) {
		opts := goldenOpts(2)
		opts.RowGroupSize = 100
		return latentTable(300, 105), []float64{0, 0, 0.1, 0.1, 0}, opts
	}})
	// f32_v2 pins the float32 decode plan, which writers emitted until they
	// stopped (DESIGN.md §15): flagFloat32 in the header byte and failure
	// streams computed against float32 inference, 300 rows of latentTable
	// seed 106 at goldenOpts(2) and 100-row groups. The committed bytes freeze
	// the float32 kernel semantics — any change to the f32 matmul
	// accumulation order shows up here as a decode mismatch.
	cases = append(cases, goldenCase{name: "f32_v2", version: 2})
	// cpt_v2 pins the static-table range frames (tag 3) writers built until
	// they stopped offering them: 1 000 rows of skewedCatTable seed 110 at
	// goldenOpts(2), 8-bit codes, one group, written with every integer
	// stream restricted to the stored and static-table frames. Its code,
	// mapping and failure streams carry tag-3 frames — the header layout and
	// the one-byte-per-symbol table the decoder still parses.
	cases = append(cases, goldenCase{name: "cpt_v2", version: 2})
	// entropy_v2 pins the stream-codec layer under default (auto) selection:
	// a heavily skewed categorical fixture whose failure streams the best-of
	// selector range-codes. The committed bytes freeze the adaptive range
	// frame — header layout, model increment — so any codec change that
	// re-frames these streams shows up as a byte diff; cpt_v2 pins the
	// static-table frame.
	cases = append(cases, goldenCase{name: "entropy_v2", version: 2, build: func() (*dataset.Table, []float64, Options) {
		opts := goldenOpts(1)
		opts.RowGroupSize = 150
		return skewedCatTable(300, 107), []float64{0, 0, 0.05, 0}, opts
	}})
	// resbit_v2 pins the residual-digit path: flagResidual in the header
	// byte, a KindCatResidual plan entry with its dictionary + digit count,
	// and per-digit failure streams in every group. The committed bytes
	// freeze the digit decomposition and the multi-chunk column layout.
	cases = append(cases, goldenCase{name: "resbit_v2", version: 2, build: func() (*dataset.Table, []float64, Options) {
		opts := goldenOpts(1)
		opts.RowGroupSize = 300
		opts.Preproc.ResidualCats = true
		return clickTable(900, 300, 108), []float64{0, 0, 0.05}, opts
	}})
	// streamed_v2 pins what the streaming writer emits: the first group is
	// the trained one, groups 1–3 carry per-group plan overrides (hasPlan = 1
	// in their segment headers) and decoded-domain zone maps, the last group
	// is short.
	cases = append(cases, goldenCase{name: "streamed_v2", version: 2, writeRows: 70, build: func() (*dataset.Table, []float64, Options) {
		opts := goldenOpts(2)
		opts.RowGroupSize = 100
		return latentTable(350, 109), []float64{0, 0, 0.1, 0.1, 0}, opts
	}})
	return cases
}

// goldenArchive compresses a case's table the way its fixture was made.
func goldenArchive(t *testing.T, gc goldenCase) []byte {
	tb, thresholds, opts := gc.build()
	return writeArchive(t, tb, thresholds, opts, gc.writeRows)
}

// writeArchive compresses tb through Compress when writeRows is 0, and
// through an ArchiveWriter fed writeRows rows per Write otherwise.
func writeArchive(t *testing.T, tb *dataset.Table, thresholds []float64, opts Options, writeRows int) []byte {
	t.Helper()
	if writeRows == 0 {
		res, err := Compress(tb, thresholds, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Archive
	}
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf, tb.Schema, thresholds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < tb.NumRows(); lo += writeRows {
		chunk := dataset.NewTable(tb.Schema, writeRows)
		appendRows(chunk, tb, lo, min(lo+writeRows, tb.NumRows()))
		if err := aw.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenOpts(experts int) Options {
	o := DefaultOptions()
	o.CodeSize = 2
	o.NumExperts = experts
	o.Train.Epochs = 4
	o.Train.BatchSize = 64
	o.Seed = 7
	return o
}

// writeNewGolden writes a v2 fixture that is not committed yet: gc's archive
// to arcPath and its decode to csvPath. A committed archive is frozen — it
// pins that what an older writer emitted still decodes — so when arcPath
// exists neither file is touched.
func writeNewGolden(t *testing.T, gc goldenCase, arcPath, csvPath string) {
	t.Helper()
	if _, err := os.Stat(arcPath); !errors.Is(err, fs.ErrNotExist) {
		return
	}
	fresh := goldenArchive(t, gc)
	got, err := Decompress(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := got.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(arcPath, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes) and %s", arcPath, len(fresh), csvPath)
}

// TestGoldenArchives is the format-stability gate: every committed .dsqz
// fixture must still parse under its recorded version and decode
// byte-for-byte to its committed .csv — v1 fixtures prove the v2 reader
// keeps decoding legacy archives identically. Every committed fixture is
// frozen: -update writes only the v2 fixtures whose archive does not exist
// yet (a new case), and never rewrites one.
func TestGoldenArchives(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			arcPath := filepath.Join("testdata", gc.name+".dsqz")
			csvPath := filepath.Join("testdata", gc.name+".csv")
			if *updateGolden && gc.version >= 2 && gc.build != nil {
				writeNewGolden(t, gc, arcPath, csvPath)
			}
			archive, err := os.ReadFile(arcPath)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			wantCSV, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if len(archive) < 6 || string(archive[:4]) != "DSQZ" || archive[4] != gc.version {
				t.Fatalf("fixture is not a version-%d archive (header % x)", gc.version, archive[:6])
			}
			got, err := Decompress(archive)
			if err != nil {
				t.Fatalf("golden archive no longer decodes: %v", err)
			}
			var buf bytes.Buffer
			if err := got.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), wantCSV) {
				t.Fatalf("golden archive %s decoded differently than when committed", gc.name)
			}
			// The projected decode of the first column must agree with the
			// committed full decode, pinning projection semantics too.
			name := got.Schema.Columns[0].Name
			proj := decodeOpts(t, archive, DecompressOptions{Columns: []string{name}})
			if err := columnEqual(got, proj, 0, 0, 0); err != nil {
				t.Fatalf("projection drifted from golden decode: %v", err)
			}
			// Every fixture must stay indexable: ReadIndex is the query
			// planner's entry point and spans both format versions.
			idx, err := ReadIndex(archive)
			if err != nil {
				t.Fatalf("golden archive no longer indexes: %v", err)
			}
			if idx.Rows != got.NumRows() {
				t.Fatalf("index declares %d rows, table has %d", idx.Rows, got.NumRows())
			}
			if wantStats := gc.name == "stats_v2" || gc.name == "f32_v2" || gc.name == "cpt_v2" ||
				gc.name == "entropy_v2" || gc.name == "resbit_v2" || gc.name == "streamed_v2"; idx.HasZoneMaps != wantStats {
				t.Fatalf("HasZoneMaps = %v, want %v", idx.HasZoneMaps, wantStats)
			}
			if idx.HasZoneMaps {
				usable := 0
				for _, g := range idx.Groups {
					for _, z := range g.Zones {
						if z.Kind != ZoneNone {
							usable++
						}
					}
				}
				if usable == 0 {
					t.Fatal("stats fixture carries no usable zone maps")
				}
			}
			if gc.name == "entropy_v2" {
				// This fixture exists to pin the range frame format; if the
				// best-of selector stops choosing the range codecs here, the
				// golden silently stops covering them.
				stats, err := InspectStreams(archive)
				if err != nil {
					t.Fatal(err)
				}
				rangeFrames := 0
				for _, st := range stats {
					rangeFrames += st.Codecs["range-adaptive"]
				}
				if rangeFrames == 0 {
					t.Fatal("entropy fixture carries no range-coded frames")
				}
			}
			if gc.name == "cpt_v2" {
				// This fixture exists to pin the static-table range frame in
				// every kind of integer stream.
				stats, err := InspectStreams(archive)
				if err != nil {
					t.Fatal(err)
				}
				cpt := map[string]int{}
				for _, st := range stats {
					cpt[st.Stream] += st.Codecs["range-cpt"]
				}
				if cpt["codes"] == 0 || cpt["mapping"] == 0 || cpt["failures"] == 0 {
					t.Fatalf("static-table range frames per stream: %v", cpt)
				}
			}
			if gc.name == "streamed_v2" {
				// This fixture exists to pin what the streaming writer emits
				// after its first group: every later segment must carry its
				// re-fitted plan.
				m, err := parseArchiveMeta(archive)
				if err != nil {
					t.Fatal(err)
				}
				for i, g := range m.groups {
					plan, _, _, err := m.segment(&sectionReader{buf: m.body, pos: int(g.off)}, g, true)
					if err != nil {
						t.Fatal(err)
					}
					if (plan != nil) != (i > 0) {
						t.Fatalf("group %d of %d: plan override present = %v", i, len(m.groups), plan != nil)
					}
				}
				if len(m.groups) < 3 {
					t.Fatalf("streamed fixture has %d groups", len(m.groups))
				}
			}
			if gc.name == "resbit_v2" {
				// This fixture exists to pin the residual-digit layout; if
				// the fit rule stops choosing residual here, the golden
				// silently stops covering the multi-chunk decode path.
				info, err := Inspect(archive)
				if err != nil {
					t.Fatal(err)
				}
				if info.KindCensus["residual"] == 0 {
					t.Fatal("resbit fixture carries no residual column")
				}
			}
			if gc.version >= 2 {
				// The footer index must cover the rows contiguously, and a
				// row-range decode must agree with the committed full decode.
				info, err := Inspect(archive)
				if err != nil {
					t.Fatal(err)
				}
				if info.HasZoneMaps != idx.HasZoneMaps {
					t.Fatalf("Inspect.HasZoneMaps = %v, index says %v", info.HasZoneMaps, idx.HasZoneMaps)
				}
				next := 0
				for _, g := range info.Groups {
					if g.RowStart != next {
						t.Fatalf("group starts at %d, want %d", g.RowStart, next)
					}
					next += g.RowCount
				}
				if next != got.NumRows() {
					t.Fatalf("groups cover %d rows, table has %d", next, got.NumRows())
				}
				lo, hi := got.NumRows()/3, 2*got.NumRows()/3
				rng := decodeOpts(t, archive, DecompressOptions{RowRange: &RowRange{Lo: lo, Hi: hi}})
				for col := range got.Schema.Columns {
					if err := columnEqual(got, rng, col, col, lo); err != nil {
						t.Fatalf("row range drifted from golden decode: %v", err)
					}
				}
			}
		})
	}
}

// batchFixture reads the frozen streaming batch pair: batch_v2_model.dsqz is
// an ordinary archive of 300 rows of latentTable seed 111 (goldenOpts(2),
// 100-row groups), batch_v2.dsqz 250 rows of latentTable seed 112 with a
// novel category and an out-of-range m1 every 25th row, written against that
// model in three groups with the model's hash where its decoders would be.
// No writer emits batch archives any more, so -update never touches them.
func batchFixture(tb testing.TB) (model, batch, wantCSV []byte) {
	tb.Helper()
	var out [3][]byte
	for i, name := range []string{"batch_v2_model.dsqz", "batch_v2.dsqz", "batch_v2.csv"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = b
	}
	return out[0], out[1], out[2]
}

// TestGoldenBatchArchive is the format-stability gate for streaming batch
// archives: the frozen pair decodes — in full, projected and by row range —
// to the committed CSV, Inspect names it, and every reader but
// DecompressBatch refuses it with the error it always gave.
func TestGoldenBatchArchive(t *testing.T) {
	model, batch, wantCSV := batchFixture(t)
	got, err := DecompressBatch(model, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvBytes(t, got), wantCSV) {
		t.Fatal("batch archive decoded differently than when committed")
	}
	ctx := context.Background()
	proj, err := DecompressBatchContext(ctx, model, batch, DecompressOptions{Columns: []string{"bin", "m1"}})
	if err != nil {
		t.Fatal(err)
	}
	for gotCol, fullCol := range []int{1, 2} {
		if err := columnEqual(got, proj.Table, fullCol, gotCol, 0); err != nil {
			t.Fatalf("projection drifted from golden decode: %v", err)
		}
	}
	rng, err := DecompressBatchContext(ctx, model, batch, DecompressOptions{RowRange: &RowRange{Lo: 90, Hi: 210}})
	if err != nil {
		t.Fatal(err)
	}
	if rng.Table.NumRows() != 120 {
		t.Fatalf("row range decoded %d rows, want 120", rng.Table.NumRows())
	}
	for col := range got.Schema.Columns {
		if err := columnEqual(got, rng.Table, col, col, 90); err != nil {
			t.Fatalf("row range drifted from golden decode: %v", err)
		}
	}

	info, err := Inspect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Streaming || info.Rows != 250 || len(info.Groups) != 3 || info.DecoderBytes != 32 {
		t.Fatalf("batch info = %+v", info)
	}
	if minfo, err := Inspect(model); err != nil || minfo.Streaming {
		t.Fatalf("model archive reported as a batch archive (%v)", err)
	}

	other, err := os.ReadFile(filepath.Join("testdata", "moe_v2.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	const needsModel = "core: corrupt archive: streaming batch archive needs its model archive (use DecompressBatch)"
	_, errDecompress := Decompress(batch)
	_, errReader := NewArchiveReader(bytes.NewReader(batch))
	_, errWrongModel := DecompressBatch(other, batch)
	_, errBatchAsModel := DecompressBatch(batch, batch)
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"Decompress", errDecompress, needsModel},
		{"NewArchiveReader", errReader, needsModel},
		{"wrong model", errWrongModel, "core: corrupt archive: batch archive references a different model archive"},
		{"batch as model", errBatchAsModel, "model archive: core: corrupt archive: a batch archive cannot serve as a model archive"},
	} {
		if tc.err == nil || tc.err.Error() != tc.want || !errors.Is(tc.err, ErrCorrupt) {
			t.Errorf("%s: error %v, want %q", tc.name, tc.err, tc.want)
		}
	}
}
