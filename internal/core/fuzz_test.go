package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/nn"
)

// refreshCRC rewrites a mutated archive's checksums so mutations reach the
// parsers behind them instead of dying at a checksum gate: the CRC32 of every
// version-2 segment it can walk to from the front, then the archive's
// trailer. Inputs too short to carry a trailer pass through unchanged.
func refreshCRC(data []byte) []byte {
	if len(data) < 10 {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	if body[4] == archiveVersion {
		r := &sectionReader{buf: body, pos: 6}
		_, err := r.skip() // header
		if err == nil && body[5]&flagHasModel != 0 {
			_, err = r.skip() // decoders
		}
		for err == nil {
			var kind byte
			var seg []byte
			if kind, err = r.byte(); err == nil && kind != kindFooter {
				seg, err = r.chunk()
			}
			if err != nil || kind == kindFooter {
				break
			}
			if kind == kindSegment && len(seg) >= 4 {
				binary.LittleEndian.PutUint32(seg[len(seg)-4:], crc32.ChecksumIEEE(seg[:len(seg)-4]))
			}
		}
	}
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

// fuzzSeedArchives compresses a few tiny tables covering the format's
// branches: plain, mixture of experts, multi-group, empty, streamed (later
// groups carry plan overrides, the shape nearly every production segment
// has), an external-model batch — plus two frozen golden fixtures, v1 and
// the float32 plan, so mutations explore those decode paths too.
func fuzzSeedArchives(tb testing.TB) [][]byte {
	tb.Helper()
	opts := quickOpts()
	opts.Train.Epochs = 2
	var seeds [][]byte
	add := func(res *Result, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, res.Archive)
	}
	add(Compress(latentTable(60, 51), []float64{0, 0, 0.1, 0.1, 0}, opts))
	moe := opts
	moe.NumExperts = 2
	add(Compress(latentTable(80, 52), []float64{0, 0, 0, 0, 0}, moe))
	add(Compress(latentTable(0, 53), []float64{0, 0, 0.1, 0.1, 0}, opts))
	grouped := opts
	grouped.RowGroupSize = 25
	add(Compress(latentTable(60, 54), []float64{0, 0, 0.1, 0.1, 0}, grouped))
	// The committed float32-plan golden: no writer emits the plan any more,
	// but its decode path stays open to mutations.
	f32, err := os.ReadFile(filepath.Join("testdata", "f32_v2.dsqz"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, f32)
	// A skewed categorical table range-codes its failure streams, so
	// mutations reach the range-frame decoder (headers, CPT tables, coder
	// body) rather than only the stored/DEFLATE paths.
	add(Compress(skewedCatTable(120, 56), []float64{0, 0, 0.05, 0}, opts))
	// A residual-digit archive exposes the multi-chunk column layout and the
	// per-digit rank validation to mutations.
	res := opts
	res.Preproc.ResidualCats = true
	res.Preproc.MaxModelCardinality = 8 // force residual; 70 values → 2 digits
	add(Compress(clickTable(200, 70, 57), []float64{0, 0, 0.1}, res))
	// Three groups from the streaming writer: segments 1 and 2 have
	// hasPlan = 1, so mutations start inside unpackGroupPlan.
	var streamed bytes.Buffer
	aw, err := NewArchiveWriter(&streamed, latentTable(1, 58).Schema, []float64{0, 0, 0.1, 0.1, 0}, grouped)
	if err != nil {
		tb.Fatal(err)
	}
	if err := aw.Write(latentTable(70, 58)); err != nil {
		tb.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, streamed.Bytes())
	// A batch archive: a model hash where the decoders would be. Alone it
	// must fail as corrupt at decode and still index and inspect.
	_, batch, _ := batchFixture(tb)
	seeds = append(seeds, batch)
	v1, err := os.ReadFile(filepath.Join("testdata", "categorical.dsqz"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, v1)
	// Crafted weights: an Inf and a NaN where training can only leave finite
	// numbers. The parser must refuse them (see TestNonFiniteDecoderRejected).
	seeds = append(seeds, spliceDecoders(tb, v1, poisonDecoder))
	return seeds
}

// spliceDecoders returns a copy of a version-1 archive (no footer offsets to
// keep in step) whose decoders went through edit: the decoder section is
// re-serialized, its length prefix rewritten and the CRC refreshed, so the
// result is well-formed down to the weights themselves.
func spliceDecoders(tb testing.TB, archive []byte, edit func([]*nn.Decoder)) []byte {
	tb.Helper()
	a, err := Open(archive)
	if err != nil {
		tb.Fatal(err)
	}
	old := a.meta.decoderChunk
	decs, err := parseDecoderSection(old, a.meta.numExperts)
	if err != nil {
		tb.Fatal(err)
	}
	edit(decs)
	section := appendDecoderChunkPayload(&archiveState{decoders: decs})
	prefix := binary.AppendUvarint(nil, uint64(len(old)))
	at := bytes.Index(archive, old) - len(prefix)
	if at < 0 || !bytes.Equal(archive[at:at+len(prefix)], prefix) {
		tb.Fatal("decoder chunk not found behind its length prefix")
	}
	out := append([]byte(nil), archive[:at]...)
	out = binary.AppendUvarint(out, uint64(len(section)))
	out = append(out, section...)
	out = append(out, archive[at+len(prefix)+len(old):]...)
	return refreshCRC(out)
}

// poisonDecoder plants one Inf and one NaN in the first decoder.
func poisonDecoder(decs []*nn.Decoder) {
	decs[0].Hidden[0].W.Data[0] = math.Inf(1)
	decs[0].Shared.B[0] = math.NaN()
}

// An archive whose decoder carries a non-finite parameter is corrupt at
// every entry point — inference's factored shared stack relies on 0·w = ±0
// (DESIGN.md §12) — while the same splice with the weights left alone still
// decodes, so it is the weights that are refused and not the surgery.
func TestNonFiniteDecoderRejected(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "categorical.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join("testdata", "categorical.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(spliceDecoders(t, v1, func([]*nn.Decoder) {}))
	if err != nil {
		t.Fatalf("re-serialized decoders: %v", err)
	}
	var buf bytes.Buffer
	if err := got.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantCSV) {
		t.Fatal("re-serialized decoders decode differently")
	}
	for name, edit := range map[string]func([]*nn.Decoder){
		"inf":  func(d []*nn.Decoder) { d[0].SharedHidden.W.Data[3] = math.Inf(-1) },
		"nan":  func(d []*nn.Decoder) { d[0].Aux.B[0] = math.NaN() },
		"both": poisonDecoder,
	} {
		bad := spliceDecoders(t, v1, edit)
		if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decompress error %v, want ErrCorrupt", name, err)
		}
		a, err := Open(bad)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if _, err := a.Decompress(DecompressOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: handle Decompress error %v, want ErrCorrupt", name, err)
		}
	}
}

// A decoder whose spec list has the header's length but not its kinds — here
// the binary and a numeric head trade places, which leaves every weight shape
// intact — is corrupt: inference addresses a column's head by the header's
// spec, and before the full comparison a binary column asked this decoder for
// a binary head it does not have and indexed its output at -1.
func TestDecoderSpecMismatchRejected(t *testing.T) {
	moe, err := os.ReadFile(filepath.Join("testdata", "moe.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	bad := spliceDecoders(t, moe, func(decs []*nn.Decoder) {
		for _, d := range decs {
			if d.Specs[1].Kind != nn.OutBinary || d.Specs[2].Kind != nn.OutNumeric {
				t.Fatalf("fixture specs %+v, want a binary head before a numeric one", d.Specs)
			}
			d.Specs[1], d.Specs[2] = d.Specs[2], d.Specs[1]
		}
	})
	a, err := Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseDecoderSection(a.meta.decoderChunk, a.meta.numExperts); err != nil {
		t.Fatalf("swapped heads no longer parse, so the test no longer reaches the spec check: %v", err)
	}
	if _, err := a.Decompress(DecompressOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("handle Decompress error %v, want ErrCorrupt", err)
	}
	if _, err := NewArchiveReader(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("NewArchiveReader error %v, want ErrCorrupt", err)
	}
}

// FuzzDecompress feeds mutated archives (with refreshed checksums, so the
// mutation penetrates past them) to the full decompression pipeline. The
// invariant: any input either decodes or fails with an ErrCorrupt-classified
// error — never a panic, and never an unclassified error. MaxRows caps
// row-proportional allocation so the fuzzer cannot claim OOMs as crashes.
func FuzzDecompress(f *testing.F) {
	for _, a := range fuzzSeedArchives(f) {
		f.Add(a)
	}
	f.Add([]byte{})
	f.Add([]byte("DSQZ\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		archive := refreshCRC(data)
		// The footer/zone-map index walker shares the invariant: decode or
		// ErrCorrupt, never a panic. (The compressed seeds carry a stats
		// chunk — zone maps are on by default — so mutations reach the
		// stats parser too.)
		if _, err := ReadIndex(archive); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified index error: %v", err)
		}
		// So does the stream inspector, which enters every segment through
		// the same walker the decode does.
		if _, err := InspectStreams(archive); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified stream-inspection error: %v", err)
		}
		res, err := DecompressContext(context.Background(), archive,
			DecompressOptions{MaxRows: 4096, Parallelism: 2})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if res.Table.NumRows() > 4096 {
			t.Fatalf("decoded %d rows past the MaxRows cap", res.Table.NumRows())
		}
	})
}

// FuzzArchiveReader feeds mutated archives, checksums refreshed, to the
// streaming reader — the one reader that decodes bytes before the archive
// checksum has vouched for them. Every input ends in decoded groups and then
// io.EOF, or in an ErrCorrupt-classified error: never a panic, never an
// unclassified error, and never a group left decoding ahead. Each input is read twice: whole, then under a
// projection and a row span derived from its bytes, the span inside the rows
// the first read returned. The row cap keeps the fuzzer's allocations small.
func FuzzArchiveReader(f *testing.F) {
	for _, a := range fuzzSeedArchives(f) {
		f.Add(a)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRows = 4096
		archive := refreshCRC(data)
		read := func(opts DecompressOptions) (*dataset.Schema, int, error) {
			opts.MaxRows = maxRows
			ar, err := NewArchiveReader(bytes.NewReader(archive), opts)
			rows := 0
			for err == nil {
				var g *dataset.Table
				if g, err = ar.Next(); err == nil {
					rows += g.NumRows()
				}
			}
			if err != io.EOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%+v: unclassified error: %v", opts, err)
			}
			if rows > maxRows {
				t.Fatalf("decoded %d rows past the row cap", rows)
			}
			if ar == nil {
				return nil, rows, err
			}
			// The Next that ends a read leaves no group decoding ahead.
			select {
			case <-ar.ahead.done:
			default:
				t.Fatalf("%+v: a group still decodes after Next returned %v", opts, err)
			}
			return ar.Schema(), rows, err
		}
		schema, rows, err := read(DecompressOptions{})
		if schema == nil || len(data) < 3 {
			return
		}
		var opts DecompressOptions
		for i, c := range schema.Columns {
			if data[0]>>(i%8)&1 != 0 {
				opts.Columns = append(opts.Columns, c.Name)
			}
		}
		lo := int(data[1]) % (rows + 1)
		hi := lo + int(data[2])%(rows-lo+1)
		opts.RowRange = &RowRange{Lo: lo, Hi: hi}
		_, n, perr := read(opts)
		if err == io.EOF && perr == io.EOF && n != hi-lo {
			t.Fatalf("span [%d,%d) of %d rows read %d rows", lo, hi, rows, n)
		}
	})
}

// FuzzSectionReader drives the low-level chunk walker over arbitrary bytes:
// a mix of chunk reads and skips (chosen by the ops byte string) must never
// panic, never read past the buffer, and fail only with ErrCorrupt.
func FuzzSectionReader(f *testing.F) {
	for _, a := range fuzzSeedArchives(f) {
		f.Add(a, []byte{0, 1, 0, 1, 0, 1})
	}
	f.Add([]byte("DSQZ\x01\x00\x00\x00\x00\x00"), []byte{1, 1})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		archive := refreshCRC(data)
		r, _, _, err := newSectionReader(archive)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified envelope error: %v", err)
			}
			return
		}
		for _, op := range ops {
			if op%2 == 0 {
				c, err := r.chunk()
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("unclassified chunk error: %v", err)
					}
					return
				}
				if len(c) > len(archive) {
					t.Fatalf("chunk of %d bytes from a %d-byte archive", len(c), len(archive))
				}
			} else {
				n, err := r.skip()
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("unclassified skip error: %v", err)
					}
					return
				}
				if n < 0 || n > int64(len(archive)) {
					t.Fatalf("skip reported %d bytes", n)
				}
			}
		}
		if err := r.done(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified done error: %v", err)
		}
	})
}

// refreshCRC lets a mutation inside a segment through the segment's own
// checksum as well as the archive's, so the fuzz targets and the corruption
// sweeps reach what lies behind them: unpack, resolve and decode.
func TestRefreshCRCReachesSegments(t *testing.T) {
	archive := fuzzSeedArchives(t)[3] // four row groups
	m, err := parseArchiveMeta(archive)
	if err != nil {
		t.Fatal(err)
	}
	g := m.groups[1]
	mut := append([]byte(nil), archive...)
	mut[g.off+g.segLen/2] ^= 0x01
	if _, err := parseArchiveMeta(mut); err == nil {
		t.Fatal("a flipped byte kept the archive checksum")
	}
	m, err = parseArchiveMeta(refreshCRC(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.segment(&sectionReader{buf: m.body, pos: int(g.off)}, g, true); err != nil {
		t.Fatalf("segment 1 after refreshCRC: %v", err)
	}
}

// An archive of a table without columns, which Compress writes, reads back
// as one: every reader used to refuse it as a projection selecting nothing.
func TestZeroColumnArchiveReads(t *testing.T) {
	res, err := Compress(dataset.NewTable(dataset.NewSchema(), 0), nil, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(res.Archive)
	if err != nil || got.Schema.NumColumns() != 0 || got.NumRows() != 0 {
		t.Fatalf("Decompress: %v, %v", got, err)
	}
	ar, err := NewArchiveReader(bytes.NewReader(res.Archive))
	for err == nil {
		_, err = ar.Next()
	}
	if err != io.EOF {
		t.Fatalf("ArchiveReader: %v, want io.EOF", err)
	}
	a, err := Open(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decompress(DecompressOptions{Columns: []string{}}); err == nil {
		t.Fatal("an empty projection was accepted")
	}
}
