package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"deepsqueeze/internal/nn"
)

// refreshCRC rewrites the archive's CRC32-IEEE trailer so fuzz mutations of
// the body reach the parser instead of dying at the checksum gate. Inputs
// too short to carry a trailer pass through unchanged.
func refreshCRC(data []byte) []byte {
	if len(data) < 10 {
		return data
	}
	out := append([]byte(nil), data...)
	sum := crc32.ChecksumIEEE(out[:len(out)-4])
	binary.LittleEndian.PutUint32(out[len(out)-4:], sum)
	return out
}

// fuzzSeedArchives compresses a few tiny tables covering the format's
// branches: plain, mixture of experts, multi-group, empty, streamed (later
// groups carry plan overrides, the shape nearly every production segment
// has), an external-model batch — plus a frozen v1 golden fixture so
// mutations explore the legacy decode path too.
func fuzzSeedArchives(f *testing.F) [][]byte {
	f.Helper()
	opts := quickOpts()
	opts.Train.Epochs = 2
	var seeds [][]byte
	add := func(res *Result, err error) {
		if err != nil {
			f.Fatal(err)
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
	f32 := opts
	f32.Float32Decode = true
	add(Compress(latentTable(60, 55), []float64{0, 0, 0.1, 0.1, 0}, f32))
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
		f.Fatal(err)
	}
	if err := aw.Write(latentTable(70, 58)); err != nil {
		f.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, streamed.Bytes())
	// A batch archive: a model hash where the decoders would be. Alone it
	// must fail as corrupt at decode and still index and inspect.
	stream, _, err := NewStream(latentTable(60, 59), []float64{0, 0, 0.1, 0.1, 0}, opts)
	if err != nil {
		f.Fatal(err)
	}
	add(stream.CompressBatch(latentTable(40, 60)))
	v1, err := os.ReadFile(filepath.Join("testdata", "categorical.dsqz"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, v1)
	// Crafted weights: an Inf and a NaN where training can only leave finite
	// numbers. The parser must refuse them (see TestNonFiniteDecoderRejected).
	seeds = append(seeds, spliceDecoders(f, v1, poisonDecoder))
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
	section, err := appendDecoderChunkPayload(&archiveState{decoders: decs})
	if err != nil {
		tb.Fatal(err)
	}
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

// FuzzDecompress feeds mutated archives (with a refreshed checksum, so the
// mutation penetrates past the CRC) to the full decompression pipeline. The
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
