package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deepsqueeze/internal/dataset"
)

// contractTable has a column for every chunk layout colStreams can give a
// column: a categorical whose rarest values escape the model alphabet, a
// binary, a lossy numeric (quantized, or continuous under NoQuantization), a
// lossless numeric with few values (value dictionary), a residual-digit
// categorical, a near-unique categorical and a high-cardinality lossless
// numeric (both fallback), and a constant (trivial).
func contractTable(rows int, seed int64) *dataset.Table {
	schema := dataset.NewSchema(
		dataset.Column{Name: "tier", Type: dataset.Categorical},
		dataset.Column{Name: "flag", Type: dataset.Categorical},
		dataset.Column{Name: "load", Type: dataset.Numeric},
		dataset.Column{Name: "grade", Type: dataset.Numeric},
		dataset.Column{Name: "user", Type: dataset.Categorical},
		dataset.Column{Name: "note", Type: dataset.Categorical},
		dataset.Column{Name: "price", Type: dataset.Numeric},
		dataset.Column{Name: "site", Type: dataset.Categorical},
	)
	t := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		z := rng.Float64()
		flag := "n"
		if z > 0.5 {
			flag = "y"
		}
		tier := min(int(rng.ExpFloat64()*1.2), 7) // ≈ 4 % of rows past the 95 % coverage prefix
		t.AppendRow(
			[]string{fmt.Sprintf("t%d", tier), flag, fmt.Sprintf("u%02d", rng.Intn(40)), fmt.Sprintf("n%d", i), "main"},
			[]float64{z*100 + rng.NormFloat64(), math.Floor(z * 5), rng.Float64() * 1000},
		)
	}
	return t
}

// rewriteChunk re-frames a version-2 archive with one section chunk of one
// group's segment — index counts from the first code dimension — replaced by
// edit's result. Segment and archive checksums, extents and the footer's
// section sizes all follow, so the archive is well-formed around the new
// chunk; an identity edit gives back the archive's own bytes.
func rewriteChunk(t *testing.T, archive []byte, group, index int, edit func([]byte) []byte) []byte {
	return rewriteChunks(t, archive, func(g, i int, c []byte) []byte {
		if g == group && i == index {
			return edit(c)
		}
		return c
	})
}

// rewriteChunks is rewriteChunk over every section chunk of every group:
// edit gets each chunk with its group and index and returns its replacement.
func rewriteChunks(t *testing.T, archive []byte, edit func(group, index int, chunk []byte) []byte) []byte {
	t.Helper()
	m, err := parseArchiveMeta(archive)
	if err != nil {
		t.Fatal(err)
	}
	r, _, flags, err := newSectionReader(archive)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := r.chunk()
	if err != nil {
		t.Fatal(err)
	}
	var zones [][]ZoneMap
	if m.flags&flagZoneMaps != 0 {
		last := m.groups[len(m.groups)-1]
		payload, err := m.statsChunk(last.off + last.segLen)
		if err != nil {
			t.Fatal(err)
		}
		if zones, err = parseZoneStats(payload, m.plan, len(m.groups)); err != nil {
			t.Fatal(err)
		}
	}
	codeChunks := 0
	if m.hasModel {
		codeChunks = m.codeSize
	}
	var out bytes.Buffer
	f := newFramer(&out)
	if _, err := f.prefix(flags, hdr, m.decoderChunk); err != nil {
		t.Fatal(err)
	}
	for gi, g := range m.groups {
		sr := &sectionReader{buf: m.body, pos: int(g.off) + 1} // past the kind byte
		framed, err := sr.chunk()
		if err != nil {
			t.Fatal(err)
		}
		seg := builtSegment{count: g.count}
		if zones != nil {
			seg.zones = zones[gi]
		}
		body := &sectionReader{buf: framed[:len(framed)-4]}
		w := &sectionWriter{}
		sh, err := body.chunk()
		if err != nil {
			t.Fatal(err)
		}
		w.chunk(sh)
		if sh[len(sh)-1] == 1 { // a plan override follows
			plan, err := body.chunk()
			if err != nil {
				t.Fatal(err)
			}
			w.chunk(plan)
		}
		for i := 0; body.pos < len(body.buf); i++ {
			c, err := body.chunk()
			if err != nil {
				t.Fatal(err)
			}
			switch n := w.chunk(edit(gi, i, c)); {
			case i < codeChunks:
				seg.codes += n
			case i == codeChunks && m.numExperts > 1:
				seg.mapping += n
			default:
				seg.failures += n
			}
		}
		seg.framed = w.finish()
		if err := f.segment(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.finish(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// colStreams is the per-column chunk contract, and this pins it on a table
// with every column layout, streamed in several groups so later groups carry
// plan overrides, once with lossy numerics quantized and once continuous —
// between them every stream kind. Each group holds exactly the chunks the
// table lists, InspectStreams names them as the table does, and a dense
// chunk one value short fails every reader with ErrCorrupt at the length
// check rather than anywhere downstream of it.
func TestColStreamsContract(t *testing.T) {
	tb := contractTable(600, 91)
	thr := []float64{0, 0, 0.1, 0, 0, 0, 0, 0}
	// The kinds holding exactly one value per row, listed here rather than
	// read from kindSpecs, so that a kind losing its length check fails.
	dense := map[streamKind]bool{codeDim: true, failInts: true, failDigit: true, failContMask: true,
		fallbackStrs: true, fallbackNums: true, trivialCodes: true}
	seen := make(map[streamKind]bool)
	for _, continuous := range []bool{false, true} {
		opts := quickOpts()
		opts.Train.Epochs = 2
		opts.RowGroupSize = 200
		opts.Preproc.NoQuantization = continuous
		opts.Preproc.ResidualCats = true
		opts.Preproc.MaxModelCardinality = 8
		opts.Preproc.MaxValueDictLen = 16
		var buf bytes.Buffer
		aw, err := NewArchiveWriter(&buf, tb.Schema, thr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := aw.Write(tb); err != nil {
			t.Fatal(err)
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		archive := buf.Bytes()
		m, err := parseArchiveMeta(archive)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.groups) < 2 || !m.hasModel {
			t.Fatalf("%d groups, model %v: want a modelled multi-group archive", len(m.groups), m.hasModel)
		}
		if cp := &m.plan.Cols[0]; cp.ModelCard >= cp.Dict.Len() {
			t.Fatalf("tier: model alphabet %d covers all %d values, nothing escapes", cp.ModelCard, cp.Dict.Len())
		}

		// The chunks each column stores, in the order a group holds them.
		type chunkAt struct {
			key   streamKey
			index int
		}
		var chunks []chunkAt
		for d := 0; d < m.codeSize; d++ {
			chunks = append(chunks, chunkAt{streamKey{codeDim, 0, d}, d})
		}
		next := m.codeSize
		if m.numExperts > 1 {
			next++ // the mapping chunk
		}
		stats, err := InspectStreams(archive)
		if err != nil {
			t.Fatal(err)
		}
		for col, c := range m.plan.Schema.Columns {
			var want, got []string
			perGroup := make(map[string]int)
			for _, e := range colStreams(m.plan, m.layout, col) {
				seen[e.kind] = true
				chunks = append(chunks, chunkAt{streamKey{e.kind, col, e.digit}, next})
				next++
				name := kindSpecs[e.kind].name
				if perGroup[name] == 0 {
					want = append(want, name)
				}
				perGroup[name]++
			}
			for _, st := range stats {
				if st.Column != c.Name {
					continue
				}
				got = append(got, st.Stream)
				if st.Chunks != perGroup[st.Stream]*len(m.groups) {
					t.Errorf("%s %s: %d chunks in %d groups, the table says %d per group",
						c.Name, st.Stream, st.Chunks, len(m.groups), perGroup[st.Stream])
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: InspectStreams reports %v, the table %v", c.Name, got, want)
			}
		}
		for gi, g := range m.groups {
			_, body, _, err := m.segment(&sectionReader{buf: m.body, pos: int(g.off)}, g, true)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ; body.pos < len(body.buf); n++ {
				if _, err := body.skip(); err != nil {
					t.Fatal(err)
				}
			}
			if n != next {
				t.Errorf("group %d holds %d chunks, the table lists %d", gi, n, next)
			}
		}
		if same := rewriteChunk(t, archive, 1, 0, func(c []byte) []byte { return c }); !bytes.Equal(same, archive) {
			t.Fatal("rewriting a chunk with itself changed the archive")
		}
		got, err := Decompress(archive)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
			t.Fatal(err)
		}

		// Every dense chunk of every group, one value short.
		for gi, g := range m.groups {
			for _, c := range chunks {
				if !dense[c.key.kind] {
					continue
				}
				bad := rewriteChunk(t, archive, gi, c.index, func(chunk []byte) []byte {
					s, err := unpackStream(chunk, c.key, g.count)
					if err != nil {
						t.Fatal(err)
					}
					short := stream{ints: dropLast(s.ints), floats: dropLast(s.floats), strs: dropLast(s.strs)}
					return short.pack(c.key.kind)
				})
				what := fmt.Sprintf("%s chunk %d of column %d has %d values, want %d",
					kindSpecs[c.key.kind].name, c.key.digit, c.key.col, g.count-1, g.count)
				checkShort := func(reader string, err error) {
					if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), what) {
						t.Errorf("continuous %v, group %d: %s error %v, want ErrCorrupt: %s", continuous, gi, reader, err, what)
					}
				}
				_, err := Decompress(bad)
				checkShort("Decompress", err)
				ar, err := NewArchiveReader(bytes.NewReader(bad))
				for err == nil {
					_, err = ar.Next()
				}
				if err == io.EOF {
					err = nil
				}
				checkShort("ArchiveReader", err)
			}
		}
	}
	for k := range kindSpecs {
		if k := streamKind(k); k != codeDim && !seen[k] {
			t.Errorf("no column of the table stores a %s chunk (kind %d)", kindSpecs[k].name, k)
		}
	}
}

// dropLast returns v without its last value, if it has one.
func dropLast[T any](v []T) []T {
	return v[:max(len(v)-1, 0)]
}
