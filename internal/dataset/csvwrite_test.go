package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// referenceCSV renders t the way WriteCSV did before CSVWriter rendered
// rows itself: encoding/csv's Writer over FormatFloat('g', -1) cells. The
// writer must reproduce it byte for byte.
func referenceCSV(t *Table) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	row := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		row[i] = c.Name
	}
	cw.Write(row)
	for r := 0; r < t.NumRows(); r++ {
		for i, c := range t.Schema.Columns {
			if c.Type == Categorical {
				row[i] = t.Str[i][r]
			} else {
				row[i] = strconv.FormatFloat(t.Num[i][r], 'g', -1, 64)
			}
		}
		cw.Write(row)
	}
	cw.Flush()
	return buf.Bytes()
}

// checkMatchesReference renders t whole through WriteCSV and in the given
// WriteTable pieces through one CSVWriter; both must equal referenceCSV.
func checkMatchesReference(t *testing.T, tb *Table, cuts []int) {
	t.Helper()
	want := referenceCSV(tb)
	var whole bytes.Buffer
	if err := tb.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), want) {
		t.Fatalf("WriteCSV differs from encoding/csv:\n%q\nvs\n%q", whole.Bytes(), want)
	}
	var inc bytes.Buffer
	cw := NewCSVWriter(&inc, tb.Schema)
	lo := 0
	for _, hi := range append(cuts, tb.NumRows()) {
		idx := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			idx = append(idx, r)
		}
		if err := cw.WriteTable(tb.Sample(idx)); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inc.Bytes(), want) {
		t.Fatalf("CSVWriter in pieces %v differs from encoding/csv:\n%q\nvs\n%q", cuts, inc.Bytes(), want)
	}
}

// quotingCases are the fields on which encoding/csv's quoting rule turns.
var quotingCases = []string{
	"", "plain", `\.`, `\.x`, `x\.`, `""`, `"`, `a"b"c`, ",", "a,b",
	"\r", "a\rb", "\n", "a\nb", "\r\n", " lead", "trail ", "\tlead",
	"\u0085lead", "\u00a0lead", "\u3000lead", "\u200blead", "\xfflead",
	"\xe3\x80", "\u00e9", "NaN", "+Inf",
}

func TestCSVWriterQuotingCases(t *testing.T) {
	for _, f := range quotingCases {
		// The field as a header name, as the only cell of a one-column row
		// (an empty one renders as an empty line), and beside a number.
		one := NewTable(NewSchema(Column{Name: f, Type: Categorical}), 2)
		one.AppendRow([]string{f}, nil)
		one.AppendRow([]string{"x"}, nil)
		checkMatchesReference(t, one, []int{1})
		two := NewTable(twoColSchema(), 1)
		two.AppendRow([]string{f}, []float64{-0.5})
		checkMatchesReference(t, two, nil)
	}
}

func TestMaxNumericText(t *testing.T) {
	if got := AppendNumeric(nil, -1.2345678901234567e-308); len(got) != maxNumericText {
		t.Fatalf("%s is %d bytes, maxNumericText %d", got, len(got), maxNumericText)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if got := AppendNumeric(nil, v); len(got) > maxNumericText {
			t.Fatalf("%s is %d bytes, maxNumericText %d", got, len(got), maxNumericText)
		}
	}
}

// numericTable returns rows × cols numeric columns; value(r, c) fills them.
func numericTable(rows, cols int, value func(r, c int) float64) *Table {
	names := make([]Column, cols)
	for c := range names {
		names[c] = Column{Name: "c" + strconv.Itoa(c), Type: Numeric}
	}
	tb := NewTable(NewSchema(names...), rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			tb.Num[c] = append(tb.Num[c], value(r, c))
		}
	}
	tb.SetNumRows(rows)
	return tb
}

// quantizedTable is a decoded Monitor row group at a 5 % error threshold:
// each column holds its ten bucket midpoints, computed as preprocess
// reconstructs them (min + m·range, m = (k+½)·2t).
func quantizedTable(rows, cols int) *Table {
	const t = 0.05
	rng := rand.New(rand.NewSource(7))
	lo := make([]float64, cols)
	span := make([]float64, cols)
	for c := range lo {
		lo[c] = rng.NormFloat64() * 1e3
		span[c] = (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(7)-1))
	}
	return numericTable(rows, cols, func(r, c int) float64 {
		m := (float64(rng.Intn(10)) + 0.5) * 2 * t
		return lo[c] + m*span[c]
	})
}

// distinctTable has no repeated value: every numeric cell misses the memo.
func distinctTable(rows, cols int) *Table {
	rng := rand.New(rand.NewSource(7))
	return numericTable(rows, cols, func(r, c int) float64 { return rng.NormFloat64() * 1e6 })
}

// writeRecorder keeps every Write it is handed, failing once failAfter
// bytes have gone through (never when failAfter < 0).
type writeRecorder struct {
	buf       bytes.Buffer
	writes    []int
	failAfter int
}

var errWriteFailed = errors.New("write failed")

func (w *writeRecorder) Write(p []byte) (int, error) {
	if w.failAfter >= 0 && w.buf.Len()+len(p) > w.failAfter {
		return 0, errWriteFailed
	}
	w.writes = append(w.writes, len(p))
	return w.buf.Write(p)
}

func TestCSVWriterStreamsInBoundedWrites(t *testing.T) {
	// Numeric rows, and rows with no cells at all (an empty line each).
	noColumns := NewTable(NewSchema(), 0)
	noColumns.SetNumRows(20000)
	for _, tb := range []*Table{quantizedTable(20000, 5), noColumns} {
		rec := &writeRecorder{failAfter: -1}
		cw := NewCSVWriter(rec, tb.Schema)
		if err := cw.WriteTable(tb); err != nil {
			t.Fatal(err)
		}
		if len(rec.writes) < 2 {
			t.Fatalf("%d writes before Flush: the rows were held back, not streamed", len(rec.writes))
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, n := range rec.writes {
			if n > csvBufSize+csvBufSlack {
				t.Fatalf("write %d is %d bytes, buffer bound %d", i, n, csvBufSize+csvBufSlack)
			}
		}
		if cap(cw.buf) != csvBufSize+csvBufSlack {
			t.Fatalf("buffer grew to %d bytes", cap(cw.buf))
		}
		if !bytes.Equal(rec.buf.Bytes(), referenceCSV(tb)) {
			t.Fatal("streamed CSV differs from encoding/csv")
		}
	}
}

func TestCSVWriterWriteError(t *testing.T) {
	tb := quantizedTable(5000, 3)
	rec := &writeRecorder{failAfter: 3 * csvBufSize}
	cw := NewCSVWriter(rec, tb.Schema)
	if err := cw.WriteTable(tb); !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteTable: %v, want the write error", err)
	}
	writes := len(rec.writes)
	if err := cw.WriteTable(tb); !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteTable after a failure: %v, want the first error", err)
	}
	if err := cw.Flush(); !errors.Is(err, errWriteFailed) {
		t.Fatalf("Flush after a failure: %v, want the first error", err)
	}
	if len(rec.writes) != writes {
		t.Fatalf("%d more writes after the failure", len(rec.writes)-writes)
	}
}

// TestWriteCSVAllocs pins what rendering a serve-pruned point response costs:
// 205 rows × 4 numeric columns. encoding/csv with a string per cell took
// 1 639 allocations and 30 800 bytes; the writer takes a fixed handful (the
// writer, its buffer, one memo per numeric column).
func TestWriteCSVAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; gate runs uninstrumented (see scripts/check.sh)")
	}
	tb := quantizedTable(205, 4)
	render := func() {
		if err := tb.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, render); allocs > 8 {
		t.Fatalf("WriteCSV allocates %.0f objects, ceiling 8", allocs)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		render()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 24<<10 {
		t.Fatalf("WriteCSV allocates %d bytes, ceiling %d", perRun, 24<<10)
	}
}

// csvPicker draws the fuzzer's choices from its input bytes while they
// last and from a seeded source after.
type csvPicker struct {
	data []byte
	rng  *rand.Rand
}

func (p *csvPicker) intn(n int) int {
	if len(p.data) > 0 {
		b := p.data[0]
		p.data = p.data[1:]
		return int(b) % n
	}
	return p.rng.Intn(n)
}

// csvPieces are the bytes and runes encoding/csv's quoting rule looks at.
var csvPieces = []string{
	",", `"`, "\r", "\n", " ", "\t", "\u0085", "\u00a0", "\u3000", "\xff",
	`\.`, `""`, "a", "bc", "\u00e9", "7",
}

func (p *csvPicker) field() string {
	switch p.intn(8) {
	case 0:
		return ""
	case 1:
		return `\.`
	}
	var s string
	for n := 1 + p.intn(4); n > 0; n-- {
		s += csvPieces[p.intn(len(csvPieces))]
	}
	return s
}

// collidingValues returns n values whose bits share one memo slot with v's.
func collidingValues(v float64, n int) []float64 {
	want := memoSlot(math.Float64bits(v))
	out := []float64{v}
	for b := math.Float64bits(v) + 1; len(out) < n; b++ {
		if memoSlot(b) == want {
			out = append(out, math.Float64frombits(b))
		}
	}
	return out
}

func FuzzCSVWriterMatchesEncodingCSV(f *testing.F) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -1.2345678901234567e-308,
		math.MaxFloat64, 1e21, 1e20, 123456789, 0.000001, 0.0000001,
	}
	colliding := collidingValues(1.5, 4)
	f.Add(int64(1), uint16(40), []byte{})
	f.Add(int64(2), uint16(599), []byte{5, 0, 1, 2})
	f.Add(int64(3), uint16(3), []byte{0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(4), uint16(300), []byte{1, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, data []byte) {
		p := &csvPicker{data: data, rng: rand.New(rand.NewSource(seed))}
		cols := make([]Column, 1+p.intn(6))
		for i := range cols {
			cols[i] = Column{Name: p.field(), Type: ColumnType(p.intn(2))}
		}
		n := int(rows) % 600
		tb := NewTable(NewSchema(cols...), n)
		for i, c := range cols {
			if c.Type == Categorical {
				for r := 0; r < n; r++ {
					tb.Str[i] = append(tb.Str[i], p.field())
				}
				continue
			}
			// Bucket midpoints repeat heavily; the rest are the edge cases,
			// values fighting over one memo slot, and arbitrary bits.
			buckets := make([]float64, 1+p.intn(50))
			for k := range buckets {
				buckets[k] = 3.7 + (float64(k)+0.5)*0.013
			}
			for r := 0; r < n; r++ {
				var v float64
				switch p.intn(6) {
				case 0:
					v = specials[p.intn(len(specials))]
				case 1:
					v = colliding[p.intn(len(colliding))]
				case 2:
					v = math.Float64frombits(p.rng.Uint64())
				default:
					v = buckets[p.intn(len(buckets))]
				}
				tb.Num[i] = append(tb.Num[i], v)
			}
		}
		tb.SetNumRows(n)
		var cuts []int
		for r := p.intn(n + 1); r < n; r += p.intn(n - r + 1) {
			cuts = append(cuts, r)
		}
		checkMatchesReference(t, tb, cuts)
	})
}

func benchmarkCSVWriter(b *testing.B, tb *Table) {
	var size countingWriter
	if err := tb.WriteCSV(&size); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size.n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cw := NewCSVWriter(io.Discard, tb.Schema)
		if err := cw.WriteTable(tb); err != nil {
			b.Fatal(err)
		}
		if err := cw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSVWriterQuantized renders one decoded Monitor row group: 4 096
// rows × 17 columns of bucket midpoints, the memo's hit path.
func BenchmarkCSVWriterQuantized(b *testing.B) { benchmarkCSVWriter(b, quantizedTable(4096, 17)) }

// BenchmarkCSVWriterDistinct renders the same shape with no repeated value,
// the memo's miss path.
func BenchmarkCSVWriterDistinct(b *testing.B) { benchmarkCSVWriter(b, distinctTable(4096, 17)) }
