package colfile

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"deepsqueeze/internal/dataset"
)

func TestDeflateRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		bytes.Repeat([]byte("abc"), 1000),
	}
	for _, c := range cases {
		out, err := Inflate(Deflate(c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, c) {
			t.Fatalf("round trip mismatch for %d bytes", len(c))
		}
	}
	// Compressible data must actually shrink.
	big := bytes.Repeat([]byte("pattern"), 2000)
	if d := Deflate(big); len(d) > len(big)/10 {
		t.Fatalf("Deflate(%d repetitive bytes) = %d", len(big), len(d))
	}
	// Incompressible data must pass through with 1 byte overhead.
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 1000)
	rng.Read(noise)
	if d := Deflate(noise); len(d) > len(noise)+1 {
		t.Fatalf("Deflate(noise) = %d > %d", len(d), len(noise)+1)
	}
}

func TestInflateCorrupt(t *testing.T) {
	for i, c := range [][]byte{nil, {}, {2, 0}, {1, 0xFF, 0xFF}} {
		if _, err := Inflate(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPackStringsRoundTrip(t *testing.T) {
	cases := [][]string{
		{},
		{"a"},
		{"x", "y", "x", "x", "z"},
		{"", "", "non-empty", ""},
		{"with\x00nul", "ünïcødé", "with,comma\nnewline"},
	}
	for _, c := range cases {
		got, err := UnpackStrings(PackStrings(c))
		if err != nil {
			t.Fatal(err)
		}
		if len(c) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("PackStrings round trip: %v != %v", got, c)
		}
	}
}

func TestPackStringsDictBeatsRawOnRepeats(t *testing.T) {
	repeats := make([]string, 5000)
	for i := range repeats {
		repeats[i] = fmt.Sprintf("value-%d", i%4)
	}
	packed := PackStrings(repeats)
	if len(packed) > 2000 {
		t.Fatalf("repetitive strings packed to %d bytes", len(packed))
	}
}

func TestPackFloatsRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{1.5, -2.25, 1e300, -1e-300},
		{math.MaxFloat64, math.SmallestNonzeroFloat64},
		{1, 1, 1, 2, 2, 2, 3, 3, 3},
	}
	for _, c := range cases {
		got, err := UnpackFloats(PackFloats(c))
		if err != nil {
			t.Fatal(err)
		}
		if len(c) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("PackFloats round trip: %v != %v", got, c)
		}
	}
}

func TestPackFloatsDictOnLowCardinality(t *testing.T) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i % 8)
	}
	if packed := PackFloats(vals); len(packed) > 6000 {
		t.Fatalf("low-cardinality floats packed to %d bytes (raw would be 80000)", len(packed))
	}
}

func makeTable(rows int, seed int64) *dataset.Table {
	schema := dataset.NewSchema(
		dataset.Column{Name: "city", Type: dataset.Categorical},
		dataset.Column{Name: "temp", Type: dataset.Numeric},
		dataset.Column{Name: "id", Type: dataset.Categorical},
	)
	tb := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(seed))
	cities := []string{"portland", "boston", "austin"}
	for i := 0; i < rows; i++ {
		tb.AppendRow(
			[]string{cities[rng.Intn(3)], fmt.Sprintf("id-%06d", i)},
			[]float64{20 + rng.NormFloat64()*5},
		)
	}
	return tb
}

func TestFileRoundTrip(t *testing.T) {
	tb := makeTable(500, 2)
	var buf bytes.Buffer
	n, err := Write(&buf, tb)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Write returned %d, buffer %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.EqualWithin(got, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFileEmptyTable(t *testing.T) {
	tb := dataset.NewTable(dataset.NewSchema(
		dataset.Column{Name: "a", Type: dataset.Numeric},
	), 0)
	var buf bytes.Buffer
	if _, err := Write(&buf, tb); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.Schema.NumColumns() != 1 {
		t.Fatalf("empty table round trip: %d rows %d cols", got.NumRows(), got.Schema.NumColumns())
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	tb := makeTable(50, 3)
	var buf bytes.Buffer
	if _, err := Write(&buf, tb); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"bad ver":   append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated": good[:len(good)-10],
	}
	// Flip a byte inside a chunk: checksum must catch it.
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0xFF
	cases["bitflip"] = flipped
	for name, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("%s: corrupt file accepted", name)
		}
	}
}

func TestSizeMatchesWrite(t *testing.T) {
	tb := makeTable(200, 4)
	var buf bytes.Buffer
	if _, err := Write(&buf, tb); err != nil {
		t.Fatal(err)
	}
	size, err := Size(tb)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(buf.Len()) {
		t.Fatalf("Size = %d, Write = %d", size, buf.Len())
	}
}

func TestParquetLiteBeatsCSVOnStructuredData(t *testing.T) {
	tb := makeTable(5000, 5)
	size, err := Size(tb)
	if err != nil {
		t.Fatal(err)
	}
	csv := tb.CSVSize()
	if size >= csv {
		t.Fatalf("parquet-lite %d ≥ CSV %d on structured data", size, csv)
	}
}

// Property: arbitrary tables round-trip exactly.
func TestQuickFileRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := dataset.NewSchema(
			dataset.Column{Name: "s", Type: dataset.Categorical},
			dataset.Column{Name: "n", Type: dataset.Numeric},
		)
		tb := dataset.NewTable(schema, 16)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			tb.AppendRow(
				[]string{fmt.Sprintf("%x", rng.Int63n(1<<uint(1+rng.Intn(30))))},
				[]float64{rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)))},
			)
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, tb); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return tb.EqualWithin(got, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteTable(b *testing.B) {
	tb := makeTable(10000, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Size(tb); err != nil {
			b.Fatal(err)
		}
	}
}
