package deepsqueeze

import (
	"math/rand"
	"strings"
	"testing"
)

func demoTable(rows int, seed int64) *Table {
	schema := NewSchema(
		Column{Name: "region", Type: Categorical},
		Column{Name: "load", Type: Numeric},
		Column{Name: "temp", Type: Numeric},
	)
	t := NewTable(schema, rows)
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"east", "west", "south"}
	for i := 0; i < rows; i++ {
		z := rng.Float64()
		t.AppendRow([]string{regions[int(z*2.999)]}, []float64{z * 100, 20 + z*60})
	}
	return t
}

func TestPublicAPIRoundTrip(t *testing.T) {
	tb := demoTable(800, 1)
	opts := DefaultOptions()
	opts.Train.Epochs = 8
	thr := UniformThresholds(tb, 0.05)
	res, err := Compress(tb, thr, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	stats := tb.Stats()
	tol := []float64{0, 0.05 * (stats[1].Max - stats[1].Min), 0.05 * (stats[2].Max - stats[2].Min)}
	if err := tb.EqualWithin(got, tol); err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total != int64(len(res.Archive)) {
		t.Fatal("breakdown total mismatch")
	}
}

func TestUniformThresholds(t *testing.T) {
	tb := demoTable(5, 2)
	thr := UniformThresholds(tb, 0.1)
	want := []float64{0, 0.1, 0.1}
	for i := range want {
		if thr[i] != want[i] {
			t.Fatalf("thresholds = %v", thr)
		}
	}
}

func TestReadCSVThroughPublicAPI(t *testing.T) {
	csv := "region,load,temp\neast,10,21.5\nwest,90,77\n"
	schema := NewSchema(
		Column{Name: "region", Type: Categorical},
		Column{Name: "load", Type: Numeric},
		Column{Name: "temp", Type: Numeric},
	)
	tb, err := ReadCSV(strings.NewReader(csv), schema)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 || tb.Str[0][1] != "west" || tb.Num[2][0] != 21.5 {
		t.Fatalf("parsed table wrong: %+v", tb)
	}
}

func TestTunePublicAPI(t *testing.T) {
	tb := demoTable(500, 4)
	topts := DefaultTuneOptions()
	topts.Samples = []int{200}
	topts.Codes = []int{1, 2}
	topts.Experts = []int{1}
	topts.Budget = 2
	topts.Base.Train.Epochs = 5
	res, err := Tune(tb, UniformThresholds(tb, 0.1), topts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CodeSize == 0 {
		t.Fatal("tuner returned zero code size")
	}
}

func TestQueryPublicAPI(t *testing.T) {
	tb := demoTable(600, 5)
	opts := DefaultOptions()
	opts.Train.Epochs = 4
	opts.RowGroupSize = 150
	res, err := Compress(tb, UniformThresholds(tb, 0.05), opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParsePredicate("region = 'east' AND load < 50")
	if err != nil {
		t.Fatal(err)
	}
	qr, err := Query(res.Archive, QueryOptions{Where: p})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for r := 0; r < full.NumRows(); r++ {
		if full.Str[0][r] == "east" && full.Num[1][r] < 50 {
			want++
		}
	}
	if qr.Matched != want {
		t.Fatalf("Query matched %d rows, decompress-then-filter says %d", qr.Matched, want)
	}
	if qr.Table.NumRows() != want {
		t.Fatalf("Query returned %d rows, want %d", qr.Table.NumRows(), want)
	}

	// The constructor-built predicate agrees with the parsed one.
	qc, err := Query(res.Archive, QueryOptions{
		Where: PredAnd(Eq("region", "east"), Lt("load", 50)),
		Aggs:  []AggOp{{Kind: AggCount}, {Kind: AggMax, Col: "temp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if qc.Aggregates[0].Value != float64(want) {
		t.Fatalf("aggregate count %g, want %d", qc.Aggregates[0].Value, want)
	}
}

// VerifyBounds must accept a value that decodes exactly threshold × range
// away and lands 1 ulp past it. The numbers are archive-numeric seed 11's
// timestamp column (repo benchmark, 0.5 % threshold): its minimum and maximum
// and what they decoded to — both 3e-8 past the bound, under an ulp of 1.6e9.
func TestVerifyBoundsRoundingSlack(t *testing.T) {
	schema := NewSchema(Column{Name: "timestamp", Type: Numeric}, Column{Name: "exact", Type: Numeric})
	table := func(lo, hi, exact float64) *Table {
		tb := NewTable(schema, 2)
		tb.AppendRow(nil, []float64{lo, exact})
		tb.AppendRow(nil, []float64{hi, exact})
		return tb
	}
	const lo, hi = 1.6000000010009148e+09, 1.6000123496003425e+09
	orig := table(lo, hi, 7)
	thr := []float64{0.005, 0}
	if err := VerifyBounds(orig, table(1.600000062743912e+09, 1.6000122878573453e+09, 7), thr); err != nil {
		t.Errorf("value one rounding past threshold × range rejected: %v", err)
	}
	// The slack is rounding-sized: a millionth of the bound further is a
	// violation, and a lossless column gets none at all.
	if VerifyBounds(orig, table(lo+0.005*(hi-lo)*(1+1e-6), hi, 7), thr) == nil {
		t.Error("value a millionth past the bound accepted")
	}
	if VerifyBounds(orig, table(lo, hi, 7.000001), thr) == nil {
		t.Error("lossless column accepted a changed value")
	}
}
