package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/nn"
)

// latentTable builds a table with strong many-column latent structure: all
// columns derive from a 1-D latent factor plus noise.
func latentTable(rows int, seed int64) *dataset.Table {
	schema := dataset.NewSchema(
		dataset.Column{Name: "cat", Type: dataset.Categorical},
		dataset.Column{Name: "bin", Type: dataset.Categorical},
		dataset.Column{Name: "m1", Type: dataset.Numeric},
		dataset.Column{Name: "m2", Type: dataset.Numeric},
		dataset.Column{Name: "grade", Type: dataset.Numeric},
	)
	t := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < rows; i++ {
		z := rng.Float64()
		bin := "0"
		if z > 0.5 {
			bin = "1"
		}
		t.AppendRow(
			[]string{cats[int(z*3.999)], bin},
			[]float64{
				z*100 + rng.NormFloat64(),
				100 - z*100 + rng.NormFloat64(),
				math.Floor(z * 5), // 5 distinct values → value dict at t=0
			},
		)
	}
	return t
}

func quickOpts() Options {
	o := DefaultOptions()
	o.CodeSize = 2
	o.Train.Epochs = 8
	o.Train.BatchSize = 128
	return o
}

func roundTrip(t *testing.T, tb *dataset.Table, thresholds []float64, opts Options) (*Result, *dataset.Table) {
	t.Helper()
	res, err := Compress(tb, thresholds, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	return res, got
}

// tolerances computes the audit tolerances the thresholds imply.
func tolerances(tb *dataset.Table, thresholds []float64) []float64 {
	stats := tb.Stats()
	out := make([]float64, len(thresholds))
	for i, thr := range thresholds {
		if tb.Schema.Columns[i].Type == dataset.Numeric && thr > 0 {
			out[i] = thr * (stats[i].Max - stats[i].Min)
		}
	}
	return out
}

func TestRoundTripMixed(t *testing.T) {
	tb := latentTable(1500, 1)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	res, got := roundTrip(t, tb, thr, quickOpts())
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Total != int64(len(res.Archive)) {
		t.Fatalf("Breakdown.Total %d != archive %d", res.Breakdown.Total, len(res.Archive))
	}
	sum := res.Breakdown.Header + res.Breakdown.Decoder + res.Breakdown.Codes +
		res.Breakdown.Failures + res.Breakdown.Mapping
	if sum != res.Breakdown.Total {
		t.Fatalf("breakdown parts %d != total %d", sum, res.Breakdown.Total)
	}
	if res.CodeBits == 0 {
		t.Fatal("truncation search did not pick a width")
	}
}

func TestRoundTripMultiExpert(t *testing.T) {
	tb := latentTable(1200, 2)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.NumExperts = 3
	res, got := roundTrip(t, tb, thr, opts)
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
	if len(res.ExpertUse) != 3 {
		t.Fatalf("ExpertUse = %v", res.ExpertUse)
	}
	total := 0
	for _, c := range res.ExpertUse {
		total += c
	}
	if total != tb.NumRows() {
		t.Fatalf("expert usage covers %d of %d rows", total, tb.NumRows())
	}
}

func TestRoundTripNoRowOrder(t *testing.T) {
	tb := latentTable(800, 3)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.NumExperts = 2
	opts.KeepRowOrder = false
	res, got := roundTrip(t, tb, thr, opts)
	if got.NumRows() != tb.NumRows() {
		t.Fatalf("rows %d != %d", got.NumRows(), tb.NumRows())
	}
	// Row order may differ; compare the multiset of the lossless cat column.
	count := func(tab *dataset.Table) map[string]int {
		m := map[string]int{}
		for _, v := range tab.Str[0] {
			m[v]++
		}
		return m
	}
	a, b := count(tb), count(got)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("multiset mismatch for %q: %d vs %d", k, v, b[k])
		}
	}
	_ = res
}

func TestRoundTripKMeansPartition(t *testing.T) {
	tb := latentTable(800, 4)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.NumExperts = 2
	opts.Partition = PartitionKMeans
	_, got := roundTrip(t, tb, thr, opts)
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripNoQuantization(t *testing.T) {
	tb := latentTable(800, 5)
	thr := []float64{0, 0, 0.08, 0.08, 0}
	opts := quickOpts()
	opts.Preproc.NoQuantization = true
	_, got := roundTrip(t, tb, thr, opts)
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripSingleLayerLinear(t *testing.T) {
	tb := latentTable(600, 6)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.SingleLayerLinear = true
	_, got := roundTrip(t, tb, thr, opts)
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripFixedCodeBits(t *testing.T) {
	tb := latentTable(500, 7)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.CodeBits = 16
	res, got := roundTrip(t, tb, thr, opts)
	if res.CodeBits != 16 {
		t.Fatalf("CodeBits = %d", res.CodeBits)
	}
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripTrainSample(t *testing.T) {
	tb := latentTable(2000, 8)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.TrainSampleRows = 300
	_, got := roundTrip(t, tb, thr, opts)
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripFallbackAndEscapes(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Column{Name: "id", Type: dataset.Categorical},   // unique → fallback
		dataset.Column{Name: "skew", Type: dataset.Categorical}, // skewed → escapes
		dataset.Column{Name: "wild", Type: dataset.Numeric},     // many distinct, t=0 → fallback numeric
	)
	rows := 1200
	tb := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < rows; i++ {
		skew := "common"
		if rng.Float64() < 0.03 {
			skew = fmt.Sprintf("rare-%d", rng.Intn(40))
		}
		tb.AppendRow([]string{fmt.Sprintf("id-%06d", i), skew}, []float64{rng.NormFloat64() * 1e6})
	}
	opts := quickOpts()
	opts.Preproc.MaxValueDictLen = 64 // force numeric fallback
	_, got := roundTrip(t, tb, []float64{0, 0, 0}, opts)
	if err := tb.EqualWithin(got, nil); err != nil {
		t.Fatal(err)
	}
}

func TestErrorBoundProperty(t *testing.T) {
	// For a range of thresholds, every decompressed numeric value must land
	// within threshold × range — the paper's central guarantee.
	for _, thr := range []float64{0.005, 0.01, 0.05, 0.1} {
		tb := latentTable(600, 10)
		th := []float64{0, 0, thr, thr, 0}
		_, got := roundTrip(t, tb, th, quickOpts())
		if err := tb.EqualWithin(got, tolerances(tb, th)); err != nil {
			t.Fatalf("threshold %v: %v", thr, err)
		}
	}
}

func TestEmptyAndTinyTables(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Column{Name: "c", Type: dataset.Categorical},
		dataset.Column{Name: "n", Type: dataset.Numeric},
	)
	empty := dataset.NewTable(schema, 0)
	_, got := roundTrip(t, empty, []float64{0, 0.1}, quickOpts())
	if got.NumRows() != 0 {
		t.Fatal("empty table rows")
	}
	tiny := dataset.NewTable(schema, 3)
	tiny.AppendRow([]string{"x"}, []float64{1})
	tiny.AppendRow([]string{"x"}, []float64{1})
	tiny.AppendRow([]string{"y"}, []float64{2})
	_, got = roundTrip(t, tiny, []float64{0, 0}, quickOpts())
	if err := tiny.EqualWithin(got, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstantColumns(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Column{Name: "const_c", Type: dataset.Categorical},
		dataset.Column{Name: "const_n", Type: dataset.Numeric},
		dataset.Column{Name: "var_n", Type: dataset.Numeric},
	)
	tb := dataset.NewTable(schema, 100)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		tb.AppendRow([]string{"same"}, []float64{42, rng.Float64() * 10})
	}
	thr := []float64{0, 0, 0.1}
	_, got := roundTrip(t, tb, thr, quickOpts())
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicArchive(t *testing.T) {
	tb := latentTable(400, 12)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	a, err := Compress(tb, thr, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(tb, thr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Archive, b.Archive) {
		t.Fatal("same seed produced different archives")
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	tb := latentTable(300, 13)
	res, err := Compress(tb, []float64{0, 0, 0.1, 0.1, 0}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	buf := res.Archive
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("NOPE"), buf[4:]...),
		"version":   append(append([]byte{}, buf[:4]...), append([]byte{99}, buf[5:]...)...),
		"truncated": buf[:len(buf)/2],
	}
	flipped := append([]byte{}, buf...)
	flipped[len(flipped)/3] ^= 0x55
	cases["bitflip"] = flipped
	for name, c := range cases {
		if _, err := Decompress(c); err == nil {
			t.Errorf("%s: corrupt archive accepted", name)
		}
	}
}

func TestCompressionBeatsColumnarOnLatentData(t *testing.T) {
	// The headline claim: with strong many-column structure and a 10%
	// threshold, DeepSqueeze's output should be a small fraction of the
	// raw size.
	tb := latentTable(4000, 14)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.Train.Epochs = 20
	res, got := roundTrip(t, tb, thr, opts)
	if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
		t.Fatal(err)
	}
	raw := tb.CSVSize()
	ratio := res.Ratio(raw)
	if ratio > 0.25 {
		t.Fatalf("compression ratio %.3f on latent-structured data; expected < 0.25", ratio)
	}
}

func TestOptionsValidation(t *testing.T) {
	tb := latentTable(50, 15)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	bad := []Options{
		{}, // zero CodeSize
		func() Options { o := quickOpts(); o.NumExperts = 0; return o }(),
		func() Options { o := quickOpts(); o.CodeBits = 7; return o }(),
		func() Options { o := quickOpts(); o.TrainSampleRows = -1; return o }(),
	}
	for i, o := range bad {
		if _, err := Compress(tb, thr, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

// An unknown partition mode is an error, in Compress and in
// NewArchiveWriter, not a mixture of experts trained in its place.
func TestOptionsRejectUnknownPartition(t *testing.T) {
	tb := latentTable(50, 15)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	for _, p := range []PartitionMode{-1, PartitionKMeans + 1} {
		o := quickOpts()
		o.NumExperts, o.Partition = 2, p
		if _, err := Compress(tb, thr, o); err == nil || !strings.Contains(err.Error(), "partition") {
			t.Errorf("partition %d: Compress error %v, want an unknown partition mode", p, err)
		}
		if _, err := NewArchiveWriter(io.Discard, tb.Schema, thr, o); err == nil || !strings.Contains(err.Error(), "partition") {
			t.Errorf("partition %d: NewArchiveWriter error %v, want an unknown partition mode", p, err)
		}
	}
}

func TestTune(t *testing.T) {
	tb := latentTable(900, 16)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	topts := TuneOptions{
		Samples: []int{200, 400},
		Codes:   []int{1, 2},
		Experts: []int{1, 2},
		Eps:     0.05,
		Budget:  4,
		Base:    quickOpts(),
	}
	res, err := Tune(tb, thr, topts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) == 0 {
		t.Fatal("no trials recorded")
	}
	found := false
	for _, c := range topts.Codes {
		if res.Best.CodeSize == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen code size %d not in candidates", res.Best.CodeSize)
	}
	// The tuned options must produce a working compressor.
	r, err := Compress(tb, thr, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(r.Archive); err != nil {
		t.Fatal(err)
	}
}

func TestTuneFullDataPath(t *testing.T) {
	tb := latentTable(150, 17)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	topts := TuneOptions{
		Samples: []int{1000}, // larger than the table → full-data branch
		Codes:   []int{1, 2},
		Experts: []int{1},
		Eps:     0.05,
		Budget:  2,
		Base:    quickOpts(),
	}
	res, err := Tune(tb, thr, topts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.SampleUsed != tb.NumRows() || res.Best.TrainSampleRows != 0 {
		t.Fatalf("full-data branch: %+v", res)
	}
}

func TestRankHelpers(t *testing.T) {
	probs := []float64{0.1, 0.5, 0.3, 0.1}
	// Order: 1 (0.5), 2 (0.3), 0 (0.1, lower index), 3 (0.1).
	wantRank := map[int]int{1: 0, 2: 1, 0: 2, 3: 3}
	for cls, rank := range wantRank {
		if got := rankOf(probs, cls); got != rank {
			t.Errorf("rankOf(%d) = %d, want %d", cls, got, rank)
		}
		if got := codeAtRank(probs, rank); got != cls {
			t.Errorf("codeAtRank(%d) = %d, want %d", rank, got, cls)
		}
	}
	// Ties — at the top, where rank 0 takes its own path, and further down —
	// break toward the lower index, and the two helpers stay inverses for
	// every class.
	for _, probs := range [][]float64{
		{0.3, 0.3, 0.2, 0.2},
		{0.25, 0.25, 0.25, 0.25},
		{0.1, 0.4, 0.4, 0.1},
		{0.2, 0.1, 0.2, 0.1, 0.2, 0.2},
		{1},
	} {
		for cls := range probs {
			if got := codeAtRank(probs, rankOf(probs, cls)); got != cls {
				t.Errorf("probs %v: codeAtRank(rankOf(%d) = %d) = %d", probs, cls, rankOf(probs, cls), got)
			}
		}
	}
}

// Property: classesAtRank — mat.ClassAtRank's lanes over whole blocks of four
// rows, codeAtRank over the blocks they leave and the last rows — is
// codeAtRank row for row, and inverts rankOf: widths 1 to one past
// mat.MaxLaneWidth, every rank in every lane, 1–9 and 1 024 rows, softmax-like
// rows and constructed ties (all-equal rows, tied top pairs, ties further
// down, +0 and −0 entries), and rows holding a NaN, whose block the lanes
// leave to codeAtRank. The long sweep skips under -race; check.sh runs it
// uninstrumented.
func TestClassAtRankMatchesReference(t *testing.T) {
	trials := 40
	if raceEnabled || testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(44))
	fill := func(p []float64) {
		for j := range p {
			p[j] = rng.ExpFloat64()
		}
		switch rng.Intn(6) {
		case 0: // all equal
			for j := range p {
				p[j] = p[0]
			}
		case 1: // a tied top pair
			p[rng.Intn(len(p))], p[rng.Intn(len(p))] = 9, 9
		case 2: // ties further down, and zeros of both signs
			for j := range p {
				p[j] = []float64{0, math.Copysign(0, -1), 0.25, 0.5}[rng.Intn(4)]
			}
			p[rng.Intn(len(p))] = 1
		case 3: // +0 entries
			p[rng.Intn(len(p))], p[rng.Intn(len(p))] = 0, 0
		}
	}
	rowCounts := []int{1024}
	for r := 1; r <= 9; r++ {
		rowCounts = append(rowCounts, r)
	}
	for trial := 0; trial < trials; trial++ {
		for c := 1; c <= mat.MaxLaneWidth+1; c++ {
			for _, rows := range rowCounts {
				probs := mat.New(rows, c)
				ranks, classes := make([]int, rows), make([]int, rows)
				for i := range ranks {
					fill(probs.Row(i))
					if trial%2 == 1 && rng.Intn(50) == 0 {
						probs.Row(i)[rng.Intn(c)] = math.NaN()
					}
					ranks[i] = (i + trial) % c
				}
				classesAtRank(probs, ranks, classes)
				for i, got := range classes {
					row := probs.Row(i)
					if want := codeAtRank(row, ranks[i]); got != want {
						t.Fatalf("%d rows of %d, row %d %v: class at rank %d = %d, codeAtRank says %d",
							rows, c, i, row, ranks[i], got, want)
					}
					if !slices.ContainsFunc(row, math.IsNaN) && rankOf(row, got) != ranks[i] {
						t.Fatalf("row %v: class %d at rank %d has rank %d", row, got, ranks[i], rankOf(row, got))
					}
				}
			}
		}
	}
}

// BenchmarkClassAtRankCensus turns 1 024 softmax rows' ranks into classes at
// the Census cardinalities 3, 5 and 7, with ranks 0–6 drawn at the 34, 26,
// 15, 12, 8, 4 and 1 % archive-categorical decodes them at (cut at the
// cardinality).
func BenchmarkClassAtRankCensus(b *testing.B) {
	weights := []float64{34, 26, 15, 12, 8, 4, 1}
	rng := rand.New(rand.NewSource(45))
	for _, card := range []int{3, 5, 7} {
		probs := mat.New(1024, card)
		for i := range probs.Data {
			probs.Data[i] = 2 * rng.NormFloat64()
		}
		nn.Softmax(probs, card)
		total := 0.0
		for _, w := range weights[:card] {
			total += w
		}
		ranks, classes := make([]int, probs.Rows), make([]int, probs.Rows)
		for i := range ranks {
			u := rng.Float64() * total
			for u >= weights[ranks[i]] && ranks[i] < card-1 {
				u -= weights[ranks[i]]
				ranks[i]++
			}
		}
		b.Run(fmt.Sprintf("card=%d", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				classesAtRank(probs, ranks, classes)
			}
		})
	}
}

func TestQuantizeReconstructCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	c := matRand(rng, 50, 3)
	for _, bits := range []int{8, 16, 24, 32} {
		dims, rec := quantizeCodes(c, bits)
		rec2 := reconstructCodes(dims, bits)
		for i := range rec.Data {
			if rec.Data[i] != rec2.Data[i] {
				t.Fatalf("bits %d: reconstruction mismatch", bits)
			}
			step := 1 / (math.Pow(2, float64(bits)) - 1)
			if math.Abs(rec.Data[i]-c.Data[i]) > step/2+1e-12 {
				t.Fatalf("bits %d: quantization error %v > step/2", bits, math.Abs(rec.Data[i]-c.Data[i]))
			}
		}
	}
}

func matRand(rng *rand.Rand, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// A training run that blows up must not reach an archive: both writers fail
// with a "training diverged" error before anything is materialized.
func TestDivergedTrainingRejected(t *testing.T) {
	tb := latentTable(200, 91)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.Train.Epochs = 2
	opts.Train.LR = 1e300 // one Adam step puts every weight past float32 range
	if _, err := Compress(tb, thr, opts); err == nil || !strings.Contains(err.Error(), "training diverged") {
		t.Errorf("Compress error %v, want training diverged", err)
	}
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf, tb.Schema, thr, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = aw.Write(tb)
	if err == nil {
		err = aw.Close() // a short table is trained and flushed on Close
	}
	if err == nil || !strings.Contains(err.Error(), "training diverged") {
		t.Errorf("ArchiveWriter error %v, want training diverged", err)
	}
}
