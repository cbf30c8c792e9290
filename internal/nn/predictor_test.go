package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepsqueeze/internal/mat"
)

// catDecoder builds a decoder over one numeric, one binary and the given
// categorical columns with random float32-valued parameters — biases too,
// which NewAutoencoder leaves at zero — and a sprinkling of ±0 weights, the
// values the factored shared stack's bit-identity argument turns on.
func catDecoder(rng *rand.Rand, cards []int) *Decoder {
	specs := []ColSpec{{Kind: OutNumeric}, {Kind: OutBinary}}
	for _, c := range cards {
		specs = append(specs, ColSpec{Kind: OutCategorical, Card: c})
	}
	ae, err := NewAutoencoder(rng, specs, Config{CodeSize: 2})
	if err != nil {
		panic(err)
	}
	d := &ae.Decoder
	for _, l := range d.Layers() {
		for i := range l.W.Data {
			switch rng.Intn(16) {
			case 0:
				l.W.Data[i] = 0
			case 1:
				l.W.Data[i] = math.Copysign(0, -1)
			}
		}
		for i := range l.B {
			l.B[i] = rng.NormFloat64()
		}
	}
	// One shared-hidden unit sees nothing but a −0 signal weight: its
	// auxiliary sum is +0, and +0 + −0 must stay +0 on both evaluations.
	sh := d.SharedHidden
	for k := range sh.W.Row(0) {
		sh.W.Row(0)[k] = 0
	}
	sh.W.Row(0)[len(cards)] = math.Copysign(0, -1)
	d.Quantize32()
	return d
}

// stackedCat evaluates categorical position j the way inference did before
// the one-hot input was factored out, and the way training and every
// existing archive's failure ranks still define it: [aux | one-hot(j)] rows
// multiplied through their zeros by the whole SharedHidden and Shared layers.
func stackedCat(d *Decoder, codes *mat.Matrix, j int) *mat.Matrix {
	h := codes
	for _, l := range d.Hidden {
		h = l.Infer(h)
	}
	logits := d.Shared.Infer(d.SharedHidden.Infer(d.stackedSharedInput(nil, d.Aux.Infer(h), []int{j})))
	probs := mat.New(codes.Rows, d.cardOf[j])
	for r := 0; r < codes.Rows; r++ {
		copy(probs.Row(r), logits.Row(r))
	}
	Softmax(probs, probs.Cols)
	return probs
}

// stackedCat32 is stackedCat through the float32 layers, whose matmuls run
// the platform kernel of the 4-lane dot contract.
func stackedCat32(d *Decoder32, codes *mat.Matrix, j int) *mat.Matrix {
	h := mat.To32(codes, nil)
	for _, l := range d.Hidden {
		h = l.infer(nil, h)
	}
	aux := d.Aux.infer(nil, h)
	z := mat.New32(aux.Rows, 2*aux.Cols)
	for r := 0; r < aux.Rows; r++ {
		copy(z.Row(r), aux.Row(r))
		z.Row(r)[aux.Cols+j] = 1
	}
	logits := d.Shared.infer(nil, d.SharedHidden.infer(nil, z))
	probs := mat.New(codes.Rows, d.src.cardOf[j])
	for r := 0; r < codes.Rows; r++ {
		for c := range probs.Row(r) {
			probs.Row(r)[c] = float64(logits.At(r, c))
		}
	}
	Softmax(probs, probs.Cols)
	return probs
}

// The factored shared stack must reproduce the stacked evaluation bit for
// bit at both precisions: for every residue of 2·catCols mod 4 and of
// (catCols+j) mod 4, cardinalities from 1 up, and want masks selecting no,
// one, some and all categorical columns.
func TestPredictorMatchesStackedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, catCols := range []int{1, 2, 3, 4, 5, 7, 8, 24} {
		cards := make([]int, catCols)
		for j := range cards {
			cards[j] = 1 + (j*5+catCols)%13 // 1 … 13, mixed within a table
		}
		dec := catDecoder(rng, cards)
		d32 := dec.Float32()
		codes := mat.RandUniform(rng, 37, 2, 0, 1)
		some := make([]bool, 2+catCols)
		for i := range some {
			some[i] = i%3 != 1
		}
		one := make([]bool, 2+catCols)
		one[2+catCols/2] = true
		masks := [][]bool{nil, some, one, {true, true}}
		for mi, want := range masks {
			for _, f32 := range []bool{false, true} {
				name := fmt.Sprintf("catCols=%d mask=%d f32=%v", catCols, mi, f32)
				var p *Predictions
				if f32 {
					p = d32.PredictCols(codes, want)
				} else {
					p = dec.PredictCols(codes, want)
				}
				for j := 0; j < catCols; j++ {
					wanted := want == nil || (2+j < len(want) && want[2+j])
					if !wanted {
						if p.Cat[j] != nil {
							t.Fatalf("%s: unwanted Cat[%d] evaluated", name, j)
						}
						continue
					}
					var ref *mat.Matrix
					if f32 {
						ref = stackedCat32(d32, codes, j)
					} else {
						ref = stackedCat(dec, codes, j)
					}
					if p.Cat[j] == nil || p.Cat[j].Cols != cards[j] || !bitsEqual(p.Cat[j].Data, ref.Data) {
						t.Fatalf("%s: Cat[%d] (card %d) differs from the stacked evaluation", name, j, cards[j])
					}
				}
			}
		}
	}
}

// Float64 inference is allocation-free once its scratch is warm, like the
// float32 one — under any projection the scratch has already run.
func TestPredictorSteadyStateAllocFree(t *testing.T) {
	dec, codes := trainedDecoder(t, 83, 64)
	masks := [][]bool{nil, {true, false, false, true, false}, {false, false, true, false, true}}
	var s Scratch
	for _, want := range masks {
		dec.PredictInto(&s, codes, want)
	}
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		dec.PredictInto(&s, codes, masks[i%len(masks)])
		i++
	})
	if allocs != 0 {
		t.Errorf("warm PredictInto allocates %.0f objects per call, want 0", allocs)
	}
}

// samePredictions reports whether two prediction sets are bit-identical,
// shapes and skipped columns included.
func samePredictions(a, b *Predictions) bool {
	same := func(x, y *mat.Matrix) bool {
		if x == nil || y == nil {
			return x == y
		}
		return x.Rows == y.Rows && x.Cols == y.Cols && bitsEqual(x.Data, y.Data)
	}
	if !same(a.Num, b.Num) || !same(a.Bin, b.Bin) || len(a.Cat) != len(b.Cat) {
		return false
	}
	for j := range a.Cat {
		if !same(a.Cat[j], b.Cat[j]) {
			return false
		}
	}
	return true
}

// A scratch remembers nothing of earlier calls: through projection A, then B,
// then A again, a short batch then a full one, and batches of NaN codes whose
// NaNs fill every slot the next call recycles uncleared, each result is
// bit-identical to a fresh scratch's, at both widths.
func TestScratchHasNoMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	dec := catDecoder(rng, []int{3, 7, 2, 5, 12})
	d32 := dec.Float32()
	full := mat.RandUniform(rng, 64, 2, 0, 1)
	short := full.SliceRows(0, 9)
	nan := mat.New(64, 2)
	nan.Fill(math.NaN())
	a := []bool{true, false, true, false, false, true, false}
	b := []bool{false, true, false, true, true, false, true}
	calls := []struct {
		codes *mat.Matrix
		want  []bool
	}{{nan, nil}, {full, a}, {full, b}, {full, a}, {&short, nil}, {full, nil}, {nan, b}, {&short, a}, {full, b}}
	for _, f32 := range []bool{false, true} {
		predict := func(s *Scratch, codes *mat.Matrix, want []bool) *Predictions {
			if f32 {
				return d32.PredictInto(s, codes, want)
			}
			return dec.PredictInto(s, codes, want)
		}
		var s Scratch
		for i, c := range calls {
			got := predict(&s, c.codes, c.want)
			if c.codes != nan && !samePredictions(got, predict(new(Scratch), c.codes, c.want)) {
				t.Fatalf("f32=%v call %d: a reused scratch predicts differently from a fresh one", f32, i)
			}
		}
	}
}

// rowsEqual reports whether rows [lo, hi) of a equal every row of part bit
// for bit; both nil (an unwanted head) counts as equal.
func rowsEqual(a, part *mat.Matrix, lo, hi int) bool {
	if a == nil || part == nil {
		return a == part
	}
	if part.Rows != hi-lo || part.Cols != a.Cols {
		return false
	}
	for i := lo; i < hi; i++ {
		if !bitsEqual(a.Row(i), part.Row(i-lo)) {
			return false
		}
	}
	return true
}

// Every row's prediction is a function of that row's codes alone: predicted
// in the full batch, in contiguous parts of 1, 3, 4, 5 or 256 rows, or alone,
// each row's Num, Bin and Cat outputs are bit-identical, for the float64
// decoder and its float32 view, under every want mask. A decode may split a
// group's rows into parts anywhere (core's decodeItems) only because of this.
// The full batch is wide enough to fan the products out over mat's pool, and
// the cards span the softmax and rank lanes (≤ 8) and the loops past them.
func TestPredictRowIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	dec := catDecoder(rng, []int{3, 7, 2, 5, 12, 9, 4})
	d32 := dec.Float32()
	const rows = 601
	codes := mat.RandUniform(rng, rows, 2, 0, 1)
	masks := [][]bool{
		nil,
		{true, false, true, false, false, true, false, true, true},
		{false, false, false, true, false, false, false, false, false},
		{true, true},
	}
	for _, f32 := range []bool{false, true} {
		predict := func(s *Scratch, codes *mat.Matrix, want []bool) *Predictions {
			if f32 {
				return d32.PredictInto(s, codes, want)
			}
			return dec.PredictInto(s, codes, want)
		}
		for mi, want := range masks {
			var fs, ps Scratch
			full := predict(&fs, codes, want)
			for _, size := range []int{1, 3, 4, 5, 256} {
				for lo := 0; lo < rows; lo += size {
					hi := min(lo+size, rows)
					part := codes.SliceRows(lo, hi)
					p := predict(&ps, &part, want)
					same := rowsEqual(full.Num, p.Num, lo, hi) && rowsEqual(full.Bin, p.Bin, lo, hi) &&
						len(full.Cat) == len(p.Cat)
					for j := range full.Cat {
						same = same && rowsEqual(full.Cat[j], p.Cat[j], lo, hi)
					}
					if !same {
						t.Fatalf("f32=%v mask=%d: rows [%d,%d) predicted in a part of %d differ from the full batch", f32, mi, lo, hi, size)
					}
				}
			}
		}
	}
}

// BenchmarkPredictCategorical times the shared categorical stack at the
// repo benchmark's archive-categorical shape: 24 columns, cardinalities
// 2–12, one 1 024-row batch per call in a warm Scratch.
func BenchmarkPredictCategorical(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	cards := make([]int, 24)
	for j := range cards {
		cards[j] = 2 + j%11
	}
	dec := catDecoder(rng, cards)
	d32 := dec.Float32()
	codes := mat.RandUniform(rng, 1024, 2, 0, 1)
	for _, bc := range []struct {
		name    string
		predict func(*Scratch) *Predictions
	}{
		{"f64", func(s *Scratch) *Predictions { return dec.PredictInto(s, codes, nil) }},
		{"f32", func(s *Scratch) *Predictions { return d32.PredictInto(s, codes, nil) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var s Scratch
			bc.predict(&s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.predict(&s)
			}
		})
	}
}
