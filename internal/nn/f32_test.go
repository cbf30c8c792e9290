package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepsqueeze/internal/mat"
)

// predTol is the absolute tolerance the float32 decode path is held to
// against the float64 decoder on small trained models (DESIGN.md §15).
// Outputs are probabilities in (0,1); activation widening keeps the
// divergence to linear-algebra rounding, orders of magnitude below this.
const predTol = 1e-4

func maxAbsDiff(a, b *mat.Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// trainedDecoder builds a briefly trained, float32-quantized decoder — the
// state archives carry — plus random codes to decode.
func trainedDecoder(t *testing.T, seed int64, rows int) (*Decoder, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ae, err := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, tg := randomBatch(rng, testSpecs(), 128)
	opt := NewAdam(0.01)
	for i := 0; i < 5; i++ {
		ae.TrainBatch(x, tg, opt, nil)
	}
	ae.Decoder.Quantize32()
	codes := mat.RandUniform(rng, rows, 3, -2, 2)
	return &ae.Decoder, codes
}

// The float32 decoder must match the float64 decoder within the documented
// tolerance on every head, for the full prediction and under column masks.
func TestDecoder32MatchesFloat64(t *testing.T) {
	dec, codes := trainedDecoder(t, 71, 200)
	d32 := dec.Float32()
	if d32.Source() != dec {
		t.Fatal("Source must return the wrapped decoder")
	}
	masks := [][]bool{
		nil, // full predict
		{true, true, true, true, true},
		{true, false, false, false, true}, // numeric head + second categorical
		{false, false, true, false, false},
	}
	for mi, want := range masks {
		p64 := dec.PredictCols(codes, want)
		p32 := d32.PredictCols(codes, want)
		if d := maxAbsDiff(p64.Num, p32.Num); d > predTol {
			t.Errorf("mask %d: Num diverges by %g", mi, d)
		}
		if d := maxAbsDiff(p64.Bin, p32.Bin); d > predTol {
			t.Errorf("mask %d: Bin diverges by %g", mi, d)
		}
		for j := range p64.Cat {
			if (p64.Cat[j] == nil) != (p32.Cat[j] == nil) {
				t.Fatalf("mask %d: cat %d evaluated on one path only", mi, j)
			}
			if p64.Cat[j] == nil {
				continue
			}
			if d := maxAbsDiff(p64.Cat[j], p32.Cat[j]); d > predTol {
				t.Errorf("mask %d: Cat[%d] diverges by %g", mi, j, d)
			}
			// Softmax outputs must still be distributions.
			for r := 0; r < p32.Cat[j].Rows; r++ {
				sum := 0.0
				for _, v := range p32.Cat[j].Row(r) {
					sum += v
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("mask %d: Cat[%d] row %d sums to %v", mi, j, r, sum)
				}
			}
		}
	}
	// Predict is PredictCols with a nil mask.
	pa, pb := d32.Predict(codes), d32.PredictCols(codes, nil)
	if maxAbsDiff(pa.Num, pb.Num) != 0 {
		t.Error("Predict and PredictCols(nil) disagree")
	}
}

// The float32 decode path is deterministic: the same codes always produce
// bit-identical predictions, including across independently built Decoder32s
// (narrowing float32-valued weights is exact, so there is nothing to vary).
func TestDecoder32Deterministic(t *testing.T) {
	dec, codes := trainedDecoder(t, 73, 150)
	p1 := dec.Float32().Predict(codes)
	p2 := dec.Float32().Predict(codes)
	if !bitsEqual(p1.Num.Data, p2.Num.Data) || !bitsEqual(p1.Bin.Data, p2.Bin.Data) {
		t.Fatal("float32 numeric/binary predictions not bit-identical")
	}
	for j := range p1.Cat {
		if !bitsEqual(p1.Cat[j].Data, p2.Cat[j].Data) {
			t.Fatalf("float32 Cat[%d] predictions not bit-identical", j)
		}
	}
}

// Float32 inference must be allocation-free once its scratch is warm: the
// scratch owns the arenas and one reused Predictions, which is what keeps the
// decode inner loop off the allocator.
func TestPredictor32SteadyStateAllocFree(t *testing.T) {
	dec, codes := trainedDecoder(t, 79, 64)
	d32 := dec.Float32()
	var s Scratch
	d32.PredictInto(&s, codes, nil)
	d32.PredictInto(&s, codes, nil)
	if allocs := testing.AllocsPerRun(10, func() { d32.PredictInto(&s, codes, nil) }); allocs != 0 {
		t.Errorf("warm PredictInto allocates %.0f objects per call, want 0", allocs)
	}
}
