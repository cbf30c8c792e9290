package nn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deepsqueeze/internal/mat"
)

// TestQuickDecoderSerializationFuzz round-trips randomly shaped decoders
// and rejects random truncations.
func TestQuickDecoderSerializationFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSpecs := 1 + rng.Intn(6)
		specs := make([]ColSpec, nSpecs)
		for i := range specs {
			switch rng.Intn(3) {
			case 0:
				specs[i] = ColSpec{Kind: OutNumeric}
			case 1:
				specs[i] = ColSpec{Kind: OutBinary}
			default:
				specs[i] = ColSpec{Kind: OutCategorical, Card: 1 + rng.Intn(9)}
			}
		}
		ae, err := NewAutoencoder(rng, specs, Config{CodeSize: 1 + rng.Intn(4)})
		if err != nil {
			return false
		}
		ae.Decoder.Quantize32()
		buf := ae.Decoder.AppendBinary(nil)
		dec, used, err := DecodeDecoder(buf)
		if err != nil || used != len(buf) {
			return false
		}
		// Shape equality.
		if dec.CodeSize != ae.CodeSize || len(dec.Specs) != len(specs) {
			return false
		}
		// Random truncation must fail.
		cut := rng.Intn(len(buf))
		if _, _, err := DecodeDecoder(buf[:cut]); err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMaskedTargetsDoNotTrain verifies that rows with masked (-1)
// categorical targets contribute no gradient for that column.
func TestMaskedTargetsDoNotTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	specs := []ColSpec{{Kind: OutCategorical, Card: 4}}
	ae, err := NewAutoencoder(rng, specs, Config{CodeSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(4, 1)
	tg := &Targets{Num: mat.New(4, 0), Bin: mat.New(4, 0), Cat: [][]int{{-1, -1, -1, -1}}}
	cap := newCaptureOpt()
	loss := ae.TrainBatch(x, tg, cap, nil)
	if loss != 0 {
		t.Fatalf("all-masked batch produced loss %v", loss)
	}
	for _, l := range ae.AllLayers() {
		if g := cap.gradW[l]; g != nil && g.MaxAbs() != 0 {
			t.Fatal("all-masked batch produced gradients")
		}
	}
}

// TestGateSerializationNotNeeded documents that only the decoders (not the
// gate) are needed to reconstruct predictions — the archive stores the
// expert mapping explicitly.
func TestGateSerializationNotNeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specs := []ColSpec{{Kind: OutNumeric}, {Kind: OutNumeric}}
	moe, err := NewMoE(rng, specs, Config{CodeSize: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	moe.Quantize32()
	x := mat.RandUniform(rng, 8, 2, 0, 1)
	for e, exp := range moe.Experts {
		buf := exp.Decoder.AppendBinary(nil)
		dec, _, err := DecodeDecoder(buf)
		if err != nil {
			t.Fatalf("expert %d: %v", e, err)
		}
		codes := exp.Encode(x)
		want := exp.Decoder.Predict(codes)
		got := dec.Predict(codes)
		if !mat.Equal(want.Num, got.Num, 0) {
			t.Fatalf("expert %d predictions differ after serialization", e)
		}
	}
}
