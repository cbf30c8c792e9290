package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepsqueeze/internal/mat"
)

// The stacked evaluation of the shared categorical stack — [aux | one-hot(j)]
// rows multiplied through their zeros by the whole SharedHidden and Shared
// layers — is what the stack means: archives' failure ranks were computed
// against it and the factored inference and training passes are derived from
// it. It lives on here as the reference both are held to.

// stackedSharedInput assembles the shared-stack inputs for the listed
// categorical columns stacked vertically: row k*B + r carries row r's
// auxiliary activations with column js[k]'s one-hot signal. Scratch comes
// from ar (nil allocates fresh); either way the unset signal positions are
// zero. The reference only: inference (Predictor) and
// training (sharedStep) both factor the one-hot out.
func (d *Decoder) stackedSharedInput(ar *mat.Arena, aux *mat.Matrix, js []int) *mat.Matrix {
	b := aux.Rows
	z := ar.Get(len(js)*b, d.sharedWidth())
	for k, j := range js {
		for r := 0; r < b; r++ {
			row := z.Row(k*b + r)
			copy(row, aux.Row(r))
			row[d.catCols+j] = 1
		}
	}
	return z
}

// accumBatchStacked is accumBatch as it was before training factored the
// one-hot out: all categorical columns in one vertically stacked pass,
// catCols·B rows through SharedHidden and a maxCard-wide Shared.
func (a *Autoencoder) accumBatchStacked(ar *mat.Arena, x *mat.Matrix, tg *Targets, invB float64) float64 {
	if x.Rows == 0 {
		return 0
	}
	// Forward with caching.
	h := x
	for _, l := range a.Encoder {
		h = l.forward(ar, h)
	}
	for _, l := range a.Hidden {
		h = l.forward(ar, h)
	}

	var loss float64
	dH := ar.Get(h.Rows, h.Cols)

	if a.HeadNum != nil {
		z := a.HeadNum.forward(ar, h)
		y := ar.Get(z.Rows, z.Cols)
		copy(y.Data, z.Data)
		y.Apply(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
		// Gradient w.r.t. pre-activation z (HeadNum uses Identity).
		gz := ar.Get(z.Rows, z.Cols)
		for r := 0; r < z.Rows; r++ {
			yr, gr := y.Row(r), gz.Row(r)
			for c := 0; c < a.numCols; c++ {
				t := tg.Num.At(r, c)
				diff := yr[c] - t
				loss += diff * diff * invB
				gr[c] = 2 * diff * yr[c] * (1 - yr[c]) * invB
			}
			for c := 0; c < a.binCols; c++ {
				t := tg.Bin.At(r, c)
				p := yr[a.numCols+c]
				loss += bce(p, t) * invB
				gr[a.numCols+c] = (p - t) * invB
			}
		}
		mat.AddInPlace(dH, a.HeadNum.backward(ar, gz))
	}

	if a.Aux != nil {
		aux := a.Aux.forward(ar, h)
		dAux := ar.Get(aux.Rows, aux.Cols)
		// All categorical columns go through the shared stack in one
		// vertically-stacked forward/backward pass: rows j*B..(j+1)*B-1
		// carry column j's evaluation.
		rows := x.Rows
		_, all := a.wanted(nil, nil)
		z := a.stackedSharedInput(ar, aux, all)
		logits := a.Shared.forward(ar, a.SharedHidden.forward(ar, z))
		gl := ar.Get(logits.Rows, logits.Cols)
		for j := 0; j < a.catCols; j++ {
			card := a.cardOf[j]
			probs := ar.Get(rows, card)
			for r := 0; r < rows; r++ {
				copy(probs.Row(r), logits.Row(j*rows + r)[:card])
			}
			Softmax(probs, card)
			for r := 0; r < rows; r++ {
				cls := tg.Cat[j][r]
				if cls < 0 || cls >= card {
					continue // rare value masked out of training
				}
				pr, gr := probs.Row(r), gl.Row(j*rows+r)
				loss += -math.Log(math.Max(pr[cls], 1e-12)) * invB
				for c := 0; c < card; c++ {
					gr[c] = pr[c] * invB
				}
				gr[cls] -= invB
			}
		}
		dz := a.SharedHidden.backward(ar, a.Shared.backward(ar, gl))
		for j := 0; j < a.catCols; j++ {
			for r := 0; r < rows; r++ {
				dr, da := dz.Row(j*rows+r), dAux.Row(r)
				for c := 0; c < a.catCols; c++ {
					da[c] += dr[c]
				}
				// The signal node is an input, not a parameter: its
				// gradient is discarded.
			}
		}
		mat.AddInPlace(dH, a.Aux.backward(ar, dAux))
	}

	// Backprop through decoder hidden stack, then encoder.
	g := dH
	for i := len(a.Hidden) - 1; i >= 0; i-- {
		g = a.Hidden[i].backward(ar, g)
	}
	for i := len(a.Encoder) - 1; i >= 0; i-- {
		g = a.Encoder[i].backward(ar, g)
	}
	return loss
}

// stackedTrain is trainer.train up to the optimizer step with the stacked
// pass in place of the factored one: the same shard partition, every shard
// accumulated into the primary model in order, then the clip. The gradients
// are left in the model's layers.
func stackedTrain(ae *Autoencoder, x *mat.Matrix, tg *Targets) float64 {
	tr := ae.trainer()
	ns := numShards(x.Rows)
	tr.ensure(ns)
	s := tr.shards[0]
	shardRows := (x.Rows + ns - 1) / ns
	invB := 1 / float64(x.Rows)
	var loss float64
	for lo := 0; lo < x.Rows; lo += shardRows {
		s.ar.Reset()
		s.view(x, tg, lo, min(lo+shardRows, x.Rows))
		loss += ae.accumBatchStacked(s.ar, &s.x, &s.tg, invB)
	}
	ClipGrads(tr.layers, 5)
	return loss
}

// The factored training pass must compute the stacked pass's loss and
// gradients — every layer — up to the rounding of its different
// summation order: for all-categorical, mixed, single-column, card-1-to-max
// and categorical-free models, masked targets included, over batch sizes
// whose last shard holds anything from 1 to 15 rows.
func TestFactoredTrainingMatchesStackedReference(t *testing.T) {
	cats := func(cards ...int) []ColSpec {
		var specs []ColSpec
		for _, c := range cards {
			specs = append(specs, ColSpec{Kind: OutCategorical, Card: c})
		}
		return specs
	}
	models := map[string][]ColSpec{
		"all-categorical": cats(3, 5, 4, 7, 3),
		"mixed":           testSpecs(),
		"one-categorical": cats(4),
		"cards-1-to-max":  append(cats(1, 2, 6, 3, 1), ColSpec{Kind: OutNumeric}),
		"no-categorical":  {{Kind: OutNumeric}, {Kind: OutBinary}, {Kind: OutNumeric}},
	}
	sizes := []int{1, 7, 9, 100}
	for rows := 241; rows <= 255; rows++ { // 16 shards of 16 rows, the last of 1…15
		sizes = append(sizes, rows)
	}
	rng := rand.New(rand.NewSource(313))
	for name, specs := range models {
		ae, err := NewAutoencoder(rng, specs, Config{CodeSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ae.AllLayers() { // NewAutoencoder leaves biases at zero
			for i := range l.B {
				l.B[i] = 0.3 * rng.NormFloat64()
			}
		}
		for _, rows := range sizes {
			x, tg := randomBatch(rng, specs, rows)
			for _, col := range tg.Cat {
				for r := range col {
					if rng.Intn(5) == 0 {
						col[r] = -1
					}
				}
			}
			const tol = 1e-12
			got := newCaptureOpt()
			loss := ae.TrainBatch(x, tg, got, nil)
			refLoss := stackedTrain(ae, x, tg)
			at := fmt.Sprintf("%s, %d rows", name, rows)
			if math.Abs(loss-refLoss) > tol*math.Abs(refLoss) {
				t.Errorf("%s: loss %v, stacked reference %v", at, loss, refLoss)
			}
			for li, l := range ae.AllLayers() {
				want := append(append([]float64{}, l.GradW.Data...), l.GradB...)
				have := append(append([]float64{}, got.gradW[l].Data...), got.gradB[l]...)
				scale := 0.0
				for _, v := range want {
					scale = math.Max(scale, math.Abs(v))
				}
				for i, v := range want {
					if math.Abs(have[i]-v) > tol*scale {
						t.Errorf("%s: layer %d gradient %d is %v, stacked reference %v (layer scale %v)", at, li, i, have[i], v, scale)
						break
					}
				}
				l.ZeroGrad()
			}
		}
	}
}

// BenchmarkTrainBatchCategorical is one training step at the repo
// benchmark's archive-categorical shape: 21 categorical columns of
// cardinality 3–7, 256 rows.
func BenchmarkTrainBatchCategorical(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	specs := make([]ColSpec, 21)
	for j := range specs {
		specs[j] = ColSpec{Kind: OutCategorical, Card: 3 + j%5}
	}
	ae, err := NewAutoencoder(rng, specs, Config{CodeSize: 4})
	if err != nil {
		b.Fatal(err)
	}
	x, tg := randomBatch(rng, specs, 256)
	opt := NewAdam(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ae.TrainBatch(x, tg, opt, nil)
	}
}
