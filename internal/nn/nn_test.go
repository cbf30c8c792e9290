package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/pipeline"
)

// captureOpt records gradients without touching weights, so TrainBatch can
// be used as a pure loss-and-gradient oracle.
type captureOpt struct {
	gradW map[*Dense]*mat.Matrix
	gradB map[*Dense][]float64
}

func newCaptureOpt() *captureOpt {
	return &captureOpt{gradW: map[*Dense]*mat.Matrix{}, gradB: map[*Dense][]float64{}}
}

func (o *captureOpt) Step(layers []*Dense) {
	for _, l := range layers {
		o.gradW[l] = l.GradW.Clone()
		o.gradB[l] = append([]float64(nil), l.GradB...)
		l.ZeroGrad()
	}
}

func TestActivations(t *testing.T) {
	m := mat.FromSlice(1, 4, []float64{-2, -0.5, 0.5, 2})
	relu := m.Clone()
	ReLU.apply(relu)
	if relu.At(0, 0) != 0 || relu.At(0, 3) != 2 {
		t.Fatalf("ReLU = %v", relu.Data)
	}
	sig := m.Clone()
	Sigmoid.apply(sig)
	for i, v := range sig.Data {
		want := 1 / (1 + math.Exp(-m.Data[i]))
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("Sigmoid[%d] = %v, want %v", i, v, want)
		}
	}
	th := m.Clone()
	Tanh.apply(th)
	if math.Abs(th.At(0, 3)-math.Tanh(2)) > 1e-12 {
		t.Fatal("Tanh wrong")
	}
	id := m.Clone()
	Identity.apply(id)
	if !mat.Equal(id, m, 0) {
		t.Fatal("Identity changed values")
	}
}

func TestSoftmax(t *testing.T) {
	m := mat.FromSlice(2, 4, []float64{1, 2, 3, 99, 0, 0, 0, 99})
	Softmax(m, 3) // last column must be untouched
	for r := 0; r < 2; r++ {
		row := m.Row(r)
		sum := row[0] + row[1] + row[2]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
		if row[3] != 99 {
			t.Fatalf("softmax touched column outside width: %v", row[3])
		}
	}
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Fatal("softmax not monotone")
	}
	if math.Abs(m.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatal("uniform softmax not uniform")
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := mat.FromSlice(1, 2, []float64{1000, 1001})
	Softmax(m, 2)
	if math.IsNaN(m.At(0, 0)) || math.IsNaN(m.At(0, 1)) {
		t.Fatal("softmax overflowed on large logits")
	}
}

// Property: a softmax over the first width of Cols columns leaves the rest
// bit-identical and gives, row for row, the bits of the whole-matrix path
// (one mat.Exp across rows) over a width-wide copy — at shapes whose element
// counts run the exp kernel's lanes and tail, with logits far enough apart
// that some exponentials underflow and take the reference.
func TestSoftmaxPartialWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for rows := 1; rows <= 9; rows++ {
		for width := 1; width <= 9; width++ {
			m := mat.New(rows, width+1+rng.Intn(3))
			for i := range m.Data {
				m.Data[i] = 4 * rng.NormFloat64()
				if rng.Intn(10) == 0 {
					m.Data[i] = -800
				}
			}
			whole := mat.New(rows, width)
			for r := 0; r < rows; r++ {
				copy(whole.Row(r), m.Row(r)[:width])
			}
			orig := m.Clone()
			Softmax(m, width)
			Softmax(whole, width)
			for r := 0; r < rows; r++ {
				for c, v := range m.Row(r) {
					want := orig.At(r, c)
					if c < width {
						want = whole.At(r, c)
					}
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%dx%d, width %d: [%d][%d] = %v, want %v", rows, m.Cols, width, r, c, v, want)
					}
				}
			}
		}
	}
}

// BenchmarkSoftmaxCensusShapes times the element-wise passes of a Census
// decode batch: 1 024 rows of a categorical column's softmax at
// cardinalities 3, 5 and 7, and the 24-wide auxiliary layer's tanh.
func BenchmarkSoftmaxCensusShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for _, card := range []int{3, 5, 7, 24} {
		src := mat.RandUniform(rng, 1024, card, -6, 6)
		m := mat.New(1024, card)
		name, pass := fmt.Sprintf("softmax/card=%d", card), func() { Softmax(m, card) }
		if card == 24 {
			name, pass = "tanh/aux=24", func() { Tanh.apply(m) }
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				pass()
			}
		})
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	d := &Dense{In: 2, Out: 1, Act: Identity,
		W: mat.FromSlice(1, 2, []float64{2, 3}), B: []float64{1},
		GradW: mat.New(1, 2), GradB: make([]float64, 1)}
	out := d.Forward(mat.FromSlice(1, 2, []float64{4, 5}))
	if out.At(0, 0) != 2*4+3*5+1 {
		t.Fatalf("forward = %v", out.At(0, 0))
	}
	// Infer must match Forward and not disturb caches.
	if got := d.Infer(mat.FromSlice(1, 2, []float64{4, 5})); got.At(0, 0) != out.At(0, 0) {
		t.Fatal("Infer differs from Forward")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 2, 2, Identity)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Backward(mat.New(1, 2))
}

func testSpecs() []ColSpec {
	return []ColSpec{
		{Kind: OutNumeric},
		{Kind: OutBinary},
		{Kind: OutCategorical, Card: 3},
		{Kind: OutNumeric},
		{Kind: OutCategorical, Card: 5},
	}
}

func randomBatch(rng *rand.Rand, specs []ColSpec, rows int) (*mat.Matrix, *Targets) {
	x := mat.New(rows, len(specs))
	var numCols, binCols, catCols int
	for _, s := range specs {
		switch s.Kind {
		case OutNumeric:
			numCols++
		case OutBinary:
			binCols++
		case OutCategorical:
			catCols++
		}
	}
	tg := &Targets{Num: mat.New(rows, numCols), Bin: mat.New(rows, binCols), Cat: make([][]int, catCols)}
	for j := range tg.Cat {
		tg.Cat[j] = make([]int, rows)
	}
	for r := 0; r < rows; r++ {
		ni, bi, ci := 0, 0, 0
		for c, s := range specs {
			switch s.Kind {
			case OutNumeric:
				v := rng.Float64()
				x.Set(r, c, v)
				tg.Num.Set(r, ni, v)
				ni++
			case OutBinary:
				v := float64(rng.Intn(2))
				x.Set(r, c, v)
				tg.Bin.Set(r, bi, v)
				bi++
			case OutCategorical:
				cls := rng.Intn(s.Card)
				x.Set(r, c, float64(cls)/float64(s.Card-1))
				tg.Cat[ci][r] = cls
				ci++
			}
		}
	}
	return x, tg
}

// TestGradientCheck verifies analytic backprop against central finite
// differences for every layer of the mixed-head autoencoder. This is the
// load-bearing correctness test for the whole nn package.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ae, err := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, tg := randomBatch(rng, testSpecs(), 5)
	// Mask one categorical target to exercise the rare-value path.
	tg.Cat[1][2] = -1

	cap := newCaptureOpt()
	ae.TrainBatch(x, tg, cap, nil)

	lossAt := func() float64 {
		c := newCaptureOpt()
		return ae.TrainBatch(x, tg, c, nil)
	}
	const eps = 1e-6
	checked := 0
	for li, l := range ae.AllLayers() {
		g := cap.gradW[l]
		if g == nil {
			t.Fatalf("layer %d missing captured grads", li)
		}
		// Probe a handful of weights per layer plus one bias.
		probe := []int{0, len(l.W.Data) / 2, len(l.W.Data) - 1}
		switch l {
		case ae.SharedHidden:
			// The second categorical column's signal weight on every unit:
			// its gradient is a column sum the factored pass keeps apart
			// from the auxiliary weights' product.
			for o := 0; o < l.Out; o++ {
				probe = append(probe, o*l.In+ae.catCols+1)
			}
		case ae.Shared:
			// A row past the narrow column's cardinality (3): only the
			// 5-wide column reaches it, the other must contribute nothing.
			for k := 0; k < l.In; k++ {
				probe = append(probe, 3*l.In+k)
			}
		}
		for _, pi := range probe {
			orig := l.W.Data[pi]
			l.W.Data[pi] = orig + eps
			lp := lossAt()
			l.W.Data[pi] = orig - eps
			lm := lossAt()
			l.W.Data[pi] = orig
			num := (lp - lm) / (2 * eps)
			ana := g.Data[pi]
			if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)+math.Abs(ana)) {
				t.Errorf("layer %d weight %d: analytic %.8f vs numeric %.8f", li, pi, ana, num)
			}
			checked++
		}
		bi := l.Out / 2
		orig := l.B[bi]
		l.B[bi] = orig + eps
		lp := lossAt()
		l.B[bi] = orig - eps
		lm := lossAt()
		l.B[bi] = orig
		num := (lp - lm) / (2 * eps)
		ana := cap.gradB[l][bi]
		if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)+math.Abs(ana)) {
			t.Errorf("layer %d bias %d: analytic %.8f vs numeric %.8f", li, bi, ana, num)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d gradient probes ran", checked)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := testSpecs()
	ae, err := NewAutoencoder(rng, specs, Config{CodeSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Structured data: all columns derive from one latent factor, so a
	// 3-dim code can capture them.
	rows := 512
	x := mat.New(rows, len(specs))
	tg := &Targets{Num: mat.New(rows, 2), Bin: mat.New(rows, 1), Cat: [][]int{make([]int, rows), make([]int, rows)}}
	for r := 0; r < rows; r++ {
		z := rng.Float64()
		x.Set(r, 0, z)
		tg.Num.Set(r, 0, z)
		bin := 0.0
		if z > 0.5 {
			bin = 1
		}
		x.Set(r, 1, bin)
		tg.Bin.Set(r, 0, bin)
		c3 := int(z * 2.999)
		x.Set(r, 2, float64(c3)/2)
		tg.Cat[0][r] = c3
		x.Set(r, 3, 1-z)
		tg.Num.Set(r, 1, 1-z)
		c5 := int(z * 4.999)
		x.Set(r, 4, float64(c5)/4)
		tg.Cat[1][r] = c5
	}
	opt := NewAdam(0.01)
	first := ae.TrainBatch(x, tg, opt, nil)
	var last float64
	for i := 0; i < 120; i++ {
		last = ae.TrainBatch(x, tg, opt, nil)
	}
	if last > first*0.5 {
		t.Fatalf("loss did not halve: first %.4f last %.4f", first, last)
	}
}

func TestPredictConsistentWithLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	specs := testSpecs()
	ae, _ := NewAutoencoder(rng, specs, Config{CodeSize: 2})
	x, tg := randomBatch(rng, specs, 9)
	p := ae.Predict(ae.Encode(x))
	if p.Num.Cols != 2 || p.Bin.Cols != 1 || len(p.Cat) != 2 {
		t.Fatalf("prediction shapes: num %d bin %d cat %d", p.Num.Cols, p.Bin.Cols, len(p.Cat))
	}
	for j, pc := range p.Cat {
		for r := 0; r < pc.Rows; r++ {
			var sum float64
			for _, v := range pc.Row(r) {
				if v < 0 {
					t.Fatalf("negative probability in cat %d", j)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("cat %d row %d probs sum to %v", j, r, sum)
			}
		}
	}
	losses := (&scorer{a: ae}).losses(x, tg)
	if len(losses) != 9 {
		t.Fatalf("losses len %d", len(losses))
	}
	for _, l := range losses {
		if l <= 0 || math.IsNaN(l) {
			t.Fatalf("bad per-tuple loss %v", l)
		}
	}
}

func TestSingleLayerLinearConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ae, err := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 2, SingleLayerLinear: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ae.Encoder) != 1 || len(ae.Hidden) != 1 {
		t.Fatalf("baseline model has %d enc / %d dec layers", len(ae.Encoder), len(ae.Hidden))
	}
	if ae.Hidden[0].Act != Identity {
		t.Fatal("baseline decoder layer must be linear")
	}
	x, tg := randomBatch(rng, testSpecs(), 8)
	opt := NewAdam(0.01)
	if l := ae.TrainBatch(x, tg, opt, nil); math.IsNaN(l) {
		t.Fatal("NaN loss")
	}
}

func TestDecoderSerializationExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	specs := testSpecs()
	ae, _ := NewAutoencoder(rng, specs, Config{CodeSize: 2})
	x, tg := randomBatch(rng, specs, 32)
	opt := NewAdam(0.01)
	for i := 0; i < 10; i++ {
		ae.TrainBatch(x, tg, opt, nil)
	}
	// The contract: quantize to float32, serialize, decode — predictions
	// must be bit-identical to the quantized in-memory model.
	ae.Decoder.Quantize32()
	codes := ae.Encode(x)
	want := ae.Decoder.Predict(codes)
	buf := ae.Decoder.AppendBinary(nil)
	dec, used, err := DecodeDecoder(buf)
	if err != nil || used != len(buf) {
		t.Fatalf("DecodeDecoder: %v, used %d/%d", err, used, len(buf))
	}
	got := dec.Predict(codes)
	if !mat.Equal(got.Num, want.Num, 0) || !mat.Equal(got.Bin, want.Bin, 0) {
		t.Fatal("numeric predictions differ after serialization round trip")
	}
	for j := range want.Cat {
		if !mat.Equal(got.Cat[j], want.Cat[j], 0) {
			t.Fatalf("categorical predictions %d differ after round trip", j)
		}
	}
}

func TestDecodeDecoderRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ae, _ := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 2})
	buf := ae.Decoder.AppendBinary(nil)
	for _, cut := range []int{0, 1, 3, len(buf) / 2, len(buf) - 1} {
		if _, _, err := DecodeDecoder(buf[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEncoderSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ae, _ := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 2})
	for _, l := range ae.Encoder {
		l.Quantize32()
	}
	buf := ae.AppendEncoder(nil)
	layers, used, err := DecodeEncoder(buf)
	if err != nil || used != len(buf) {
		t.Fatalf("DecodeEncoder: %v", err)
	}
	x, _ := randomBatch(rng, testSpecs(), 4)
	want := ae.Encode(x)
	h := x
	for _, l := range layers {
		h = l.Infer(h)
	}
	if !mat.Equal(h, want, 0) {
		t.Fatal("decoded encoder computes different codes")
	}
}

func TestMoEAssignAndTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	specs := []ColSpec{{Kind: OutNumeric}, {Kind: OutNumeric}}
	moe, err := NewMoE(rng, specs, Config{CodeSize: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two linear regimes (y = x and y = 1-x): a 2-expert mixture should
	// beat a shared fit.
	rows := 600
	x := mat.New(rows, 2)
	tg := &Targets{Num: mat.New(rows, 2), Bin: mat.New(rows, 0), Cat: nil}
	for r := 0; r < rows; r++ {
		z := rng.Float64()
		x.Set(r, 0, z)
		tg.Num.Set(r, 0, z)
		var y float64
		if r%2 == 0 {
			y = z
		} else {
			y = 1 - z
		}
		x.Set(r, 1, y)
		tg.Num.Set(r, 1, y)
	}
	hist := moe.Train(rng, x, tg, TrainOptions{Epochs: 40, BatchSize: 64, LR: 0.02})
	if len(hist) == 0 {
		t.Fatal("no training history")
	}
	if hist[len(hist)-1] > hist[0]*0.5 {
		t.Fatalf("MoE loss did not halve: %v → %v", hist[0], hist[len(hist)-1])
	}
	assign := moe.Assign(x, tg)
	if len(assign) != rows {
		t.Fatalf("assign len %d", len(assign))
	}
	counts := map[int]int{}
	for _, a := range assign {
		counts[a]++
	}
	// Both experts should end up used on this bimodal data.
	if len(counts) != 2 {
		t.Logf("expert usage: %v (single-expert collapse is possible but unexpected)", counts)
	}
	gate := moe.GateAssign(x)
	agree := 0
	for i := range gate {
		if gate[i] == assign[i] {
			agree++
		}
	}
	if agree < rows/2 {
		t.Errorf("gate agrees with loss-argmin on only %d/%d tuples", agree, rows)
	}
}

// A held scorer must return, batch after batch and across optimizer steps,
// the bits a fresh one does — its predictor holds a packed copy of the
// weights, which goes stale every time they move — and Assign,
// which scores a large input in batches, must pick each tuple's argmin.
func TestScorerMatchesOneShotLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	moe, err := NewMoE(rng, testSpecs(), Config{CodeSize: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, tg := randomBatch(rng, testSpecs(), 2*defaultBatchSize+44)
	opt := NewAdam(0.05)
	for e, ae := range moe.Experts {
		sc := &scorer{a: ae}
		for step := 0; step < 3; step++ {
			rows := 40 + 30*step // a growing batch reuses and regrows the scratch
			idx := rng.Perm(x.Rows)[:rows]
			bx, btg := extractRows(x, idx), extractTargets(tg, idx)
			if !bitsEqual(sc.losses(bx, btg), (&scorer{a: ae}).losses(bx, btg)) {
				t.Fatalf("expert %d, step %d: held scorer differs from a fresh one", e, step)
			}
			ae.TrainBatch(bx, btg, opt, nil)
		}
	}
	assign := moe.Assign(x, tg)
	l0, l1 := (&scorer{a: moe.Experts[0]}).losses(x, tg), (&scorer{a: moe.Experts[1]}).losses(x, tg)
	for r, a := range assign {
		if want := map[bool]int{true: 1, false: 0}[l1[r] < l0[r]]; a != want {
			t.Fatalf("row %d assigned to expert %d, losses %v and %v", r, a, l0[r], l1[r])
		}
	}
}

func TestMoESingleExpert(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	specs := []ColSpec{{Kind: OutNumeric}}
	moe, err := NewMoE(rng, specs, Config{CodeSize: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if moe.Gate != nil {
		t.Fatal("single-expert MoE must not build a gate")
	}
	x := mat.New(4, 1)
	tg := &Targets{Num: mat.New(4, 1)}
	if a := moe.Assign(x, tg); len(a) != 4 || a[0] != 0 {
		t.Fatalf("Assign = %v", a)
	}
	moe.Train(rng, x, tg, TrainOptions{Epochs: 2})
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	if _, err := NewAutoencoder(rng, nil, Config{CodeSize: 1}); err == nil {
		t.Error("empty specs accepted")
	}
	if _, err := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 0}); err == nil {
		t.Error("zero code size accepted")
	}
	if _, err := NewAutoencoder(rng, []ColSpec{{Kind: OutCategorical, Card: 0}}, Config{CodeSize: 1}); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := NewMoE(rng, testSpecs(), Config{CodeSize: 1}, 0); err == nil {
		t.Error("zero experts accepted")
	}
}

func TestOptimizersConverge(t *testing.T) {
	// Fit y = 0.5 with a single sigmoid unit under each optimizer.
	for name, mk := range map[string]func() Optimizer{
		"sgd":          func() Optimizer { return NewSGD(0.5, 0) },
		"sgd-momentum": func() Optimizer { return NewSGD(0.2, 0.9) },
		"adam":         func() Optimizer { return NewAdam(0.05) },
	} {
		rng := rand.New(rand.NewSource(16))
		ae, _ := NewAutoencoder(rng, []ColSpec{{Kind: OutNumeric}}, Config{CodeSize: 1})
		x := mat.New(8, 1)
		tg := &Targets{Num: mat.New(8, 1)}
		for r := 0; r < 8; r++ {
			x.Set(r, 0, 0.5)
			tg.Num.Set(r, 0, 0.5)
		}
		opt := mk()
		var last float64
		for i := 0; i < 300; i++ {
			last = ae.TrainBatch(x, tg, opt, nil)
		}
		if last > 0.01 {
			t.Errorf("%s: loss %.5f after 300 steps", name, last)
		}
	}
}

func TestClipGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	l := NewDense(rng, 4, 4, Identity)
	l.GradW.Fill(10)
	for i := range l.GradB {
		l.GradB[i] = 10
	}
	pre := ClipGrads([]*Dense{l}, 1)
	if pre < 10 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	var sq float64
	for _, g := range l.GradW.Data {
		sq += g * g
	}
	for _, g := range l.GradB {
		sq += g * g
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-9 {
		t.Fatalf("post-clip norm %v", math.Sqrt(sq))
	}
}

// flattenParams returns every weight and bias of the model, in layer order.
func flattenParams(ae *Autoencoder) []float64 {
	var w []float64
	for _, l := range ae.AllLayers() {
		w = append(w, l.W.Data...)
		w = append(w, l.B...)
	}
	return w
}

// bitsEqual reports whether two float slices are bit-identical (NaN-safe,
// distinguishes ±0 — the strictest possible comparison).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// poolSizes are the pools every determinism test trains on; nil is the serial
// path they are all compared with.
func poolSizes() []*pipeline.Pool {
	return []*pipeline.Pool{pipeline.NewPool(1), pipeline.NewPool(4), pipeline.NewPool(runtime.NumCPU())}
}

// TestTrainBatchWorkersDeterministic pins the tentpole invariant: the loss
// history and every trained weight are bit-identical serially and on pools
// of 1, 4, and NumCPU workers, because the shard partition and
// gradient-reduction order depend only on the batch's row count.
func TestTrainBatchWorkersDeterministic(t *testing.T) {
	train := func(pool *pipeline.Pool) ([]float64, []float64) {
		rng := rand.New(rand.NewSource(99))
		ae, err := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		x, tg := randomBatch(rand.New(rand.NewSource(100)), testSpecs(), 300)
		opt := NewAdam(0.01)
		var losses []float64
		for i := 0; i < 25; i++ {
			losses = append(losses, ae.TrainBatch(x, tg, opt, pool))
		}
		return losses, flattenParams(ae)
	}
	baseLosses, baseW := train(nil)
	for _, pool := range poolSizes() {
		losses, w := train(pool)
		if !bitsEqual(losses, baseLosses) {
			t.Errorf("loss history on a pool of %d differs from serial", pool.Size())
		}
		if !bitsEqual(w, baseW) {
			t.Errorf("trained weights on a pool of %d differ from serial", pool.Size())
		}
	}
}

// TestMoETrainWorkersDeterministic extends the invariant through the full
// MoE training loop (gate, assignment, per-expert batches).
func TestMoETrainWorkersDeterministic(t *testing.T) {
	train := func(pool *pipeline.Pool) ([]float64, []float64) {
		rng := rand.New(rand.NewSource(101))
		moe, err := NewMoE(rng, testSpecs(), Config{CodeSize: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		x, tg := randomBatch(rand.New(rand.NewSource(102)), testSpecs(), 400)
		hist := moe.Train(rng, x, tg, TrainOptions{Epochs: 4, BatchSize: 128, Pool: pool})
		var w []float64
		for _, e := range moe.Experts {
			w = append(w, flattenParams(e)...)
		}
		for _, l := range moe.Gate {
			w = append(w, l.W.Data...)
			w = append(w, l.B...)
		}
		return hist, w
	}
	baseHist, baseW := train(nil)
	for _, pool := range poolSizes() {
		hist, w := train(pool)
		if !bitsEqual(hist, baseHist) {
			t.Errorf("MoE loss history on a pool of %d differs from serial", pool.Size())
		}
		if !bitsEqual(w, baseW) {
			t.Errorf("MoE weights on a pool of %d differ from serial", pool.Size())
		}
	}
}

// TestTrainBatchMatchesAccumulatedShards checks the data-parallel step is the
// exact fixed-partition computation it claims: loss equals the invB-scaled
// shard losses reduced by the documented tree, and a second model trained
// identically stays bit-identical (regression guard for hidden global state).
func TestTrainBatchRepeatable(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(103))
		ae, _ := NewAutoencoder(rng, testSpecs(), Config{CodeSize: 2})
		x, tg := randomBatch(rand.New(rand.NewSource(104)), testSpecs(), 100)
		opt := NewAdam(0.01)
		for i := 0; i < 10; i++ {
			ae.TrainBatch(x, tg, opt, nil)
		}
		return flattenParams(ae)
	}
	if !bitsEqual(run(), run()) {
		t.Fatal("two identical training runs diverged")
	}
}

func BenchmarkTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	specs := testSpecs()
	ae, _ := NewAutoencoder(rng, specs, Config{CodeSize: 4})
	x, tg := randomBatch(rng, specs, 256)
	opt := NewAdam(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ae.TrainBatch(x, tg, opt, nil)
	}
}

func BenchmarkTrainBatchPool(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	specs := testSpecs()
	ae, _ := NewAutoencoder(rng, specs, Config{CodeSize: 4})
	x, tg := randomBatch(rng, specs, 256)
	opt := NewAdam(0.01)
	pool := pipeline.NewPool(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ae.TrainBatch(x, tg, opt, pool)
	}
}

// BenchmarkTrainEpoch measures a full epoch over 4096 rows in 256-row
// minibatches — the shape of the compressor's dominant training stage.
func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	specs := testSpecs()
	ae, _ := NewAutoencoder(rng, specs, Config{CodeSize: 4})
	const rows, batch = 4096, 256
	x, tg := randomBatch(rng, specs, rows)
	opt := NewAdam(0.01)
	pool := pipeline.NewPool(0)
	bx := make([]mat.Matrix, 0, rows/batch)
	bnum := make([]mat.Matrix, 0, rows/batch)
	bbin := make([]mat.Matrix, 0, rows/batch)
	btg := make([]Targets, 0, rows/batch)
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		bx = append(bx, x.SliceRows(lo, hi))
		bnum = append(bnum, tg.Num.SliceRows(lo, hi))
		bbin = append(bbin, tg.Bin.SliceRows(lo, hi))
		cat := make([][]int, len(tg.Cat))
		for j, col := range tg.Cat {
			cat[j] = col[lo:hi]
		}
		k := len(bnum) - 1
		btg = append(btg, Targets{Num: &bnum[k], Bin: &bbin[k], Cat: cat})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := range bx {
			ae.TrainBatch(&bx[k], &btg[k], opt, pool)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	specs := testSpecs()
	ae, _ := NewAutoencoder(rng, specs, Config{CodeSize: 4})
	x, _ := randomBatch(rng, specs, 256)
	codes := ae.Encode(x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ae.Decoder.Predict(codes)
	}
}
