package nn

import (
	"fmt"
	"math"
	"math/rand"

	"deepsqueeze/internal/mat"
)

// OutputKind classifies how the autoencoder predicts one column.
type OutputKind byte

const (
	// OutNumeric regresses a [0,1] value with MSE (quantized numeric and
	// value-dictionary columns).
	OutNumeric OutputKind = iota
	// OutBinary predicts a single probability with binary cross-entropy
	// (paper §5.3).
	OutBinary
	// OutCategorical predicts a distribution over Card values through the
	// shared parameter-sharing output layer with softmax cross-entropy.
	OutCategorical
)

// ColSpec describes one model column.
type ColSpec struct {
	Kind OutputKind
	Card int // OutCategorical: softmax width (≥1); others ignored
}

// Predictions holds the decoder outputs for a batch.
type Predictions struct {
	// Num holds sigmoid outputs in [0,1] for OutNumeric columns, batch
	// rows × numeric column position.
	Num *mat.Matrix
	// Bin holds probabilities for OutBinary columns.
	Bin *mat.Matrix
	// Cat holds one batch×Card softmax matrix per OutCategorical column.
	Cat []*mat.Matrix
}

// Targets holds training targets in the same layout as Predictions. Cat
// entries of -1 mark rare values masked out of the loss (paper §4.1).
type Targets struct {
	Num *mat.Matrix
	Bin *mat.Matrix
	Cat [][]int
}

// Decoder is the half of the autoencoder that survives into the archive:
// hidden stack from codes, a sigmoid head for numeric and binary columns,
// and the auxiliary + shared output layers for categorical columns
// (paper Fig. 3).
type Decoder struct {
	Specs    []ColSpec
	CodeSize int
	Hidden   []*Dense // code → hidden (ReLU)
	HeadNum  *Dense   // hidden → #numeric+#binary, Identity (sigmoid applied manually)
	Aux      *Dense   // hidden → #categorical, Tanh
	// SharedHidden and Shared form the parameter-shared categorical output
	// stack: the auxiliary activations plus the signal node pass through a
	// small shared hidden layer and then the shared output layer sized by
	// the largest column cardinality. The hidden layer gives the stack the
	// capacity to decode (auxiliary value, signal) pairs into per-column
	// distributions; a purely linear shared layer cannot separate columns.
	SharedHidden *Dense // #categorical+1 → sharedWidth, ReLU
	Shared       *Dense // sharedWidth → maxCard, Identity (softmax applied per column)

	numPos, binPos, catPos []int // spec index → head position, -1 if other kind
	numCols, binCols       int
	catCols, maxCard       int
	cardOf                 []int // categorical position → cardinality

	sf *sharedFactor // SharedHidden cut for the factored stack; set by pack
}

// indexSpecs fills the position maps from Specs.
func (d *Decoder) indexSpecs() error {
	n := len(d.Specs)
	d.numPos = make([]int, n)
	d.binPos = make([]int, n)
	d.catPos = make([]int, n)
	d.numCols, d.binCols, d.catCols, d.maxCard = 0, 0, 0, 0
	for i, s := range d.Specs {
		d.numPos[i], d.binPos[i], d.catPos[i] = -1, -1, -1
		switch s.Kind {
		case OutNumeric:
			d.numPos[i] = d.numCols
			d.numCols++
		case OutBinary:
			d.binPos[i] = d.binCols
			d.binCols++
		case OutCategorical:
			if s.Card < 1 {
				return fmt.Errorf("nn: categorical spec %d has card %d", i, s.Card)
			}
			d.catPos[i] = d.catCols
			d.catCols++
			if s.Card > d.maxCard {
				d.maxCard = s.Card
			}
		default:
			return fmt.Errorf("nn: unknown output kind %d", s.Kind)
		}
	}
	d.cardOf = make([]int, d.catCols)
	for i, s := range d.Specs {
		if j := d.catPos[i]; j >= 0 {
			d.cardOf[j] = s.Card
		}
	}
	return nil
}

// NumPos returns the numeric-head position of spec i, or -1.
func (d *Decoder) NumPos(i int) int { return d.numPos[i] }

// BinPos returns the binary-head position of spec i, or -1.
func (d *Decoder) BinPos(i int) int { return d.binPos[i] }

// CatPos returns the categorical position of spec i, or -1.
func (d *Decoder) CatPos(i int) int { return d.catPos[i] }

// sharedWidth returns the input width of the shared stack: the auxiliary
// activations plus the signal block.
//
// The paper's Fig. 3 describes a single signal node carrying the column
// index. A scalar signal forces the shared stack to multiplex every
// column's decoding through one input dimension, which trains very poorly
// once tables have tens of categorical columns (gradient interference —
// measured directly in this package's diagnostics). We therefore widen the
// signal to a one-hot block, one node per categorical column: the stack is
// still fully parameter-shared and still sized by the largest cardinality
// rather than the sum of cardinalities (the paper's goal), but each column
// can now learn its own interpretation of the auxiliary values.
func (d *Decoder) sharedWidth() int { return 2 * d.catCols }

// Predict decodes a batch of codes into per-column predictions without
// touching training caches. This is the exact computation decompression
// replays.
func (d *Decoder) Predict(codes *mat.Matrix) *Predictions {
	return d.PredictCols(codes, nil)
}

// PredictCols is PredictInto for callers that keep no scratch. A decoder
// whose weights are not final yet (never packed: a model still training)
// predicts through a replica packed for this one call.
func (d *Decoder) PredictCols(codes *mat.Matrix, want []bool) *Predictions {
	if d.SharedHidden != nil && d.sf == nil {
		d = d.replica()
		d.pack()
	}
	return d.PredictInto(new(Scratch), codes, want)
}

// wanted resolves a want mask (indexed by spec position, nil selecting
// everything) into what inference has to evaluate: whether the combined
// numeric/binary head runs, and the categorical positions to put through the
// shared stack, ascending, appended to cats[:0].
func (d *Decoder) wanted(want []bool, cats []int) (numBin bool, _ []int) {
	cats = cats[:0]
	for i, s := range d.Specs {
		if want != nil && (i >= len(want) || !want[i]) {
			continue
		}
		if s.Kind == OutCategorical {
			cats = append(cats, d.catPos[i])
		} else {
			numBin = true
		}
	}
	return numBin, cats
}

// Scratch is the memory inference runs in, owned by the caller and reused
// call after call: arenas for the intermediates and outputs, one reused
// Predictions, the want mask's categorical positions. It holds no weights and
// no projection, so one scratch serves any want mask at either width; arena
// slots only grow, so once a scratch has run a batch as large, a call
// allocates nothing. One goroutine at a time, and each call invalidates the
// Predictions the previous one returned.
type Scratch struct {
	ar   mat.Arena
	ar32 mat.Arena32
	p    Predictions
	cats []int
}

// begin rewinds the scratch for a pass over d and resolves want into s.cats.
func (s *Scratch) begin(d *Decoder, want []bool) (p *Predictions, numBin bool) {
	s.ar.Reset()
	s.ar32.Reset()
	if cap(s.p.Cat) < d.catCols {
		s.p.Cat = make([]*mat.Matrix, d.catCols)
	}
	s.p.Cat = s.p.Cat[:d.catCols]
	clear(s.p.Cat)
	numBin, s.cats = d.wanted(want, s.cats)
	return &s.p, numBin
}

// PredictInto decodes a batch of codes in s, restricted to a subset of spec
// columns: want is indexed by spec position, and nil selects everything. The
// numeric/binary head is one matmul for all such columns, so it runs whenever
// at least one of them is wanted and is skipped entirely otherwise. The
// shared categorical stack is evaluated only for wanted categorical columns;
// Cat entries of skipped columns stay nil. Per-row outputs are identical to a
// full Predict because every layer computes row-independently. The weights
// are read as pack left them (DecodeDecoder and Quantize32 pack), so d is
// safe for any number of concurrent calls, each with a scratch of its own.
//
// The shared stack's input for column j is [aux | one-hot(j)], but no such
// row is ever built: SharedHidden's pre-activation splits into aux·W_auxᵀ,
// computed once per batch, plus column j's signal weights and the bias, and
// the result is bit-identical to multiplying through the zeros (DESIGN.md
// §12). Shared then runs over the first cardOf[j] of its outputs only.
func (d *Decoder) PredictInto(s *Scratch, codes *mat.Matrix, want []bool) *Predictions {
	if codes.Cols != d.CodeSize {
		panic(fmt.Sprintf("nn: predict with %d-wide codes, want %d", codes.Cols, d.CodeSize))
	}
	p, numBin := s.begin(d, want)
	ar, b := &s.ar, codes.Rows
	h := codes
	for _, l := range d.Hidden {
		h = l.infer(ar, h)
	}
	if numBin && d.numCols+d.binCols > 0 {
		p.Num, p.Bin = ar.GetUncleared(b, d.numCols), ar.GetUncleared(b, d.binCols)
		sigmoidHead(d.HeadNum.infer(ar, h).Data, p.Num, p.Bin)
	} else {
		p.Num, p.Bin = ar.Get(b, 0), ar.Get(b, 0)
	}
	if len(s.cats) > 0 {
		sh, shared := d.SharedHidden, d.Shared
		aux := mat.MulTPackedInto(d.Aux.infer(ar, h), &d.sf.pack, ar.GetUncleared(b, sh.Out), true)
		hid := ar.GetUncleared(b, sh.Out)
		for _, j := range s.cats {
			sh.signalHidden(aux, d.sf.signal.Row(j), hid)
			// The column's cardinality is a prefix of Shared's outputs.
			// Serial: one column's product is too small for the pool's
			// fan-out to pay for itself.
			probs := mat.MulTPackedInto(hid, shared.pack, ar.GetUncleared(b, d.cardOf[j]), false)
			if shared.Act == Identity { // as every writer builds it
				biasSoftmax(probs, probs.Cols, shared.B[:probs.Cols])
			} else {
				shared.biasAct(probs)
				Softmax(probs, probs.Cols)
			}
			p.Cat[j] = probs
		}
	}
	return p
}

// pack packs the weights inference reads, into storage the decoder keeps and
// reuses when it packs again: every layer but SharedHidden, and SharedHidden
// cut the way the factored stack reads it. Called once the weights are final
// (DESIGN.md §12), and on every call by a holder of weights that still move.
func (d *Decoder) pack() {
	for _, l := range d.Layers() {
		if l == d.SharedHidden {
			continue
		}
		if l.pack == nil {
			l.pack = new(mat.Packed)
		}
		l.pack.Pack(l.W)
	}
	if d.SharedHidden != nil {
		if d.sf == nil {
			d.sf = new(sharedFactor)
		}
		d.sf.refresh(d.SharedHidden, d.catCols)
	}
}

// sharedFactor is a copy of SharedHidden's weights cut the way the factored
// shared stack reads them (DESIGN.md §12), refreshed by its holder when they
// move: the auxiliary block contiguous, and packed; the signal block transposed.
type sharedFactor struct {
	wAux   *mat.Matrix // Out × catCols
	pack   mat.Packed  // wAux, packed
	signal *mat.Matrix // catCols × Out
}

func (f *sharedFactor) refresh(sh *Dense, catCols int) {
	if f.wAux == nil {
		f.wAux, f.signal = mat.New(sh.Out, catCols), mat.New(catCols, sh.Out)
	}
	for o := 0; o < sh.Out; o++ {
		copy(f.wAux.Row(o), sh.W.Row(o)[:catCols])
	}
	f.pack.Pack(f.wAux)
	signalRows(sh.W.Data, sh.In, sh.Out, catCols, f.signal.Data)
}

// signalRows transposes the signal block of SharedHidden's out×in weights w,
// its inputs from catCols on, into dst: column j's weights, a stride-in gather
// in w, become row j — gathered once for all the rows signalHidden adds them to.
func signalRows[T float32 | float64](w []T, in, out, catCols int, dst []T) {
	for o := 0; o < out; o++ {
		for j, v := range w[o*in+catCols : (o+1)*in] {
			dst[j*out+o] = v
		}
	}
}

// signalHidden derives one column's activations of the layer — SharedHidden
// — from s, the batch's product with the auxiliary weights: w, the layer's
// weights on the column's signal node, and the bias are added as
// hid = act((s + w) + bias), the order in which the stacked product and
// biasAct add the three. ReLU, which every written archive carries here, is
// fused into the one pass (mat.AddAddReLU).
func (d *Dense) signalHidden(s *mat.Matrix, w []float64, hid *mat.Matrix) {
	n := d.Out
	w, bias := w[:n], d.B[:n]
	fused := d.Act == ReLU
	for r := 0; r < s.Rows; r++ {
		sr, hr := s.Row(r)[:n], hid.Row(r)[:n]
		if fused {
			mat.AddAddReLU(hr, sr, w, bias)
			continue
		}
		for o, v := range sr {
			hr[o] = (v + w[o]) + bias[o]
		}
	}
	if !fused {
		d.Act.apply(hid)
	}
}

// sigmoidHead writes the sigmoid of the combined numeric+binary head's
// logits (row-major; numeric columns first, then binary) into num and bin.
// Float32 logits widen first, so both precisions evaluate the same
// exponential.
func sigmoidHead[T float32 | float64](logits []T, num, bin *mat.Matrix) {
	nc, w := num.Cols, num.Cols+bin.Cols
	for r := 0; r < num.Rows; r++ {
		row := logits[r*w : (r+1)*w]
		for c, v := range row[:nc] {
			num.Data[r*nc+c] = float64(v)
		}
		for c, v := range row[nc:] {
			bin.Data[r*bin.Cols+c] = float64(v)
		}
	}
	sigmoid(num.Data)
	sigmoid(bin.Data)
}

// Layers returns every parameterized layer of the decoder.
func (d *Decoder) Layers() []*Dense {
	out := append([]*Dense{}, d.Hidden...)
	if d.HeadNum != nil {
		out = append(out, d.HeadNum)
	}
	if d.Aux != nil {
		out = append(out, d.Aux)
	}
	if d.SharedHidden != nil {
		out = append(out, d.SharedHidden)
	}
	if d.Shared != nil {
		out = append(out, d.Shared)
	}
	return out
}

// Quantize32 rounds all decoder parameters to float32 precision — the values
// an archive stores, final from here on — and packs them for inference.
func (d *Decoder) Quantize32() {
	for _, l := range d.Layers() {
		l.Quantize32()
	}
	d.pack()
}

// ParamCount returns the number of scalar parameters in the decoder.
func (d *Decoder) ParamCount() int {
	n := 0
	for _, l := range d.Layers() {
		n += l.ParamCount()
	}
	return n
}

// Autoencoder is the full model: encoder stack producing codes plus the
// decoder above (paper Fig. 2).
type Autoencoder struct {
	Decoder
	Encoder []*Dense // input → hidden (ReLU) → code (Sigmoid)

	tr   *trainer // lazily built shard trainer (train.go); nil until first TrainBatch
	cuts []*Dense // Shared cut to each categorical column's cardinality (sharedStep); nil until first use
}

// Config controls autoencoder construction.
type Config struct {
	CodeSize   int
	HiddenMult int // hidden width = HiddenMult × #columns (paper uses 2)
	// SingleLayerLinear builds the paper's Fig. 7 baseline: one linear
	// encoder layer straight to the code and one linear decoder layer, no
	// hidden nonlinearity.
	SingleLayerLinear bool
}

// NewAutoencoder builds a model for the given column specs.
func NewAutoencoder(rng *rand.Rand, specs []ColSpec, cfg Config) (*Autoencoder, error) {
	n := len(specs)
	if n == 0 {
		return nil, fmt.Errorf("nn: no model columns")
	}
	if cfg.CodeSize < 1 {
		return nil, fmt.Errorf("nn: code size %d", cfg.CodeSize)
	}
	if cfg.HiddenMult < 1 {
		cfg.HiddenMult = 2
	}
	hidden := cfg.HiddenMult * n
	a := &Autoencoder{}
	a.Specs = append([]ColSpec{}, specs...)
	a.CodeSize = cfg.CodeSize
	if err := a.indexSpecs(); err != nil {
		return nil, err
	}
	if cfg.SingleLayerLinear {
		a.Encoder = []*Dense{NewDense(rng, n, cfg.CodeSize, Sigmoid)}
		a.Hidden = []*Dense{NewDense(rng, cfg.CodeSize, hidden, Identity)}
	} else {
		a.Encoder = []*Dense{
			NewDense(rng, n, hidden, ReLU),
			NewDense(rng, hidden, cfg.CodeSize, Sigmoid),
		}
		a.Hidden = []*Dense{NewDense(rng, cfg.CodeSize, hidden, ReLU)}
	}
	if a.numCols+a.binCols > 0 {
		a.HeadNum = NewDense(rng, hidden, a.numCols+a.binCols, Identity)
	}
	if a.catCols > 0 {
		a.Aux = NewDense(rng, hidden, a.catCols, Tanh)
		// Width scales with both the shared alphabet and the number of
		// columns multiplexed through the stack (the signal node selects
		// among catCols different decodings), capped: past ~128 units the
		// extra capacity stops paying for its compute and its contribution
		// to decoder size.
		sw := 2 * a.maxCard
		if 2*a.catCols > sw {
			sw = 2 * a.catCols
		}
		if sw < 16 {
			sw = 16
		}
		if sw > 128 {
			sw = 128
		}
		a.SharedHidden = NewDense(rng, a.sharedWidth(), sw, ReLU)
		a.Shared = NewDense(rng, sw, a.maxCard, Identity)
	}
	return a, nil
}

// AllLayers returns every parameterized layer (encoder + decoder).
func (a *Autoencoder) AllLayers() []*Dense {
	return append(append([]*Dense{}, a.Encoder...), a.Decoder.Layers()...)
}

// Encode maps inputs (batch × #columns) to codes without caching.
func (a *Autoencoder) Encode(x *mat.Matrix) *mat.Matrix {
	h := x
	for _, l := range a.Encoder {
		h = l.Infer(h)
	}
	return h
}

// accumBatch runs one forward/backward pass over x, adding this batch's
// gradient contribution into the layer accumulators without clipping or
// applying the optimizer. Every loss and gradient term is scaled by invB,
// the reciprocal of the full minibatch size — x may be one shard of a larger
// batch. Scratch matrices come from ar (nil allocates fresh); after warmup
// an arena-backed pass allocates nothing. Returns the invB-scaled loss sum.
func (a *Autoencoder) accumBatch(ar *mat.Arena, f *sharedFactor, x *mat.Matrix, tg *Targets, invB float64) float64 {
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
		y := ar.GetUncleared(z.Rows, z.Cols)
		copy(y.Data, z.Data)
		sigmoid(y.Data)
		// Gradient w.r.t. pre-activation z (HeadNum uses Identity); every
		// column is written below.
		gz := ar.GetUncleared(z.Rows, z.Cols)
		for r := 0; r < z.Rows; r++ {
			yr, gr := y.Row(r), gz.Row(r)
			for c := 0; c < a.numCols; c++ {
				t := tg.Num.At(r, c)
				diff := yr[c] - t
				loss += float64(diff * diff * invB)
				gr[c] = 2 * diff * yr[c] * (1 - yr[c]) * invB
			}
			for c := 0; c < a.binCols; c++ {
				t := tg.Bin.At(r, c)
				p := yr[a.numCols+c]
				loss += float64(bce(p, t) * invB)
				gr[a.numCols+c] = (p - t) * invB
			}
		}
		mat.AddInPlace(dH, a.HeadNum.backward(ar, gz))
	}

	if a.Aux != nil {
		dAux, catLoss := a.sharedStep(ar, f, a.Aux.forward(ar, h), tg.Cat, invB)
		loss += catLoss
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

// sharedStep runs one shard's categorical columns through the shared output
// stack, forward and backward, and returns ∂L/∂aux with the invB-scaled loss.
// Column j's input is [aux | one-hot(j)], which is never built (DESIGN.md
// §12): as in PredictInto, SharedHidden's pre-activation is aux·W_auxᵀ, computed
// once, plus the column's signal weights and the bias, and Shared is cut to
// the column's cardinality. Backward, the columns' hidden gradients are summed
// into d before they meet aux, so W_aux's gradient and ∂L/∂aux take one
// product each. Every sum runs in column, then row order over the shard's
// rows alone.
func (a *Autoencoder) sharedStep(ar *mat.Arena, f *sharedFactor, aux *mat.Matrix, targets [][]int, invB float64) (*mat.Matrix, float64) {
	sh, cc, rows := a.SharedHidden, a.catCols, aux.Rows
	if a.cuts == nil {
		for _, card := range a.cardOf {
			a.cuts = append(a.cuts, a.Shared.firstOutputsTrain(card))
		}
	}
	// Scratch every element of which a product, signalHidden or a copy writes
	// is served uncleared; the sums d and sum start from zero.
	s := mat.MulTPackedInto(aux, &f.pack, ar.GetUncleared(rows, sh.Out), false)
	hid, d, sum := ar.GetUncleared(rows, sh.Out), ar.Get(rows, sh.Out), ar.Get(1, sh.Out).Data
	var loss float64
	for j, cut := range a.cuts {
		sh.signalHidden(s, f.signal.Row(j), hid)
		g := ar.GetUncleared(rows, cut.Out)
		copy(g.Data, cut.forward(ar, hid).Data)
		loss += softmaxGrad(g, targets[j], invB)
		dj := cut.backward(ar, g)
		sh.Act.backprop(dj, hid)
		foldColumn(dj.Data, d.Data, sum, sh.GradW.Data[cc+j:], sh.In, sh.GradB)
	}
	gAux := mat.TMulInto(d, aux, ar.GetUncleared(sh.Out, cc))
	for o := 0; o < sh.Out; o++ {
		gw := sh.GradW.Row(o)
		for c, v := range gAux.Row(o) {
			gw[c] += v
		}
	}
	return mat.MulInto(d, f.wAux, ar.GetUncleared(rows, cc)), loss
}

// foldColumn adds one column's hidden gradients dj (rows of len(sum) units)
// into the columns' running sum d, and dj's column sums — the gradient of the
// column's signal weights, whose input is the constant 1, and its share of
// the bias's — into gradB and into signalW, unit o's weight at o·stride.
func foldColumn(dj, d, sum, signalW []float64, stride int, gradB []float64) {
	clear(sum)
	for n := len(sum); len(dj) > 0; dj, d = dj[n:], d[n:] {
		mat.AddToBoth(d[:n], sum, dj[:n])
	}
	for o, v := range sum {
		signalW[o*stride] += v
		gradB[o] += v
	}
}

// softmaxGrad turns one column's logits into the cross-entropy gradient
// (p − onehot)·invB in place, all zero in a row whose target is masked (a
// rare value, paper §4.1), and returns the invB-scaled loss sum.
func softmaxGrad(g *mat.Matrix, target []int, invB float64) float64 {
	Softmax(g, g.Cols)
	var loss float64
	for r, cls := range target {
		gr := g.Row(r)
		if cls < 0 || cls >= len(gr) {
			clear(gr)
			continue
		}
		loss += float64(-math.Log(math.Max(gr[cls], 1e-12)) * invB)
		for c := range gr {
			gr[c] *= invB
		}
		gr[cls] -= invB
	}
	return loss
}

// scorer computes each tuple's reconstruction loss (summed over columns)
// under one model without training it — what the mixture-of-experts
// assignment ranks experts by — holding across batches the encoder scratch,
// the inference scratch, and a replica of the decoder whose packed copy of the
// weights it brings up to date on every call: the model may have trained on
// in between. One goroutine at a time.
type scorer struct {
	a   *Autoencoder
	ar  mat.Arena
	dec *Decoder // a's, through layers of its own (replica)
	s   Scratch
}

func (s *scorer) losses(x *mat.Matrix, tg *Targets) []float64 {
	a, out := s.a, make([]float64, x.Rows)
	if x.Rows == 0 {
		return out
	}
	if s.dec == nil {
		s.dec = a.Decoder.replica()
	}
	s.dec.pack()
	s.ar.Reset()
	h := x
	for _, l := range a.Encoder {
		h = l.infer(&s.ar, h)
	}
	p := s.dec.PredictInto(&s.s, h, nil)
	for r := range out {
		var l float64
		for c := 0; c < a.numCols; c++ {
			diff := p.Num.At(r, c) - tg.Num.At(r, c)
			l += float64(diff * diff)
		}
		for c := 0; c < a.binCols; c++ {
			l += bce(p.Bin.At(r, c), tg.Bin.At(r, c))
		}
		for j := 0; j < a.catCols; j++ {
			cls := tg.Cat[j][r]
			if cls < 0 || cls >= p.Cat[j].Cols {
				continue
			}
			l += -math.Log(math.Max(p.Cat[j].At(r, cls), 1e-12))
		}
		out[r] = l
	}
	return out
}

// bce is binary cross-entropy with clamped probabilities.
func bce(p, t float64) float64 {
	p = math.Min(math.Max(p, 1e-12), 1-1e-12)
	return -(float64(t*math.Log(p)) + float64((1-t)*math.Log(1-p)))
}
