package nn

import (
	"fmt"
	"math"
	"math/rand"

	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/pipeline"
)

// MoE is a sparsely-gated mixture of experts (paper §5.2): several small
// autoencoders specialize on disjoint subsets of the tuples, with a learned
// gate that routes tuples to experts during training. Assignments are
// hard (each tuple trains exactly one expert), matching the paper's
// description of the gate masking all but the chosen expert.
type MoE struct {
	Experts []*Autoencoder
	Gate    []*Dense // input → hidden (ReLU) → #experts logits; nil when 1 expert
}

// NewMoE builds numExperts independently-initialized autoencoders plus a
// gate network.
func NewMoE(rng *rand.Rand, specs []ColSpec, cfg Config, numExperts int) (*MoE, error) {
	if numExperts < 1 {
		return nil, fmt.Errorf("nn: %d experts", numExperts)
	}
	m := &MoE{Experts: make([]*Autoencoder, numExperts)}
	for i := range m.Experts {
		ae, err := NewAutoencoder(rng, specs, cfg)
		if err != nil {
			return nil, err
		}
		m.Experts[i] = ae
	}
	if numExperts > 1 {
		n := len(specs)
		gh := 2 * numExperts
		if gh < 4 {
			gh = 4
		}
		m.Gate = []*Dense{
			NewDense(rng, n, gh, ReLU),
			NewDense(rng, gh, numExperts, Identity),
		}
	}
	return m, nil
}

// gateLogits runs the gate without caching.
func (m *MoE) gateLogits(x *mat.Matrix) *mat.Matrix {
	h := x
	for _, l := range m.Gate {
		h = l.Infer(h)
	}
	return h
}

// GateAssign returns the gate's argmax expert per tuple — the routing a
// streaming client applies with only the encoder halves on hand.
func (m *MoE) GateAssign(x *mat.Matrix) []int {
	out := make([]int, x.Rows)
	if len(m.Experts) == 1 {
		return out
	}
	logits := m.gateLogits(x)
	for r := 0; r < x.Rows; r++ {
		row := logits.Row(r)
		best := 0
		for e, v := range row {
			if v > row[best] {
				best = e
			}
		}
		out[r] = best
	}
	return out
}

// Assign returns the loss-minimizing expert per tuple, which is what the
// compressor materializes (the stored mapping makes the gate unnecessary at
// decompression time).
func (m *MoE) Assign(x *mat.Matrix, tg *Targets) []int {
	out := make([]int, x.Rows)
	if len(m.Experts) == 1 {
		return out
	}
	best := make([]float64, x.Rows)
	for i := range best {
		best[i] = math.Inf(1)
	}
	// Scored a training batch's worth of rows at a time, so that a large
	// group costs one batch of scratch per expert, not one group of it.
	var rows shardState // used for its row views of x and tg only
	for e, exp := range m.Experts {
		sc := &scorer{a: exp}
		for lo := 0; lo < x.Rows; lo += defaultBatchSize {
			rows.view(x, tg, lo, min(lo+defaultBatchSize, x.Rows))
			for r, l := range sc.losses(&rows.x, &rows.tg) {
				if l < best[lo+r] {
					best[lo+r] = l
					out[lo+r] = e
				}
			}
		}
	}
	return out
}

// TrainOptions controls MoE training.
type TrainOptions struct {
	Epochs      int     // maximum epochs (default 30)
	BatchSize   int     // default 256
	LR          float64 // Adam learning rate (default 0.01)
	ConvergeEps float64 // stop when relative loss improvement < this for 2 epochs (default 0.002)
	Progress    func(epoch int, loss float64)
	// Stop, when non-nil, is polled between batches; training returns early
	// (with the history so far) once it reports true. The compression
	// pipeline wires this to its context so cancellation interrupts the
	// dominant training stage promptly rather than at the next epoch.
	Stop func() bool
	// Pool supplies the bounded worker pool minibatch shards run on
	// (data-parallel SGD, see train.go), letting training share one pool with
	// the rest of a compression run; nil trains serially. Loss histories and
	// trained weights are bit-identical for every pool, so it is purely a
	// throughput knob.
	Pool *pipeline.Pool
}

// defaultBatchSize is TrainOptions.BatchSize's default and Assign's stride.
const defaultBatchSize = 256

func (o *TrainOptions) defaults() {
	if o.Epochs <= 0 {
		o.Epochs = 30
	}
	if o.BatchSize <= 0 {
		o.BatchSize = defaultBatchSize
	}
	if o.LR <= 0 {
		o.LR = 0.01
	}
	if o.ConvergeEps <= 0 {
		o.ConvergeEps = 0.002
	}
}

// Train fits the mixture end-to-end (paper §5.3): per batch, every expert
// scores every tuple, each tuple trains its best expert (score = expert
// loss minus the gate's log-probability, i.e. the MAP assignment), and the
// gate is trained with cross-entropy toward the chosen assignment. Returns
// the per-epoch mean loss history.
func (m *MoE) Train(rng *rand.Rand, x *mat.Matrix, tg *Targets, opts TrainOptions) []float64 {
	opts.defaults()
	n := x.Rows
	if n == 0 {
		return nil
	}
	optims := make([]*Adam, len(m.Experts))
	for i := range optims {
		optims[i] = NewAdam(opts.LR)
	}
	var gateOpt *Adam
	if m.Gate != nil {
		gateOpt = NewAdam(opts.LR)
	}
	scorers := make([]*scorer, len(m.Experts))
	for i, e := range m.Experts {
		scorers[i] = &scorer{a: e}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var history []float64
	flat := 0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var tuples int
		for lo := 0; lo < n; lo += opts.BatchSize {
			if opts.Stop != nil && opts.Stop() {
				return history
			}
			hi := lo + opts.BatchSize
			if hi > n {
				hi = n
			}
			idx := order[lo:hi]
			bx := extractRows(x, idx)
			btg := extractTargets(tg, idx)
			epochLoss += m.trainBatch(bx, btg, optims, gateOpt, scorers, &opts) * float64(len(idx))
			tuples += len(idx)
		}
		epochLoss /= float64(tuples)
		history = append(history, epochLoss)
		if opts.Progress != nil {
			opts.Progress(epoch, epochLoss)
		}
		if epoch > 0 {
			prev := history[epoch-1]
			if prev-epochLoss < opts.ConvergeEps*math.Abs(prev) {
				flat++
				if flat >= 2 {
					break
				}
			} else {
				flat = 0
			}
		}
	}
	return history
}

// trainBatch trains one batch and returns its mean loss.
func (m *MoE) trainBatch(bx *mat.Matrix, btg *Targets, optims []*Adam, gateOpt *Adam, scorers []*scorer, opts *TrainOptions) float64 {
	if len(m.Experts) == 1 {
		return m.Experts[0].TrainBatch(bx, btg, optims[0], opts.Pool)
	}
	// Score every tuple under every expert; MAP assignment folds in the
	// gate's current belief so routing and gating co-adapt.
	logits := m.gateLogits(bx)
	logProbs := logits.Clone()
	Softmax(logProbs, logProbs.Cols)
	logProbs.Apply(func(p float64) float64 { return math.Log(math.Max(p, 1e-12)) })
	assign := make([]int, bx.Rows)
	bestScore := make([]float64, bx.Rows)
	for i := range bestScore {
		bestScore[i] = math.Inf(1)
	}
	for e, sc := range scorers {
		for r, l := range sc.losses(bx, btg) {
			score := l - logProbs.At(r, e)
			if score < bestScore[r] {
				bestScore[r] = score
				assign[r] = e
			}
		}
	}
	// Train each expert on its assigned tuples.
	var total float64
	for e, exp := range m.Experts {
		var idx []int
		for r, a := range assign {
			if a == e {
				idx = append(idx, r)
			}
		}
		if len(idx) == 0 {
			continue
		}
		sub := extractRows(bx, idx)
		stg := extractTargets(btg, idx)
		total += exp.TrainBatch(sub, stg, optims[e], opts.Pool) * float64(len(idx))
	}
	total /= float64(bx.Rows)
	// Train the gate toward the assignment with softmax cross-entropy.
	h := bx
	for _, l := range m.Gate {
		h = l.Forward(h)
	}
	probs := h.Clone()
	Softmax(probs, probs.Cols)
	grad := mat.New(h.Rows, h.Cols)
	b := float64(h.Rows)
	for r := 0; r < h.Rows; r++ {
		pr, gr := probs.Row(r), grad.Row(r)
		for c := range gr {
			gr[c] = pr[c] / b
		}
		gr[assign[r]] -= 1 / b
	}
	g := grad
	for i := len(m.Gate) - 1; i >= 0; i-- {
		g = m.Gate[i].Backward(g)
	}
	ClipGrads(m.Gate, 5)
	gateOpt.Step(m.Gate)
	return total
}

// Quantize32 rounds every expert decoder and the gate to float32 precision.
func (m *MoE) Quantize32() {
	for _, e := range m.Experts {
		e.Decoder.Quantize32()
		for _, l := range e.Encoder {
			l.Quantize32()
		}
	}
	for _, l := range m.Gate {
		l.Quantize32()
	}
}

// extractRows copies the given rows of x into a new matrix.
func extractRows(x *mat.Matrix, idx []int) *mat.Matrix {
	out := mat.New(len(idx), x.Cols)
	for i, r := range idx {
		copy(out.Row(i), x.Row(r))
	}
	return out
}

// extractTargets copies the given rows of every target component.
func extractTargets(tg *Targets, idx []int) *Targets {
	out := &Targets{}
	if tg.Num != nil {
		out.Num = extractRows(tg.Num, idx)
	}
	if tg.Bin != nil {
		out.Bin = extractRows(tg.Bin, idx)
	}
	out.Cat = make([][]int, len(tg.Cat))
	for j, col := range tg.Cat {
		sub := make([]int, len(idx))
		for i, r := range idx {
			sub[i] = col[r]
		}
		out.Cat[j] = sub
	}
	return out
}
