package nn

import (
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/pipeline"
)

// Deterministic data-parallel training (DESIGN.md §12).
//
// Every minibatch is split into a fixed shard partition that depends only on
// the batch's row count — never on the worker count — and each shard runs a
// full forward/backward pass on its own model replica (shared weights,
// private gradients, private scratch arena). Gradients and losses are then
// combined by a fixed binary-tree reduction and the optimizer steps once.
// Because both the partition and the reduction order are functions of the
// row count alone, the floating-point summation order is identical whether
// the shards ran on one goroutine or sixteen: loss curves and archives are
// bit-identical at every pool size, a nil pool (serial) included.

const (
	// maxShards caps the partition width; it bounds replica memory and is
	// comfortably past the core counts this CPU trainer targets.
	maxShards = 16
	// minShardRows keeps shards from degenerating below the width where the
	// blocked kernels amortize their setup.
	minShardRows = 8
)

// numShards returns the partition width for a batch of the given row count.
// It is a pure function of rows so the training math never depends on the
// machine or the worker count.
func numShards(rows int) int {
	ns := (rows + minShardRows - 1) / minShardRows
	if ns > maxShards {
		ns = maxShards
	}
	if ns < 1 {
		ns = 1
	}
	return ns
}

// shardState is one shard's private training state, reused across batches.
// The matrix and target headers are persistent so re-viewing a new batch's
// rows allocates nothing.
type shardState struct {
	rep      *Autoencoder // shares the primary model's weights (shard 0: its gradients too)
	layers   []*Dense     // rep.AllLayers(), cached
	ar       *mat.Arena
	x        mat.Matrix // row view into the current batch
	num, bin mat.Matrix // row views into the current targets
	cat      [][]int    // per-column row subslices, outer slice reused
	tg       Targets
	loss     float64
}

// trainer owns an autoencoder's shard replicas. It is built lazily and
// cached on the model, so repeated TrainBatch calls reuse replicas, arenas,
// and layer slices.
type trainer struct {
	model  *Autoencoder
	layers []*Dense     // model.AllLayers(), cached for clip + step
	packs  []mat.Packed // per-batch packed weights, parallel to layers
	sf     sharedFactor // per-batch factored SharedHidden (sharedStep)
	shards []*shardState
}

// trainer returns the model's cached shard trainer, building it on first use.
func (a *Autoencoder) trainer() *trainer {
	if a.tr == nil {
		layers := a.AllLayers()
		a.tr = &trainer{model: a, layers: layers, packs: make([]mat.Packed, len(layers))}
	}
	return a.tr
}

// TrainBatch runs one forward/backward pass on a batch and applies the
// optimizer, the batch's shards running concurrently on pool (nil, like a
// pool of one, trains serially). Returns the batch's mean loss (summed over
// columns). The loss — and every weight after the optimizer step — is
// bit-identical for any pool, because the shard partition and reduction order
// depend only on x.Rows.
func (a *Autoencoder) TrainBatch(x *mat.Matrix, tg *Targets, opt Optimizer, pool *pipeline.Pool) float64 {
	return a.trainer().train(x, tg, opt, pool)
}

// replica returns a model sharing a's parameters — every Dense W and B
// aliases the primary's memory — with private forward caches (see
// Dense.replica). Optimizer steps on the primary are instantly visible to
// every replica; replicas are never stepped themselves.
func (a *Autoencoder) replica() *Autoencoder {
	return &Autoencoder{Decoder: *a.Decoder.replica(), Encoder: replicaLayers(a.Encoder)}
}

// replica returns a decoder sharing d's specs, position indexes and
// parameters through layers of its own (Dense.replica), unpacked.
func (d *Decoder) replica() *Decoder {
	r := *d
	r.sf = nil
	r.Hidden = replicaLayers(d.Hidden)
	r.HeadNum, r.Aux, r.SharedHidden, r.Shared = d.HeadNum.replica(), d.Aux.replica(), d.SharedHidden.replica(), d.Shared.replica()
	return &r
}

func replicaLayers(ls []*Dense) []*Dense {
	out := make([]*Dense, len(ls))
	for i, l := range ls {
		out[i] = l.replica()
	}
	return out
}

// ensure grows the shard list to ns entries, every shard a replica reading the
// trainer's packed weights. Shard 0's accumulate into the primary model's
// gradients, where the optimizer (and any state keyed on its layers) looks;
// every other shard's into accumulators of its own.
func (t *trainer) ensure(ns int) {
	for len(t.shards) < ns {
		s := &shardState{ar: &mat.Arena{}, rep: t.model.replica()}
		s.layers = s.rep.AllLayers()
		for i, l := range s.layers {
			l.pack = &t.packs[i]
			if len(t.shards) == 0 {
				l.GradW, l.GradB = t.layers[i].GradW, t.layers[i].GradB
			} else {
				l.GradW, l.GradB = mat.New(l.Out, l.In), make([]float64, l.Out)
			}
		}
		t.shards = append(t.shards, s)
	}
}

// view points the shard's persistent headers at rows [lo, hi) of the batch.
func (s *shardState) view(x *mat.Matrix, tg *Targets, lo, hi int) {
	s.x = x.SliceRows(lo, hi)
	s.tg.Num, s.tg.Bin = nil, nil
	if tg.Num != nil {
		s.num = tg.Num.SliceRows(lo, hi)
		s.tg.Num = &s.num
	}
	if tg.Bin != nil {
		s.bin = tg.Bin.SliceRows(lo, hi)
		s.tg.Bin = &s.bin
	}
	if cap(s.cat) < len(tg.Cat) {
		s.cat = make([][]int, len(tg.Cat))
	}
	s.cat = s.cat[:len(tg.Cat)]
	for j, col := range tg.Cat {
		s.cat[j] = col[lo:hi]
	}
	s.tg.Cat = s.cat
}

// train runs one data-parallel training step: shard, accumulate, reduce,
// clip, apply the optimizer once. Returns the batch's mean loss.
func (t *trainer) train(x *mat.Matrix, tg *Targets, opt Optimizer, pool *pipeline.Pool) float64 {
	rows := x.Rows
	if rows == 0 {
		return 0
	}
	ns := numShards(rows)
	t.ensure(ns)
	// The optimizer step that ends a batch outdates these.
	for i, l := range t.layers {
		t.packs[i].Pack(l.W)
	}
	if sh := t.model.SharedHidden; sh != nil {
		t.sf.refresh(sh, t.model.catCols)
	}
	shardRows := (rows + ns - 1) / ns
	invB := 1 / float64(rows)
	run := func(i int) {
		s := t.shards[i]
		lo := i * shardRows
		hi := lo + shardRows
		if hi > rows {
			hi = rows
		}
		if hi <= lo {
			s.loss = 0 // empty tail shard: grads are already zero
			return
		}
		s.ar.Reset()
		s.view(x, tg, lo, hi)
		s.loss = s.rep.accumBatch(s.ar, &t.sf, &s.x, &s.tg, invB)
	}
	if pool != nil && pool.Size() > 1 && ns > 1 { // a pool of one would only pay Do's bookkeeping
		pool.Do(ns, 0, run)
	} else {
		for i := 0; i < ns; i++ {
			run(i)
		}
	}
	// Fixed binary-tree reduction into shard 0 (the primary model). The
	// tree's shape depends only on ns, so the summation order — and thus
	// the reduced floats — never varies with the pool. Replica
	// accumulators are zeroed as they are folded, restoring the invariant
	// that all gradients are zero between batches (the optimizer's Step
	// zeroes the primary's).
	for stride := 1; stride < ns; stride *= 2 {
		for i := 0; i+stride < ns; i += 2 * stride {
			dst, src := t.shards[i], t.shards[i+stride]
			for li, dl := range dst.layers {
				sl := src.layers[li]
				mat.AddInPlace(dl.GradW, sl.GradW)
				for k, v := range sl.GradB {
					dl.GradB[k] += v
				}
				sl.ZeroGrad()
			}
			dst.loss += src.loss
		}
	}
	loss := t.shards[0].loss
	ClipGrads(t.layers, 5)
	opt.Step(t.layers)
	return loss
}
