package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/kmeans"
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// Compress runs the full DeepSqueeze pipeline on t. thresholds supplies the
// per-column relative error bounds (0 = lossless; ignored for categorical
// columns). The returned archive is self-contained.
func Compress(t *dataset.Table, thresholds []float64, opts Options) (*Result, error) {
	return CompressContext(context.Background(), t, thresholds, opts)
}

// CompressContext is Compress with cancellation: the pipeline checks ctx
// between stages, between parallel work items, and between training batches,
// and returns ctx.Err() promptly once the context is done.
func CompressContext(ctx context.Context, t *dataset.Table, thresholds []float64, opts Options) (*Result, error) {
	return compress(ctx, nil, t, thresholds, opts)
}

// compress is the staged pipeline behind Compress. pool may be nil (a fresh
// pool sized by opts.Parallelism); the tuner passes a shared pool so
// its cross-validation pair never oversubscribes the machine.
func compress(ctx context.Context, pool *pipeline.Pool, t *dataset.Table, thresholds []float64, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if pool == nil {
		pool = pipeline.NewPool(opts.Parallelism)
	}
	run := pipeline.NewWithPool(ctx, pool)
	st, res, err := trainAndDecide(run, t, thresholds, opts)
	if err != nil {
		return nil, err
	}
	if err := assembleArchive(run, t, opts, st, res); err != nil {
		return nil, err
	}
	res.Stages = run.Stats()
	return res, nil
}

// trainAndDecide runs every stage short of assemble — preprocess, train, then
// decide's three — over run.
func trainAndDecide(run *pipeline.Run, t *dataset.Table, thresholds []float64, opts Options) (*archiveState, *Result, error) {
	var md *modelData
	err := run.Stage("preprocess", func() error {
		plan, err := preprocess.Fit(t, opts.Preproc, thresholds)
		if err != nil {
			return err
		}
		md, err = buildModelData(t, plan)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	hasModel := len(md.specs) > 0 && md.rows > 0
	numExperts := opts.NumExperts
	if !hasModel || numExperts > md.rows {
		numExperts = 1
	}

	var experts []*nn.Autoencoder
	assign := make([]int, md.rows)
	var hist []float64
	if hasModel {
		err := run.Stage("train", func() error {
			var err error
			experts, assign, hist, err = trainModel(run, rng, md, numExperts, opts)
			if err != nil {
				return err
			}
			for e, ae := range experts {
				ae.Decoder.Quantize32()
				if !ae.Decoder.Finite() {
					return fmt.Errorf("core: training diverged: expert %d has non-finite decoder weights", e)
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	st, res, err := decide(run, t, md, opts, experts, assign)
	if err != nil {
		return nil, nil, err
	}
	res.TrainHistory = hist
	return st, res, nil
}

// decide runs the post-training decisions as stages over run — codes, the
// truncation search, the mapping choice — and returns the state they settle
// on, ready to assemble. experts must already be float32-quantized.
func decide(run *pipeline.Run, t *dataset.Table, md *modelData, opts Options,
	experts []*nn.Autoencoder, assign []int) (*archiveState, *Result, error) {
	hasModel := len(experts) > 0
	st := &archiveState{md: md, autoenc: experts, assign: assign, experts: max(len(experts), 1), infer: new(inferPool)}
	res := &Result{}

	var codesF *mat.Matrix
	if hasModel {
		st.codeSize = experts[0].CodeSize
		st.decoders = make([]*nn.Decoder, len(experts))
		for e, ae := range experts {
			st.decoders[e] = &ae.Decoder
		}
		err := run.Stage("encode", func() error {
			var err error
			codesF, err = encodeCodes(run, experts, assign, md.x)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}
	res.ExpertUse = make([]int, st.experts)
	for _, e := range assign {
		res.ExpertUse[e]++
	}
	// Row groups: every archive section is segmented at these span
	// boundaries, so the stored order must keep each group's rows
	// contiguous — expert grouping happens within each span.
	st.spans = rowGroupSpans(md.rows, opts.rowGroupSize())

	// Stored order: grouped by expert when it pays, original otherwise.
	identity := identityPerm(md.rows)
	grouped := identity
	if st.experts > 1 {
		grouped = groupedPermSpans(assign, st.spans)
	}

	// Iterative code truncation (paper §6.2): evaluate byte-step widths and
	// keep the one minimizing codes+failures. Every candidate width is an
	// independent quantize→failures pass, in original row order, so the
	// candidates run concurrently over the pool; each is priced in the grouped
	// stored order, their streams pack together, a stream equal to the
	// previous candidate's sharing its frame, and the winner is picked
	// deterministically in candidate order. The winner's materialization and
	// frames stay on st for the mapping choice and assembly.
	if hasModel {
		cand := []int{8, 16, 24, 32}
		if opts.CodeBits != 0 {
			cand = []int{opts.CodeBits}
		}
		rows := make([]streamSet, len(cand))
		packs := make([]*packings, len(cand))
		err := run.StageBytes("truncation-search", func() (int64, error) {
			err := run.ForEach(len(cand), func(i int) error {
				var err error
				if rows[i], err = computeFailures(run, st, codesF, cand[i]); err != nil {
					return err
				}
				packs[i] = newPackings(modelStreams(grouped, rows[i], t, md))
				return nil
			})
			if err != nil {
				return 0, err
			}
			if err := packAll(run, packs...); err != nil {
				return 0, err
			}
			bestSize := int64(math.MaxInt64)
			for i, bits := range cand {
				opts.logf("truncation search: %d-bit codes → %d bytes (codes+failures)", bits, packs[i].size)
				if packs[i].size < bestSize {
					bestSize, st.codeBits, st.rows, st.packs = packs[i].size, bits, rows[i], packs[i]
				}
			}
			return bestSize, nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	res.CodeBits = st.codeBits

	// Expert mapping (paper §6.4): grouped storage with delta-coded indexes
	// versus per-tuple labels — pick the smaller. Both orders are gathered
	// from the winning width's materialization; no row runs through a decoder
	// again. Without KeepRowOrder the grouped form needs no indexes at all.
	st.perm, st.grouped = grouped, true
	if st.experts > 1 && hasModel && opts.KeepRowOrder {
		err := run.Stage("mapping", func() error {
			groupedCost := mappingCost(assign, grouped, st.spans, st.experts, true, true)
			labelsCost := mappingCost(assign, identity, st.spans, st.experts, false, true)
			packsI := newPackings(modelStreams(identity, st.rows, t, md))
			if err := packAll(run, st.packs, packsI); err != nil {
				return err
			}
			sizeG, sizeI := st.packs.size, packsI.size
			opts.logf("mapping: grouped %d+%d vs labels %d+%d bytes",
				sizeG, groupedCost, sizeI, labelsCost)
			if sizeI+labelsCost < sizeG+groupedCost {
				st.perm, st.grouped, st.packs = identity, false, packsI
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	} else if st.experts <= 1 {
		st.perm, st.grouped = identity, false
	}
	return st, res, nil
}

// trainModel builds and fits the model under the selected partitioning.
// Training honors the run's cancellation between batches.
func trainModel(run *pipeline.Run, rng *rand.Rand, md *modelData, numExperts int,
	opts Options) ([]*nn.Autoencoder, []int, []float64, error) {
	trainX, trainTG := md.x, md.targets
	if opts.TrainSampleRows > 0 && opts.TrainSampleRows < md.rows {
		idx := rng.Perm(md.rows)[:opts.TrainSampleRows]
		sort.Ints(idx)
		trainX, trainTG = md.sampleRows(idx)
	}
	cfg := nn.Config{CodeSize: opts.CodeSize, HiddenMult: 2, SingleLayerLinear: opts.SingleLayerLinear}

	if opts.Partition == PartitionKMeans && numExperts > 1 {
		return trainKMeans(run, rng, md, trainX, trainTG, cfg, numExperts, opts)
	}
	moe, err := nn.NewMoE(rng, md.specs, cfg, numExperts)
	if err != nil {
		return nil, nil, nil, err
	}
	topts := trainOptions(run, opts)
	if opts.Verbose != nil {
		prev := topts.Progress
		topts.Progress = func(epoch int, loss float64) {
			opts.logf("epoch %d: loss %.5f", epoch, loss)
			if prev != nil {
				prev(epoch, loss)
			}
		}
	}
	hist := moe.Train(rng, trainX, trainTG, topts)
	if err := run.Err(); err != nil {
		return nil, nil, nil, err
	}
	assign := moe.Assign(md.x, md.targets)
	return moe.Experts, assign, hist, nil
}

// trainOptions wires the run's cancellation and worker pool into the
// training loop. Training shards minibatches across the run's pool; because
// the sharded math is bit-identical for every pool, Options.Parallelism
// changes throughput only, never archive bytes.
func trainOptions(run *pipeline.Run, opts Options) nn.TrainOptions {
	topts := opts.Train
	topts.Stop = func() bool { return run.Err() != nil }
	if topts.Pool == nil {
		topts.Pool = run.Pool()
	}
	return topts
}

// trainKMeans implements the Fig. 8 baseline: k-means partitions the data
// and one autoencoder is trained per cluster. Per-expert training is
// independent, so experts train concurrently over the pool, each from a
// seed pre-drawn from rng so results are identical at every parallelism
// level.
func trainKMeans(run *pipeline.Run, rng *rand.Rand, md *modelData, trainX *mat.Matrix, trainTG *nn.Targets,
	cfg nn.Config, k int, opts Options) ([]*nn.Autoencoder, []int, []float64, error) {
	km, err := kmeans.Run(rng, trainX, k, 25)
	if err != nil {
		return nil, nil, nil, err
	}
	k = km.Centroids.Rows
	// One grouped pass over the assignment, then one seed per expert drawn
	// sequentially before the fan-out.
	idxByCluster := make([][]int, k)
	for r, a := range km.Assign {
		idxByCluster[a] = append(idxByCluster[a], r)
	}
	seeds := make([]int64, k)
	for e := range seeds {
		seeds[e] = rng.Int63()
	}
	experts := make([]*nn.Autoencoder, k)
	hists := make([][]float64, k)
	err = run.ForEach(k, func(e int) error {
		erng := rand.New(rand.NewSource(seeds[e]))
		single, err := nn.NewMoE(erng, md.specs, cfg, 1)
		if err != nil {
			return err
		}
		if idx := idxByCluster[e]; len(idx) > 0 {
			sx := mat.New(len(idx), trainX.Cols)
			for i, r := range idx {
				copy(sx.Row(i), trainX.Row(r))
			}
			stg := subsetTargets(trainTG, idx)
			hists[e] = single.Train(erng, sx, stg, trainOptions(run, opts))
		}
		experts[e] = single.Experts[0]
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var hist []float64
	for _, h := range hists {
		hist = append(hist, h...)
	}
	// Full-data assignment: nearest centroid, as a clustering deployment
	// would route tuples. Chunked over rows; chunk boundaries are fixed so
	// the (disjoint) writes are parallelism-independent.
	assign := make([]int, md.rows)
	err = run.ForEachChunk(md.rows, 2048, func(lo, hi int) error {
		for r := lo; r < hi; r++ {
			row := md.x.Row(r)
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				var d float64
				for j, v := range row {
					diff := v - km.Centroids.At(c, j)
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			assign[r] = best
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return experts, assign, hist, nil
}

func subsetTargets(tg *nn.Targets, idx []int) *nn.Targets {
	out := &nn.Targets{
		Num: mat.New(len(idx), tg.Num.Cols),
		Bin: mat.New(len(idx), tg.Bin.Cols),
		Cat: make([][]int, len(tg.Cat)),
	}
	for i, r := range idx {
		copy(out.Num.Row(i), tg.Num.Row(r))
		copy(out.Bin.Row(i), tg.Bin.Row(r))
	}
	for j, col := range tg.Cat {
		sub := make([]int, len(idx))
		for i, r := range idx {
			sub[i] = col[r]
		}
		out.Cat[j] = sub
	}
	return out
}

// encodeBatchRows is the chunk size per encoder matmul.
const encodeBatchRows = 4096

// encodeCodes maps every tuple through its assigned expert's encoder.
// Experts encode concurrently over the pool into disjoint rows of the
// output; within an expert, one scratch batch matrix is reused across
// chunks, and the expert→rows index is built in a single grouped pass
// instead of rescanning assign per expert.
func encodeCodes(run *pipeline.Run, experts []*nn.Autoencoder, assign []int, x *mat.Matrix) (*mat.Matrix, error) {
	codeSize := experts[0].CodeSize
	out := mat.New(x.Rows, codeSize)
	rowsByExpert := expertRows(assign, len(experts))
	err := run.ForEach(len(experts), func(e int) error {
		rows := rowsByExpert[e]
		if len(rows) == 0 {
			return nil
		}
		ae := experts[e]
		scratch := make([]float64, min(encodeBatchRows, len(rows))*x.Cols)
		for lo := 0; lo < len(rows); lo += encodeBatchRows {
			if err := run.Err(); err != nil {
				return err
			}
			chunk := rows[lo:min(lo+encodeBatchRows, len(rows))]
			sub := mat.FromSlice(len(chunk), x.Cols, scratch[:len(chunk)*x.Cols])
			for i, r := range chunk {
				copy(sub.Row(i), x.Row(r))
			}
			codes := ae.Encode(sub)
			for i, r := range chunk {
				copy(out.Row(r), codes.Row(i))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// groupedPerm returns original row indexes sorted by (expert, row) — the
// stored order for grouped mapping.
func groupedPerm(assign []int) []int {
	return groupedPermSpans(assign, []rowSpan{{0, len(assign)}})
}

// groupedPermSpans is groupedPerm restricted to row-group boundaries: rows
// are expert-sorted within each span, so every group's rows stay contiguous
// in stored order and each segment gathers a slice of the permutation. The
// sort is stable, so each expert's rows stay ascending.
func groupedPermSpans(assign []int, spans []rowSpan) []int {
	perm := identityPerm(len(assign))
	for _, sp := range spans {
		seg := perm[sp.start : sp.start+sp.count]
		sort.SliceStable(seg, func(a, b int) bool { return assign[seg[a]] < assign[seg[b]] })
	}
	return perm
}

// identityPerm is the stored order that keeps the original one.
func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// mappingCost totals the exact per-group mapping chunk sizes a stored order
// would produce — the objective of the grouped-vs-labels decision.
func mappingCost(assign, perm []int, spans []rowSpan, numExperts int, grouped, keepOrder bool) int64 {
	var total int64
	for _, sp := range spans {
		mb := buildMappingChunk(assign, perm[sp.start:sp.start+sp.count], sp.start, numExperts, grouped, keepOrder)
		total += int64(len(mb))
	}
	return total
}

// compressDecoderSection frames the serialized decoders (paper §6.1) with
// the byte codecs: a stored/DEFLATE frame, kept compressed only when it
// pays. Earlier releases gzipped this section; the raw-flate frame saves the
// gzip header and trailer and shares the codec layer's decode hardening.
func compressDecoderSection(b []byte) []byte {
	return codec.CompressBytes(b)
}

// inflateDecoderSection inverts compressDecoderSection, still reading the
// legacy gzip form older archives carry. gzip's 2-byte magic (0x1f 0x8b)
// cannot collide with a codec frame, whose first byte is a tag < 2.
func inflateDecoderSection(b []byte) ([]byte, error) {
	if len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("%w: decoder section: %v", ErrCorrupt, err)
		}
		out, err := io.ReadAll(io.LimitReader(zr, codec.MaxInflatedBytes+1))
		if err != nil {
			return nil, fmt.Errorf("%w: decoder section: %v", ErrCorrupt, err)
		}
		if len(out) > codec.MaxInflatedBytes {
			return nil, fmt.Errorf("%w: decoder section exceeds %d bytes", ErrCorrupt, codec.MaxInflatedBytes)
		}
		return out, zr.Close()
	}
	out, err := codec.DecompressBytes(b)
	if err != nil {
		return nil, fmt.Errorf("%w: decoder section: %v", ErrCorrupt, err)
	}
	return out, nil
}
