package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"deepsqueeze/internal/bayesopt"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/pipeline"
)

// TuneOptions configures the iterative Bayesian-optimization tuner of paper
// Fig. 5.
type TuneOptions struct {
	// Samples is the ascending list of training sample sizes to try.
	Samples []int
	// Codes is the candidate list of code sizes.
	Codes []int
	// Experts is the candidate list of expert counts.
	Experts []int
	// Eps is the generalization threshold: tuning stops growing the sample
	// once |size(x2) − size(x1)| / rawSize < Eps.
	Eps float64
	// Budget bounds the number of objective evaluations per sample size.
	Budget int
	// Base supplies everything else (seed, training options, preprocessing,
	// parallelism). CodeSize/NumExperts/TrainSampleRows are overwritten by
	// the tuner. Base.Parallelism sizes the one worker pool every trial's
	// stages run over; it does not change the outcome.
	Base Options
}

// DefaultTuneOptions mirrors the paper's setup: code sizes and expert
// counts spanning the values its datasets converged to (§7.4.3).
func DefaultTuneOptions() TuneOptions {
	return TuneOptions{
		Samples: []int{2000, 10000, 50000},
		Codes:   []int{1, 2, 4, 8},
		Experts: []int{1, 2, 4, 9},
		Eps:     0.01,
		Budget:  10,
		Base:    DefaultOptions(),
	}
}

// Trial records one objective evaluation, for the Fig. 9 convergence plots.
type Trial struct {
	CodeSize   int
	NumExperts int
	SampleRows int
	Size       int64   // compressed size of the sample
	Ratio      float64 // Size / raw CSV size of the sample
}

// TuneResult is the tuner's outcome.
type TuneResult struct {
	// Best holds the chosen hyperparameters, with TrainSampleRows set to
	// the sample size the tuner settled on (0 = full data).
	Best Options
	// Trials is the evaluation history across all sample sizes.
	Trials []Trial
	// SampleUsed is the final sample size (rows; equals the table size when
	// tuning fell through to full data).
	SampleUsed int
	// Converged reports whether the eps cross-validation test passed.
	Converged bool
	// Stages reports per-stage wall-clock time for the tuning pipeline (one
	// stage per sample size plus its cross-validation), in completion order.
	Stages []StageStats
}

// Tune implements the paper's tune() pseudocode (Fig. 5): for growing
// sample sizes, Bayesian-optimize (code size × experts) to minimize the
// compressed sample size, then cross-validate the winner on an independent
// sample; accept once the normalized size difference drops below eps.
//
// One substitution from the paper: m.compress(x2) is realized as a full
// train-and-compress run on x2 with the winning hyperparameters (our
// archives are self-contained, there is no "compress with existing model"
// entry point). The eps test still measures exactly what the paper wants —
// whether results at this sample size are stable across samples.
func Tune(t *dataset.Table, thresholds []float64, topts TuneOptions) (*TuneResult, error) {
	return TuneContext(context.Background(), t, thresholds, topts)
}

// TuneContext is Tune with cancellation. Trials run one after another, as in
// the paper's loop, each over one pool sized by topts.Base.Parallelism (the
// cross-validation pair runs concurrently over it); since every compression
// is parallelism-independent, so is the tuner's outcome for a fixed seed.
func TuneContext(ctx context.Context, t *dataset.Table, thresholds []float64, topts TuneOptions) (*TuneResult, error) {
	if len(topts.Codes) == 0 || len(topts.Experts) == 0 {
		return nil, fmt.Errorf("core: tune needs candidate codes and experts")
	}
	if len(topts.Samples) == 0 {
		topts.Samples = []int{t.NumRows()}
	}
	sort.Ints(topts.Samples)
	if topts.Budget <= 0 {
		topts.Budget = 10
	}
	rng := rand.New(rand.NewSource(topts.Base.Seed + 7919))
	run := pipeline.New(ctx, topts.Base.Parallelism)
	res := &TuneResult{}
	rawSize := t.CSVSize()

	var lastBest Options
	lastSample := t.NumRows()
	for _, s := range topts.Samples {
		if s >= t.NumRows() {
			var best Options
			err := run.Stage(fmt.Sprintf("tune-full-%d", t.NumRows()), func() error {
				var err error
				best, err = minimizeSample(run, t, thresholds, topts, rng, t.NumRows(), res)
				return err
			})
			if err != nil {
				return nil, err
			}
			best.TrainSampleRows = 0
			res.Best = best
			res.SampleUsed = t.NumRows()
			res.Converged = true
			res.Stages = run.Stats()
			return res, nil
		}
		var diff float64
		var best Options
		err := run.Stage(fmt.Sprintf("tune-sample-%d", s), func() error {
			x1 := sampleTable(t, rng, s)
			var err error
			best, err = minimizeSample(run, x1, thresholds, topts, rng, s, res)
			if err != nil {
				return err
			}
			// Cross-validate on an independent sample; both compressions are
			// independent, so they run as a concurrent pair over the pool.
			x2 := sampleTable(t, rng, s)
			pair := [2]*dataset.Table{x1, x2}
			var sizes [2]int64
			err = run.ForEach(2, func(i int) error {
				r, err := compress(run.Context(), run.Pool(), pair[i], thresholds, best)
				if err != nil {
					return err
				}
				sizes[i] = r.Breakdown.Total
				return nil
			})
			if err != nil {
				return err
			}
			diff = math.Abs(float64(sizes[1]-sizes[0])) / float64(rawSize)
			return nil
		})
		if err != nil {
			return nil, err
		}
		lastBest, lastSample = best, s
		if diff < topts.Eps {
			best.TrainSampleRows = s
			res.Best = best
			res.SampleUsed = s
			res.Converged = true
			res.Stages = run.Stats()
			return res, nil
		}
	}
	// No sample size converged: return the model tuned on the largest.
	lastBest.TrainSampleRows = lastSample
	res.Best = lastBest
	res.SampleUsed = lastSample
	res.Stages = run.Stats()
	return res, nil
}

// minimizeSample runs Bayesian optimization of (code size, experts) on the
// given table (a sample or the full data): the paper's sequential loop, one
// proposal observed before the next is made, each trial's stages running
// over the shared pool. The trajectory is therefore a function of the seed
// alone, never of the pool's size.
func minimizeSample(run *pipeline.Run, sample *dataset.Table, thresholds []float64, topts TuneOptions,
	rng *rand.Rand, sampleRows int, res *TuneResult) (Options, error) {
	grid := make([][]float64, 0, len(topts.Codes)*len(topts.Experts))
	type cell struct{ code, experts int }
	cells := make([]cell, 0, cap(grid))
	maxCode := float64(topts.Codes[len(topts.Codes)-1])
	maxExp := float64(topts.Experts[len(topts.Experts)-1])
	for _, c := range topts.Codes {
		for _, e := range topts.Experts {
			grid = append(grid, []float64{
				math.Log2(float64(c)+1) / math.Log2(maxCode+1),
				math.Log2(float64(e)+1) / math.Log2(maxExp+1),
			})
			cells = append(cells, cell{c, e})
		}
	}
	bo, err := bayesopt.New(rng, grid)
	if err != nil {
		return Options{}, err
	}
	budget := topts.Budget
	if budget > len(grid) {
		budget = len(grid)
	}
	rawSize := sample.CSVSize()
	for trial := 0; trial < budget; trial++ {
		idx := bo.Next()
		opts := topts.Base
		opts.CodeSize = cells[idx].code
		opts.NumExperts = cells[idx].experts
		r, err := compress(run.Context(), run.Pool(), sample, thresholds, opts)
		if err != nil {
			return Options{}, err
		}
		size := r.Breakdown.Total
		bo.Observe(idx, float64(size))
		res.Trials = append(res.Trials, Trial{
			CodeSize:   cells[idx].code,
			NumExperts: cells[idx].experts,
			SampleRows: sampleRows,
			Size:       size,
			Ratio:      float64(size) / float64(rawSize),
		})
		topts.Base.logf("tune trial %d: code=%d experts=%d → %d bytes",
			trial, cells[idx].code, cells[idx].experts, size)
	}
	bestIdx, _ := bo.Best()
	out := topts.Base
	out.CodeSize = cells[bestIdx].code
	out.NumExperts = cells[bestIdx].experts
	return out, nil
}

// sampleTable draws a uniform random row sample of size s.
func sampleTable(t *dataset.Table, rng *rand.Rand, s int) *dataset.Table {
	idx := rng.Perm(t.NumRows())[:s]
	sort.Ints(idx)
	return t.Sample(idx)
}
