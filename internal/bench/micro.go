package bench

import (
	"fmt"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/datagen"
)

// Fig7 regenerates the optimization comparison (paper Fig. 7): a
// single-layer linear baseline, no quantization, a single expert, and the
// full DeepSqueeze configuration, at a 10% error threshold.
func Fig7(cfg Config, datasets ...string) (*Report, error) {
	if len(datasets) == 0 {
		datasets = datasetOrder
	}
	tc := newTableCache(cfg)
	rep := &Report{
		ID:      "fig7",
		Title:   "Impact of optimizations (compression ratio %, 10% error threshold)",
		Columns: []string{"dataset", "single_layer_linear_%", "no_quantization_%", "single_expert_%", "deepsqueeze_%"},
	}
	for _, name := range datasets {
		t, _, err := tc.get(name)
		if err != nil {
			return nil, err
		}
		raw := t.CSVSize()
		thr := 0.1
		if name == "census" {
			thr = 0
		}
		thresholds := datagen.Thresholds(t, thr)
		full := dsOptions(name, cfg)
		variants := []struct {
			name string
			mod  func(core.Options) core.Options
		}{
			{"single_layer_linear", func(o core.Options) core.Options { o.SingleLayerLinear = true; return o }},
			{"no_quantization", func(o core.Options) core.Options { o.Preproc.NoQuantization = true; return o }},
			{"single_expert", func(o core.Options) core.Options { o.NumExperts = 1; return o }},
			{"deepsqueeze", func(o core.Options) core.Options { return o }},
		}
		row := []string{name}
		for _, v := range variants {
			res, err := core.Compress(t, thresholds, v.mod(full))
			if err != nil {
				return nil, err
			}
			row = append(row, pct(res.Breakdown.Total, raw))
			cfg.logf("fig7 %s %s: %s%%", name, v.name, pct(res.Breakdown.Total, raw))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Fig8 regenerates the partitioning comparison (paper Fig. 8): k-means
// versus the mixture of experts on Monitor for 1–10 partitions at each
// error threshold.
func Fig8(cfg Config) (*Report, error) {
	tc := newTableCache(cfg)
	t, _, err := tc.get("monitor")
	if err != nil {
		return nil, err
	}
	raw := t.CSVSize()
	rep := &Report{
		ID:      "fig8",
		Title:   "k-means vs mixture of experts on Monitor (compression ratio %)",
		Columns: []string{"error_%", "partitions", "kmeans_%", "experts_%"},
	}
	thresholds := errorThresholds("monitor", cfg.Quick)
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if cfg.Quick {
		counts = []int{1, 2, 4}
	}
	for _, thr := range thresholds {
		th := datagen.Thresholds(t, thr)
		for _, k := range counts {
			base := dsOptions("monitor", cfg)
			base.NumExperts = k
			base.Partition = core.PartitionKMeans
			km, err := core.Compress(t, th, base)
			if err != nil {
				return nil, err
			}
			base.Partition = core.PartitionMoE
			moe, err := core.Compress(t, th, base)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%g", thr*100),
				fmt.Sprintf("%d", k),
				pct(km.Breakdown.Total, raw),
				pct(moe.Breakdown.Total, raw),
			})
			cfg.logf("fig8 thr=%g k=%d: kmeans %s%% moe %s%%", thr*100, k,
				pct(km.Breakdown.Total, raw), pct(moe.Breakdown.Total, raw))
		}
	}
	return rep, nil
}

// Fig9 regenerates the hyperparameter-tuning convergence plots (paper
// Fig. 9): best-so-far compression ratio per Bayesian-optimization trial on
// every dataset.
func Fig9(cfg Config, datasets ...string) (*Report, error) {
	if len(datasets) == 0 {
		datasets = datasetOrder
	}
	tc := newTableCache(cfg)
	rep := &Report{
		ID:      "fig9",
		Title:   "Hyperparameter tuning convergence (best-so-far ratio % per trial)",
		Columns: []string{"dataset", "trial", "code_size", "experts", "trial_ratio_%", "best_so_far_%"},
	}
	for _, name := range datasets {
		t, _, err := tc.get(name)
		if err != nil {
			return nil, err
		}
		thr := 0.1
		if name == "census" {
			thr = 0
		}
		topts := core.DefaultTuneOptions()
		topts.Base = dsOptions(name, cfg)
		topts.Samples = []int{t.NumRows()} // tune on the full (scaled) data
		topts.Codes = []int{1, 2, 4, 8}
		topts.Experts = []int{1, 2, 4, 9}
		topts.Budget = 12
		if cfg.Quick {
			topts.Codes = []int{1, 2}
			topts.Experts = []int{1, 2}
			topts.Budget = 3
		}
		res, err := core.Tune(t, datagen.Thresholds(t, thr), topts)
		if err != nil {
			return nil, err
		}
		best := 1.0
		for i, trial := range res.Trials {
			if trial.Ratio < best {
				best = trial.Ratio
			}
			rep.Rows = append(rep.Rows, []string{
				name,
				fmt.Sprintf("%d", i),
				fmt.Sprintf("%d", trial.CodeSize),
				fmt.Sprintf("%d", trial.NumExperts),
				fmt.Sprintf("%.2f", trial.Ratio*100),
				fmt.Sprintf("%.2f", best*100),
			})
		}
		cfg.logf("fig9 %s: %d trials, best %.2f%%, chose code=%d experts=%d",
			name, len(res.Trials), best*100, res.Best.CodeSize, res.Best.NumExperts)
	}
	return rep, nil
}

// Fig10 regenerates the sample-size sensitivity study (paper Fig. 10):
// compression ratio on Monitor at a 10% threshold while training on
// growing fractions of the data.
func Fig10(cfg Config) (*Report, error) {
	tc := newTableCache(cfg)
	t, _, err := tc.get("monitor")
	if err != nil {
		return nil, err
	}
	raw := t.CSVSize()
	rep := &Report{
		ID:      "fig10",
		Title:   "Sensitivity to training sample size on Monitor (10% threshold)",
		Columns: []string{"sample_%", "sample_rows", "ratio_%"},
	}
	fractions := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	if cfg.Quick {
		fractions = []float64{0.05, 0.5, 1.0}
	}
	th := datagen.Thresholds(t, 0.1)
	for _, f := range fractions {
		opts := dsOptions("monitor", cfg)
		opts.TrainSampleRows = int(f * float64(t.NumRows()))
		if opts.TrainSampleRows < 10 {
			opts.TrainSampleRows = 10
		}
		if f >= 1 {
			opts.TrainSampleRows = 0
		}
		res, err := core.Compress(t, th, opts)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%g", f*100),
			fmt.Sprintf("%d", opts.TrainSampleRows),
			pct(res.Breakdown.Total, raw),
		})
		cfg.logf("fig10 sample=%g%%: %s%%", f*100, pct(res.Breakdown.Total, raw))
	}
	return rep, nil
}

// AblationCodeTruncation measures the paper §6.2 truncation optimization:
// fixed 32-bit codes versus the iterative byte-step search.
func AblationCodeTruncation(cfg Config, datasets ...string) (*Report, error) {
	if len(datasets) == 0 {
		datasets = []string{"corel", "monitor"}
	}
	tc := newTableCache(cfg)
	rep := &Report{
		ID:      "ablation-truncation",
		Title:   "Code truncation: fixed 32-bit codes vs iterative search (ratio %)",
		Columns: []string{"dataset", "fixed32_%", "searched_%", "chosen_bits"},
	}
	for _, name := range datasets {
		t, _, err := tc.get(name)
		if err != nil {
			return nil, err
		}
		raw := t.CSVSize()
		thr := datagen.Thresholds(t, 0.1)
		opts := dsOptions(name, cfg)
		opts.CodeBits = 32
		fixed, err := core.Compress(t, thr, opts)
		if err != nil {
			return nil, err
		}
		opts.CodeBits = 0
		searched, err := core.Compress(t, thr, opts)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{name,
			pct(fixed.Breakdown.Total, raw),
			pct(searched.Breakdown.Total, raw),
			fmt.Sprintf("%d", searched.CodeBits)})
	}
	return rep, nil
}

// AblationExpertMapping compares the two expert-mapping materializations of
// paper §6.4: row-order-preserving (indexes or labels, chosen
// automatically) versus order-free grouped storage.
func AblationExpertMapping(cfg Config) (*Report, error) {
	tc := newTableCache(cfg)
	t, _, err := tc.get("monitor")
	if err != nil {
		return nil, err
	}
	raw := t.CSVSize()
	rep := &Report{
		ID:      "ablation-mapping",
		Title:   "Expert mapping on Monitor: order-preserving vs order-free (ratio %)",
		Columns: []string{"experts", "keep_order_%", "order_free_%"},
	}
	th := datagen.Thresholds(t, 0.1)
	for _, k := range []int{2, 4, 8} {
		opts := dsOptions("monitor", cfg)
		opts.NumExperts = k
		opts.KeepRowOrder = true
		kept, err := core.Compress(t, th, opts)
		if err != nil {
			return nil, err
		}
		opts.KeepRowOrder = false
		free, err := core.Compress(t, th, opts)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", k),
			pct(kept.Breakdown.Total, raw),
			pct(free.Breakdown.Total, raw),
		})
	}
	return rep, nil
}
