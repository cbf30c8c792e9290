package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Report, error)
}

// Experiments returns the registry: the paper's tables and figures in paper
// order, then train, the one repo experiment (see TrainSpeedup).
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Dataset summary", Table1},
		{"fig6a", "gzip & Parquet baselines", Fig6a},
		{"fig6", "DeepSqueeze vs Squish compression ratios", func(c Config) (*Report, error) { return Fig6(c) }},
		{"table2", "Runtime comparison", func(c Config) (*Report, error) { return Table2(c) }},
		{"fig7", "Optimization ablations", func(c Config) (*Report, error) { return Fig7(c) }},
		{"fig8", "k-means vs mixture of experts", Fig8},
		{"fig9", "Hyperparameter tuning convergence", func(c Config) (*Report, error) { return Fig9(c) }},
		{"fig10", "Training sample-size sensitivity", Fig10},
		{"ablation-truncation", "Code truncation search", func(c Config) (*Report, error) { return AblationCodeTruncation(c) }},
		{"ablation-mapping", "Expert mapping strategies", func(c Config) (*Report, error) { return AblationExpertMapping(c) }},
		{"train", "Data-parallel training throughput vs. pool size", TrainSpeedup},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
