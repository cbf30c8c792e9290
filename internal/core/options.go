// Package core implements the DeepSqueeze compression pipeline (paper §3):
// preprocessing, model construction (autoencoder / mixture of experts),
// materialization of the decoder, truncated codes, failures and expert
// mapping into a self-contained archive, and the inverse decompression
// pipeline. The hyperparameter tuner of paper §5.4 lives in tune.go.
package core

import (
	"fmt"

	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// StageStats is one pipeline stage's wall-clock and byte instrumentation,
// reported in Result.Stages.
type StageStats = pipeline.StageStats

// PartitionMode selects how tuples are split across experts.
type PartitionMode int

const (
	// PartitionMoE uses the learned sparsely-gated mixture of experts
	// (paper §5.2, the default).
	PartitionMoE PartitionMode = iota
	// PartitionKMeans partitions with k-means and trains one autoencoder
	// per cluster — the Fig. 8 comparison baseline.
	PartitionKMeans
)

// Options configures a compression run. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// CodeSize is the width of the representation layer (paper §5.1).
	CodeSize int
	// NumExperts is the mixture size (paper §5.2).
	NumExperts int
	// Partition selects MoE or k-means partitioning.
	Partition PartitionMode
	// CodeBits fixes the per-dimension code width in bits; 0 enables the
	// paper's iterative byte-step truncation search (§6.2).
	CodeBits int
	// TrainSampleRows trains on a uniform sample of this many rows
	// (0 = full data). Materialization always covers the full table.
	TrainSampleRows int
	// KeepRowOrder preserves the original tuple order on decompression.
	// When false and multiple experts are in play, tuples may be stored
	// grouped by expert without indexes (paper §6.4's relational-table
	// optimization).
	KeepRowOrder bool
	// SingleLayerLinear builds the Fig. 7 baseline model.
	SingleLayerLinear bool
	// RowGroupSize is the number of rows per archive row group (format v2).
	// Each group is a self-contained segment — codes, failure streams, and
	// expert mapping for its row span — so RowRange decodes skip whole
	// groups and the streaming writer buffers at most one group. 0 selects
	// defaultRowGroupSize.
	RowGroupSize int
	// NoZoneMaps disables the per-row-group zone-map statistics chunk
	// (format v2). Zone maps are on by default: they cost a few bytes per
	// group × column and let Query prune row groups whose min/max bounds or
	// dictionary presence bits cannot match a predicate.
	NoZoneMaps bool
	// Parallelism bounds the pipeline's worker pool: the number of
	// goroutines scheduling independent stage work (truncation-search
	// candidates, per-expert training and encoding, per-column packing,
	// the tuner's cross-validation pair). 0 selects runtime.NumCPU().
	// Archives are byte-for-byte identical at every parallelism level for a
	// fixed seed, tuned ones included.
	Parallelism int
	// Preproc tunes preprocessing decisions.
	Preproc preprocess.Options
	// Train tunes the training loop. Train.Pool defaults to the run's pool,
	// so minibatches shard across the same bounded worker supply as the rest
	// of the pipeline; trained weights are bit-identical at every Parallelism.
	Train nn.TrainOptions
	// Seed drives all randomness (init, shuffling, sampling).
	Seed int64
	// Verbose, when non-nil, receives progress lines.
	Verbose func(format string, args ...any)
}

// DefaultOptions returns the defaults the paper's experiments imply.
func DefaultOptions() Options {
	return Options{
		CodeSize:     2,
		NumExperts:   1,
		KeepRowOrder: true,
		Preproc:      preprocess.DefaultOptions(),
		Train:        nn.TrainOptions{},
		Seed:         1,
	}
}

func (o *Options) validate() error {
	if o.CodeSize < 1 {
		return fmt.Errorf("core: code size %d", o.CodeSize)
	}
	if o.NumExperts < 1 {
		return fmt.Errorf("core: %d experts", o.NumExperts)
	}
	if o.Partition != PartitionMoE && o.Partition != PartitionKMeans {
		return fmt.Errorf("core: unknown partition mode %d", o.Partition)
	}
	switch o.CodeBits {
	case 0, 8, 16, 24, 32:
	default:
		return fmt.Errorf("core: code bits %d (want 0, 8, 16, 24, or 32)", o.CodeBits)
	}
	if o.TrainSampleRows < 0 {
		return fmt.Errorf("core: negative sample size")
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: negative parallelism")
	}
	if o.RowGroupSize < 0 {
		return fmt.Errorf("core: negative row group size")
	}
	return nil
}

// defaultRowGroupSize is the row-group row count when Options.RowGroupSize
// is zero: large enough that per-group section overhead stays small, small
// enough that one group's streams fit comfortably in memory.
const defaultRowGroupSize = 4096

// rowGroupSize resolves the effective row-group size.
func (o *Options) rowGroupSize() int {
	if o.RowGroupSize > 0 {
		return o.RowGroupSize
	}
	return defaultRowGroupSize
}

func (o *Options) logf(format string, args ...any) {
	if o.Verbose != nil {
		o.Verbose(format, args...)
	}
}

// Breakdown reports the size in bytes of each archive component — the
// stacked bars of the paper's Fig. 6.
type Breakdown struct {
	Total    int64
	Header   int64 // magic, plan, dictionaries, scalers
	Decoder  int64 // serialized expert decoders (DEFLATE-framed)
	Codes    int64 // truncated integerized codes
	Failures int64 // per-column corrections + exceptions + fallback columns
	Mapping  int64 // expert mapping (labels or grouped indexes)
}

// Result is the output of a compression run.
type Result struct {
	Archive   []byte
	Breakdown Breakdown
	// CodeBits is the chosen per-dimension code width.
	CodeBits int
	// TrainHistory is the per-epoch training loss.
	TrainHistory []float64
	// ExpertUse counts tuples per expert.
	ExpertUse []int
	// Stages reports per-stage wall-clock time and output bytes for the
	// compression pipeline, in completion order.
	Stages []StageStats
}

// Ratio returns compressed size / raw size as a fraction.
func (r *Result) Ratio(rawSize int64) float64 {
	if rawSize == 0 {
		return 0
	}
	return float64(r.Breakdown.Total) / float64(rawSize)
}
