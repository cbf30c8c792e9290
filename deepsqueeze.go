// Package deepsqueeze is a semantic compression library for tabular data,
// implementing "DeepSqueeze: Deep Semantic Compression for Tabular Data"
// (Ilkhechi et al., SIGMOD 2020).
//
// DeepSqueeze maps tuples to a low-dimensional representation with an
// autoencoder (optionally a sparsely-gated mixture of experts), materializes
// the decoder, the truncated per-tuple codes, and compact per-column
// correction streams ("failures"), and reaches compressed sizes well below
// columnar formats on tables whose columns share structure. Numerical
// columns support guaranteed error bounds for lossy compression; categorical
// columns always round-trip exactly.
//
// Quickstart:
//
//	table := deepsqueeze.NewTable(schema, 0)
//	// ... append rows ...
//	res, err := deepsqueeze.Compress(table, deepsqueeze.UniformThresholds(table, 0.05), deepsqueeze.DefaultOptions())
//	// res.Archive is a self-contained blob
//	back, err := deepsqueeze.Decompress(res.Archive)
//
// See examples/ for runnable programs and cmd/dsqz for a CLI.
package deepsqueeze

import (
	"context"
	"io"
	"math"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/query"
)

// Re-exported data-model types. These aliases are the public names; the
// implementation lives in internal packages.
type (
	// ColumnType distinguishes categorical from numeric columns.
	ColumnType = dataset.ColumnType
	// Column describes one table column.
	Column = dataset.Column
	// Schema is an ordered list of columns.
	Schema = dataset.Schema
	// Table is a columnar in-memory table.
	Table = dataset.Table
)

// Column type constants.
const (
	// Categorical columns hold distinct unordered string values.
	Categorical = dataset.Categorical
	// Numeric columns hold integer or floating-point values.
	Numeric = dataset.Numeric
)

// Compression types.
type (
	// Options configures a compression run; start from DefaultOptions.
	Options = core.Options
	// Result is a compression outcome: archive plus size breakdown.
	Result = core.Result
	// Breakdown reports per-component archive sizes.
	Breakdown = core.Breakdown
	// PartitionMode selects mixture-of-experts or k-means partitioning.
	PartitionMode = core.PartitionMode
	// TuneOptions configures automatic hyperparameter tuning.
	TuneOptions = core.TuneOptions
	// TuneResult reports the tuner's chosen hyperparameters and history.
	TuneResult = core.TuneResult
	// Trial is one hyperparameter evaluation.
	Trial = core.Trial
	// StageStats is one pipeline stage's wall-clock and byte instrumentation
	// (Result.Stages, TuneResult.Stages).
	StageStats = core.StageStats
	// DecompressOptions configures DecompressContext and NewArchiveReader:
	// parallelism, column projection, row range, and an untrusted-input row
	// cap.
	DecompressOptions = core.DecompressOptions
	// DecompressResult is a decompression outcome: the (possibly projected)
	// table plus per-stage instrumentation.
	DecompressResult = core.DecompressResult
	// RowRange selects a half-open [Lo, Hi) span of rows in original order.
	RowRange = core.RowRange
)

// Partitioning modes.
const (
	// PartitionMoE trains a learned gate that routes tuples to experts.
	PartitionMoE = core.PartitionMoE
	// PartitionKMeans partitions tuples by k-means clustering.
	PartitionKMeans = core.PartitionKMeans
)

// NewSchema builds a schema from column descriptors.
func NewSchema(cols ...Column) *Schema { return dataset.NewSchema(cols...) }

// NewTable returns an empty table with storage preallocated for capacity
// rows.
func NewTable(schema *Schema, capacity int) *Table { return dataset.NewTable(schema, capacity) }

// ReadCSV reads a headered CSV file against the given schema.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) { return dataset.ReadCSV(r, schema) }

// DefaultOptions returns sensible defaults (single expert, code size 2,
// automatic code truncation).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultTuneOptions returns the tuning grid the paper's experiments imply.
func DefaultTuneOptions() TuneOptions { return core.DefaultTuneOptions() }

// UniformThresholds builds a per-column error-threshold slice assigning err
// to every numeric column and 0 (lossless) to every categorical column.
// err is a fraction of each column's value range, e.g. 0.05 for 5%.
func UniformThresholds(t *Table, err float64) []float64 {
	out := make([]float64, t.Schema.NumColumns())
	for i, c := range t.Schema.Columns {
		if c.Type == Numeric {
			out[i] = err
		}
	}
	return out
}

// Compress compresses a table under the given per-column error thresholds
// (see UniformThresholds) and options. The returned archive is
// self-contained: Decompress needs nothing else.
func Compress(t *Table, thresholds []float64, opts Options) (*Result, error) {
	return core.Compress(t, thresholds, opts)
}

// CompressContext is Compress with cancellation: the staged pipeline checks
// ctx between stages, between parallel work items, and between training
// batches, and returns ctx.Err() promptly once the context is done. Archives
// are byte-for-byte identical at every Options.Parallelism level for a fixed
// seed.
func CompressContext(ctx context.Context, t *Table, thresholds []float64, opts Options) (*Result, error) {
	return core.CompressContext(ctx, t, thresholds, opts)
}

// Decompress reconstructs a table from an archive produced by Compress.
// Categorical columns are exact; lossy numeric columns are within their
// archived error bounds.
func Decompress(archive []byte) (*Table, error) {
	return core.Decompress(archive)
}

// DecompressContext is Decompress with cancellation, bounded parallelism,
// and query-aware projection: opts.Columns decodes only the named columns
// (skipping the other columns' failure streams and decoder heads) and
// opts.RowRange restricts decoder inference and assembly to a row span.
// Output is byte-for-byte identical at every parallelism level.
func DecompressContext(ctx context.Context, archive []byte, opts DecompressOptions) (*DecompressResult, error) {
	return core.DecompressContext(ctx, archive, opts)
}

// Tune searches (code size × expert count) with Bayesian optimization over
// growing training samples (paper Fig. 5) and returns options ready to pass
// to Compress.
func Tune(t *Table, thresholds []float64, topts TuneOptions) (*TuneResult, error) {
	return core.Tune(t, thresholds, topts)
}

// TuneContext is Tune with cancellation, each trial's stages running over a
// pool sized by topts.Base.Parallelism. Trials run one after another, as in
// the paper's loop, so the outcome depends on the seed, never on
// Parallelism.
func TuneContext(ctx context.Context, t *Table, thresholds []float64, topts TuneOptions) (*TuneResult, error) {
	return core.TuneContext(ctx, t, thresholds, topts)
}

// DecompressBatch reconstructs a streaming batch archive — a batch that
// references a separate model archive by hash instead of embedding the
// decoders — given that model archive. Nothing writes batch archives any
// more: an ArchiveWriter trains on its first row group and re-fits every
// later one inside one self-contained archive.
func DecompressBatch(modelArchive, batchArchive []byte) (*Table, error) {
	return core.DecompressBatch(modelArchive, batchArchive)
}

// DecompressBatchContext is DecompressBatch with cancellation and
// query-aware projection (see DecompressContext).
func DecompressBatchContext(ctx context.Context, modelArchive, batchArchive []byte, opts DecompressOptions) (*DecompressResult, error) {
	return core.DecompressBatchContext(ctx, modelArchive, batchArchive, opts)
}

// Streaming archive IO (format v2 row groups).
type (
	// ArchiveWriter compresses a table of unbounded length, streaming
	// row-group segments to an io.Writer as rows arrive; each full group
	// compresses on a goroutine while the caller prepares the next rows.
	// Memory stays O(RowGroupSize) regardless of the table's total size.
	ArchiveWriter = core.ArchiveWriter
	// ArchiveReader decompresses a v2 archive group by group from an
	// io.Reader, holding at most one row group in memory.
	ArchiveReader = core.ArchiveReader
	// WriterStats instruments an ArchiveWriter (rows, groups, and the
	// buffered-rows high-water mark that proves bounded memory).
	WriterStats = core.WriterStats
	// CSVScanner reads a headered CSV file in bounded row chunks.
	CSVScanner = dataset.CSVScanner
	// CSVWriter writes tables incrementally as one headered CSV stream.
	CSVWriter = dataset.CSVWriter
)

// NewArchiveWriter returns a streaming compressor writing a self-contained
// v2 archive to w for tables with the given schema. The model trains on the
// first full row group (Options.RowGroupSize rows; 0 = default); later
// groups reuse it, re-fitting only dictionaries/scalers per group. Call
// Write with row batches of any size, then Close to emit the footer.
func NewArchiveWriter(w io.Writer, schema *Schema, thresholds []float64, opts Options) (*ArchiveWriter, error) {
	return core.NewArchiveWriter(w, schema, thresholds, opts)
}

// NewArchiveReader returns a streaming decompressor over an archive in r.
// Call Next repeatedly for one table per row group until io.EOF; the
// archive's checksum and footer index are verified before EOF is returned.
// An optional DecompressOptions selects columns, a row span, a row cap and
// the parallelism, as DecompressContext's does; the tables Next returns
// concatenate to DecompressContext's table.
func NewArchiveReader(r io.Reader, opts ...DecompressOptions) (*ArchiveReader, error) {
	return core.NewArchiveReader(r, opts...)
}

// NewCSVScanner reads a headered CSV against the schema in bounded chunks —
// the ingest half of a larger-than-memory compress pipeline.
func NewCSVScanner(r io.Reader, schema *Schema) (*CSVScanner, error) {
	return dataset.NewCSVScanner(r, schema)
}

// NewCSVWriter writes tables incrementally as one headered CSV stream — the
// output half of a larger-than-memory decompress pipeline.
func NewCSVWriter(w io.Writer, schema *Schema) *CSVWriter {
	return dataset.NewCSVWriter(w, schema)
}

// ArchiveInfo summarizes an archive without decompressing it.
type ArchiveInfo = core.ArchiveInfo

// GroupInfo is one row group's footer-index entry (ArchiveInfo.Groups).
type GroupInfo = core.GroupInfo

// ArchiveSummary is the machine-readable archive description shared by
// `dsqz inspect -json` and the dsqzd daemon's /archives endpoint.
type ArchiveSummary = core.ArchiveSummary

// Inspect parses an archive's metadata (rows, schema, model shape,
// streaming flag) after validating its checksum, without running the
// decoder.
func Inspect(archive []byte) (*ArchiveInfo, error) { return core.Inspect(archive) }

// StreamStat aggregates one logical stream's chunks across row groups:
// chosen codecs, framed bytes, and stored-form bytes (InspectStreams).
type StreamStat = core.StreamStat

// StreamSummary is StreamStat's machine-readable form (ArchiveSummary.Streams).
type StreamSummary = core.StreamSummary

// InspectStreams walks an archive's row-group segments and reports
// per-stream codec choices and compressed-vs-raw sizes, so compression wins
// are attributable per column. It decodes stream frames but never runs the
// model.
func InspectStreams(archive []byte) ([]StreamStat, error) { return core.InspectStreams(archive) }

// StreamSummaries converts InspectStreams output into the machine-readable
// form embedded in ArchiveSummary.
func StreamSummaries(stats []StreamStat) []StreamSummary { return core.StreamSummaries(stats) }

// Archive is an open-once/serve-many handle: Open parses the archive's
// header, footer index, zone maps, and decoder section at most once, and any
// number of concurrent decompressions and queries then execute against the
// shared parsed state. Use it whenever the same archive is read more than
// once; the one-shot byte-slice entry points open a fresh handle per call.
type Archive = core.Archive

// ErrCorrupt classifies archive-corruption failures: every malformed-input
// error from Open, Decompress, Inspect, and Query wraps it, so callers can
// distinguish bad archives from bad requests with errors.Is.
var ErrCorrupt = core.ErrCorrupt

// Open parses an archive's metadata once and returns a reusable,
// concurrency-safe handle. The handle keeps a reference to the archive
// bytes; the caller must not mutate them afterwards.
func Open(archive []byte) (*Archive, error) { return core.Open(archive) }

// OpenFile reads and opens the archive at path; corruption-class failures
// are attributed to the path.
func OpenFile(path string) (*Archive, error) { return core.OpenFile(path) }

// QueryArchive is QueryContext against an open handle: planning reuses the
// handle's cached row-group index and zone maps, decoding reuses its cached
// decoders. Concurrent calls against one handle are safe.
func QueryArchive(ctx context.Context, a *Archive, opts QueryOptions) (*QueryResult, error) {
	return query.RunArchive(ctx, a, opts)
}

// VerifyBounds audits a decompressed table against the original: every
// categorical value must match exactly and every numeric value must lie
// within threshold × range of its column, plus rounding slack: a value at its
// column's minimum or maximum decodes to a bucket midpoint exactly
// threshold × range away, and computing that midpoint rounds in the last bits
// of a number of the column's magnitude, not of the threshold's. The slack is
// therefore a few ulps of the larger of |min| and |max|. Lossless columns
// (threshold 0) get none. Returns nil when the paper's guarantee holds.
func VerifyBounds(original, decompressed *Table, thresholds []float64) error {
	const slackUlps = 4 * 0x1p-52
	stats := original.Stats()
	tol := make([]float64, original.Schema.NumColumns())
	for i, thr := range thresholds {
		if original.Schema.Columns[i].Type == Numeric && thr > 0 {
			mag := math.Max(math.Abs(stats[i].Min), math.Abs(stats[i].Max))
			tol[i] = thr*(stats[i].Max-stats[i].Min) + slackUlps*mag
		}
	}
	return original.EqualWithin(decompressed, tol)
}

// Query types. Predicates are built with the Eq/Lt/Le/Gt/Ge/In/And/Or/Not
// constructors or parsed from text with ParsePredicate; queries evaluate
// directly against an archive, using per-row-group zone maps to skip groups
// that cannot contain a match.
type (
	// Predicate filters rows in a Query.
	Predicate = query.Pred
	// QueryOptions configures a Query: filter, projection, aggregates,
	// parallelism, and an optional row limit.
	QueryOptions = query.Options
	// QueryResult is a query outcome: matching rows or aggregates, plus
	// pruning statistics (groups pruned, bytes skipped).
	QueryResult = query.Result
	// AggOp requests one aggregate (count, or min/max/sum over a numeric
	// column).
	AggOp = query.AggOp
	// AggKind selects an aggregate function.
	AggKind = query.AggKind
	// Aggregate is one computed aggregate value.
	Aggregate = query.Aggregate
)

// Aggregate kinds.
const (
	AggCount = query.AggCount
	AggMin   = query.AggMin
	AggMax   = query.AggMax
	AggSum   = query.AggSum
)

// Predicate constructors, re-exported for building filters programmatically.
var (
	// Eq matches rows whose column equals v (string for categorical columns,
	// number for numeric ones).
	Eq = query.Eq
	// Lt matches rows whose numeric column is strictly less than v.
	Lt = query.Lt
	// Le matches rows whose numeric column is at most v.
	Le = query.Le
	// Gt matches rows whose numeric column is strictly greater than v.
	Gt = query.Gt
	// Ge matches rows whose numeric column is at least v.
	Ge = query.Ge
	// In matches rows whose column equals any of the listed values.
	In = query.In
	// PredAnd matches rows satisfying every child predicate.
	PredAnd = query.And
	// PredOr matches rows satisfying at least one child predicate.
	PredOr = query.Or
	// PredNot inverts a predicate.
	PredNot = query.Not
)

// ParsePredicate parses a SQL-flavoured filter expression, e.g.
// "seq >= 100 AND tag = 'hot'". Operators: = == != <> < <= > >= IN,
// combined with AND / OR / NOT and parentheses.
func ParsePredicate(s string) (Predicate, error) { return query.Parse(s) }

// Query evaluates a filter + projection + aggregation query directly against
// an archive. Row groups whose zone maps cannot contain a match are skipped
// without decoding; surviving groups decode in parallel and the predicate is
// re-evaluated on decoded values, so the result is byte-for-byte what a full
// Decompress followed by filtering would produce.
func Query(archive []byte, opts QueryOptions) (*QueryResult, error) {
	return query.Run(archive, opts)
}

// QueryContext is Query with cancellation.
func QueryContext(ctx context.Context, archive []byte, opts QueryOptions) (*QueryResult, error) {
	return query.RunContext(ctx, archive, opts)
}
