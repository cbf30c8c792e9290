package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"deepsqueeze"
	"deepsqueeze/internal/datagen"
)

// cond is one conjunct of a benchmark query: col op literal. The benchmark
// builds its queries from conds so it can both render the text dsqzd parses
// and evaluate the predicate itself for the decompress-then-filter reference.
type cond struct {
	col string
	op  string // "=", "<", ">", ">="
	num float64
	str string // set for categorical columns (op "=")
}

// querySpec is a conjunction of conds projected onto sel (schema order).
type querySpec struct {
	conds []cond
	sel   []string // nil selects every column
}

// where renders the predicate in the syntax query.Parse accepts. Numeric
// literals use the shortest representation that parses back exactly.
func (q querySpec) where() string {
	parts := make([]string, len(q.conds))
	for i, c := range q.conds {
		if c.str != "" {
			parts[i] = fmt.Sprintf("%s %s '%s'", c.col, c.op, c.str)
		} else {
			parts[i] = fmt.Sprintf("%s %s %s", c.col, c.op, strconv.FormatFloat(c.num, 'g', -1, 64))
		}
	}
	return strings.Join(parts, " AND ")
}

// workload is one named round trip. Every count is a constant so that two
// commits run the same work; only the number of rounds follows -seconds.
type workload struct {
	name string
	why  string

	rows       int
	table      func(rng *rand.Rand, rows int) *deepsqueeze.Table
	thresholds func(t *deepsqueeze.Table) []float64
	options    func() deepsqueeze.Options
	blockCache int64 // dsqzd -blockcache in bytes; 0 disables
	queries    func(rng *rand.Rand, src *deepsqueeze.Table) (points []querySpec, scan querySpec)

	// Operations per round.
	decompresses int
	colds        int
	points       int
	scans        int
	burst        time.Duration
}

// hotQueries is the number of distinct point queries a workload rotates over.
const hotQueries = 16

var workloads = []*workload{
	{
		name:         "archive-numeric",
		why:          "Monitor telemetry, 5% error, 2 experts, 4096-row groups: numeric-head training, truncation search and decode inference do nearly all the work",
		rows:         12288,
		table:        datagen.Monitor,
		thresholds:   monitorThresholds,
		options:      func() deepsqueeze.Options { return monitorOptions(2, 4, 0, 8) },
		blockCache:   0,
		queries:      monitorQueries(4096, false),
		decompresses: 3, colds: 10, points: 150, scans: 3, burst: 400 * time.Millisecond,
	},
	{
		name:         "archive-categorical",
		why:          "24 Census columns, lossless, 1 expert: the shared-softmax categorical stack, rank-failure streams and range codecs dominate, and zone bitmaps prune nothing so every query is decode-bound",
		rows:         2048,
		table:        censusHead,
		thresholds:   func(t *deepsqueeze.Table) []float64 { return deepsqueeze.UniformThresholds(t, 0) },
		options:      censusOptions,
		blockCache:   0,
		queries:      censusQueries,
		decompresses: 3, colds: 5, points: 20, scans: 3, burst: 600 * time.Millisecond,
	},
	{
		name:         "serve-pruned",
		why:          "Monitor in 256-row groups, no block cache: one training group then dictionary-refit groups; point queries prune ~99% of groups so open/index/plan/HTTP dominate while scans are decode-bound",
		rows:         serveRows,
		table:        datagen.Monitor,
		thresholds:   monitorThresholds,
		options:      func() deepsqueeze.Options { return monitorOptions(2, 4, 256, 10) },
		blockCache:   0,
		queries:      monitorQueries(256, true),
		decompresses: 3, colds: 30, points: 192, scans: 4, burst: 400 * time.Millisecond,
	},
	{
		name:         "serve-cached",
		why:          "same table, options and queries as serve-pruned behind dsqzd -blockcache: block kernels and cache replace decode, and its archive cells repeat serve-pruned's as a built-in A/A check",
		rows:         serveRows,
		table:        datagen.Monitor,
		thresholds:   monitorThresholds,
		options:      func() deepsqueeze.Options { return monitorOptions(2, 4, 256, 10) },
		blockCache:   serveBlockCache,
		queries:      monitorQueries(256, true),
		decompresses: 3, colds: 30, points: 192, scans: 4, burst: 400 * time.Millisecond,
	},
}

const (
	serveRows = 20480
	// serveBlockCache holds the 16 hot windows' blocks (each window lies in
	// at most 2 groups: 16 × 2 × 4 columns × ~2.2 KB ≈ 280 KB) but not one
	// scan's (~40 groups × 5 columns × ~2.2 KB ≈ 440 KB), so every scan
	// flushes the LRU and the next points re-warm it.
	serveBlockCache = 320 << 10
)

// censusStructureSeed fixes what is not data in the categorical workload:
// datagen.Census's column structure and which columns the queries name.
const censusStructureSeed = 1990

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tiny shrinks a workload for the smoke test: a few row groups, one training
// epoch, a handful of operations per round.
func (w *workload) tiny() *workload {
	c := *w
	c.rows = w.rows / 16
	c.options = func() deepsqueeze.Options {
		opts := w.options()
		opts.Train.Epochs = 1
		return opts
	}
	c.decompresses, c.colds, c.points, c.scans = 1, 1, 20, 1
	c.burst = 50 * time.Millisecond
	return &c
}

// monitorThresholds is the paper's 5% error on every metric column; the
// timestamp gets 0.5% so that its quantization buckets stay narrower than a
// 1%-of-rows window even in 4096-row groups.
func monitorThresholds(t *deepsqueeze.Table) []float64 {
	th := deepsqueeze.UniformThresholds(t, 0.05)
	th[0] = 0.005
	return th
}

// fixedTraining pins the epoch count: with the default convergence test the
// number of epochs — and with it compress time — would depend on the seed's
// data rather than on the code under test.
func fixedTraining(opts *deepsqueeze.Options, epochs int) {
	opts.Train.Epochs = epochs
	opts.Train.ConvergeEps = 1e-12
}

func monitorOptions(experts, code, rowGroup, epochs int) deepsqueeze.Options {
	opts := deepsqueeze.DefaultOptions()
	opts.NumExperts = experts
	opts.CodeSize = code
	opts.RowGroupSize = rowGroup
	opts.Parallelism = 1
	fixedTraining(&opts, epochs)
	return opts
}

func censusOptions() deepsqueeze.Options {
	opts := deepsqueeze.DefaultOptions()
	opts.NumExperts = 1
	opts.CodeSize = 2
	opts.RowGroupSize = 1024
	opts.TrainSampleRows = 1000
	opts.Parallelism = 1
	fixedTraining(&opts, 3)
	return opts
}

// censusHead draws rows from the first 24 of datagen.Census's 68 columns: all
// 68 cost too much per decoded row for the sample floors to fit in a run.
// datagen.Census takes its column cardinalities and factor tables from the
// same random stream as its rows, which would make ratio and decode cost
// differ by several percent from seed to seed; so the generator runs on a
// fixed stream and the seed chooses which of its rows the table holds.
func censusHead(rng *rand.Rand, rows int) *deepsqueeze.Table {
	const keep, poolFactor = 24, 4
	pool := datagen.Census(rand.New(rand.NewSource(censusStructureSeed)), poolFactor*rows)
	pick := rng.Perm(pool.NumRows())[:rows]
	t := deepsqueeze.NewTable(deepsqueeze.NewSchema(pool.Schema.Columns[:keep]...), 0)
	for c := 0; c < keep; c++ {
		col := make([]string, rows)
		for i, r := range pick {
			col[i] = pool.Str[c][r]
		}
		t.Str[c] = col
	}
	t.SetNumRows(rows)
	return t
}

// monitorQueries: point = a 1%-of-rows timestamp window (16 of them, hot),
// scan = the first half of the time range with a residual predicate on a
// model column. Every window lies in the same number of row groups — inside
// one group, or across one group boundary when straddle is set — because a
// window that happens to touch a second group costs twice as much, and with
// free placement the seed would decide whether point_p95_ms sees such windows
// (its quartile distance over ten seeds was 27% on archive-numeric). margin
// keeps a window's ends away from the boundaries by more than the
// timestamp's quantization error, so zone maps prune the neighbours.
func monitorQueries(groupRows int, straddle bool) func(rng *rand.Rand, src *deepsqueeze.Table) ([]querySpec, querySpec) {
	return func(rng *rand.Rand, src *deepsqueeze.Table) ([]querySpec, querySpec) {
		rows := src.NumRows()
		groupRows := min(groupRows, rows)
		ts := src.Num[0]
		// 1% of the rows, but never narrower than a few of the timestamp's
		// quantization buckets (0.5% of a group's range either way).
		window := max(rows/100, groupRows/32)
		margin := min(groupRows/32, window/4)
		points := make([]querySpec, hotQueries)
		for i := range points {
			var lo int
			if straddle {
				lo = rng.Intn(rows/groupRows-1)*groupRows + groupRows - window + margin + rng.Intn(window-2*margin+1)
			} else {
				lo = rng.Intn(rows/groupRows)*groupRows + margin + rng.Intn(groupRows-window-2*margin+1)
			}
			points[i] = querySpec{
				conds: []cond{{col: "timestamp", op: ">=", num: ts[lo]}, {col: "timestamp", op: "<", num: ts[lo+window]}},
				sel:   []string{"timestamp", "machine_id", "cpu_user", "temp_cpu"},
			}
		}
		cpu := append([]float64(nil), src.Num[2]...)
		sort.Float64s(cpu)
		mid := rows/2 + rng.Intn(rows/50)
		scan := querySpec{
			conds: []cond{{col: "timestamp", op: "<", num: ts[mid]}, {col: "cpu_user", op: ">", num: cpu[rows/2]}},
			sel:   []string{"timestamp", "machine_id", "cpu_user", "mem_used", "load1"},
		}
		return points, scan
	}
}

// mode returns the most frequent value among col's rows in keep (every row
// when keep is nil); ties go to the smaller string.
func mode(col []string, keep func(r int) bool) string {
	counts := make(map[string]int)
	for r, v := range col {
		if keep == nil || keep(r) {
			counts[v]++
		}
	}
	best := ""
	for v, n := range counts {
		if n > counts[best] || n == counts[best] && v < best {
			best = v
		}
	}
	return best
}

// censusQueries: point = two equality conjuncts selecting 3 columns, scan =
// one equality selecting every column. Which columns each hot query names is
// fixed, like the table's structure, and the literals are the most frequent
// values in the seed's rows, so the seed moves the selectivities by sampling
// noise only; nothing prunes, so a query's cost is its columns' decode.
func censusQueries(_ *rand.Rand, src *deepsqueeze.Table) ([]querySpec, querySpec) {
	ncol := src.Schema.NumColumns()
	name := func(c int) string { return src.Schema.Columns[c].Name }
	shape := rand.New(rand.NewSource(censusStructureSeed))
	points := make([]querySpec, hotQueries)
	for i := range points {
		p := shape.Perm(ncol)
		a, b, c := p[0], p[1], p[2]
		va := mode(src.Str[a], nil)
		vb := mode(src.Str[b], func(r int) bool { return src.Str[a][r] == va })
		points[i] = querySpec{
			conds: []cond{{col: name(a), op: "=", str: va}, {col: name(b), op: "=", str: vb}},
			sel:   []string{name(a), name(b), name(c)},
		}
	}
	c := shape.Intn(ncol)
	scan := querySpec{conds: []cond{{col: name(c), op: "=", str: mode(src.Str[c], nil)}}}
	return points, scan
}
