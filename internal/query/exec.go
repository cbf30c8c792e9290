package query

import (
	"context"
	"fmt"
	"math"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/pipeline"
)

// AggKind selects an aggregate function.
type AggKind int

const (
	AggCount AggKind = iota
	AggMin
	AggMax
	AggSum
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// AggOp is one requested aggregate: count (Col empty) or min/max/sum over a
// numeric column.
type AggOp struct {
	Kind AggKind
	Col  string
}

// Aggregate is one computed aggregate value. Min and max over zero matching
// rows are NaN; sum is 0; count is the match count.
type Aggregate struct {
	Op    AggOp
	Value float64
}

// Options configures a query.
type Options struct {
	// Where filters rows; nil selects every row. Predicates evaluate against
	// decoded values, so the result is identical to decompressing everything
	// and filtering — zone maps only decide which row groups are decoded.
	Where Pred

	// Select projects row output onto the named columns; nil selects every
	// column. The output schema lists columns in archive schema order, same
	// as DecompressOptions.Columns. Ignored when Aggs is non-empty.
	Select []string

	// Aggs switches the query to aggregate mode: no row output, only the
	// requested aggregates over the matching rows.
	Aggs []AggOp

	// Parallelism bounds the worker pool; <= 0 selects runtime.NumCPU().
	// Results are byte-for-byte identical at every parallelism level.
	Parallelism int

	// Limit, when positive, caps the number of matching rows returned in row
	// mode (the first Limit matches in row order). Matched still reports the
	// full count. Ignored in aggregate mode.
	Limit int

	// Pool, when non-nil, runs the query's decode and filter stages over the
	// caller's shared worker pool instead of a fresh one, and Parallelism is
	// ignored — how a server bounds total work across concurrent queries.
	Pool *pipeline.Pool

	// Blocks, when non-nil, is where the executor gets the decoded column
	// blocks it filters, folds and packs (the serve layer's decoded-block
	// cache: groups it already holds skip the parse→scan→unpack→decode
	// pipeline entirely). When nil, the executor decodes the surviving
	// groups' blocks from the handle itself, over the query's own pool. The
	// rows and aggregates are the same either way; only the Stages and
	// BytesSkipped instrumentation differs.
	Blocks BlockSource
}

// BlockSource supplies decoded column blocks for (row group, column) pairs —
// implemented by the serve layer's byte-budgeted block cache. Blocks returns
// one block per requested pair, indexed [len(groups)][len(cols)]; both lists
// are strictly ascending (groups are archive group indexes, cols schema
// column indexes). Every returned block must be immutable and byte-identical
// to the corresponding span of a full decompression of its archive.
type BlockSource interface {
	Blocks(ctx context.Context, groups []int, cols []int) ([][]*core.ColumnBlock, error)
}

// Result is a query outcome.
type Result struct {
	// Table holds the matching rows projected onto the selected columns; nil
	// in aggregate mode.
	Table *dataset.Table
	// Matched counts the rows satisfying Where across the whole archive.
	Matched int
	// Aggregates holds one entry per requested AggOp, in request order.
	Aggregates []Aggregate

	// GroupsTotal and GroupsPruned report zone-map pruning: pruned groups'
	// segments were skipped without decoding.
	GroupsTotal  int
	GroupsPruned int
	// BytesSkipped is the archive bytes never decoded. A query that decodes
	// from the handle reports the decode's scan-stage counter: pruned row
	// groups plus unselected columns' streams. With a BlockSource nothing is
	// scanned here, so it is the pruned groups' segment bytes only.
	BytesSkipped int64
	// Stages reports per-stage instrumentation in execution order: how the
	// blocks were obtained — the decode's own stages (parse, scan, unpack,
	// resolve, decode, assemble), or one "blocks" stage timing the
	// BlockSource — then filter, then pack (row mode only).
	Stages []core.StageStats
}

// Run executes a query against an archive. See RunContext.
func Run(archive []byte, opts Options) (*Result, error) {
	return RunContext(context.Background(), archive, opts)
}

// RunContext evaluates Where against the archive, using per-row-group zone
// maps to skip groups that cannot contain a match, and returns the matching
// rows (projected onto Select) or the requested aggregates. Pruning is
// purely an optimization: predicates are re-evaluated on decoded values, so
// the rows returned are exactly those a full decompress-then-filter would
// produce, byte for byte, at every parallelism level.
//
// Callers issuing repeated queries should core.Open the archive once and use
// RunArchive, which reuses the handle's parsed index and decoders.
func RunContext(ctx context.Context, archive []byte, opts Options) (*Result, error) {
	a, err := core.Open(archive)
	if err != nil {
		return nil, err
	}
	return RunArchive(ctx, a, opts)
}

// RunArchive is RunContext against an open handle: planning reads the
// handle's cached row-group index and zone maps, and decoding reuses its
// cached decoders, so a warm handle pays per query only for the groups and
// columns the query touches. Concurrent calls against one handle are safe.
func RunArchive(ctx context.Context, a *core.Archive, opts Options) (*Result, error) {
	idx, err := a.Index()
	if err != nil {
		return nil, err
	}
	if idx.External {
		return nil, fmt.Errorf("query: archive references an external model; decode it with DecompressBatch and its model archive")
	}
	res := &Result{GroupsTotal: len(idx.Groups)}
	p := plan{idx: idx, aggMode: len(opts.Aggs) > 0}

	if opts.Where != nil {
		if p.b, err = bind(opts.Where, idx.Plan); err != nil {
			return nil, err
		}
	}
	schema := idx.Plan.Schema.Columns
	colIdx := func(name string) (int, error) {
		for i, c := range schema {
			if c.Name == name {
				return i, nil
			}
		}
		return 0, fmt.Errorf("query: unknown column %q", name)
	}
	p.aggCols = make([]int, len(opts.Aggs))
	for i, a := range opts.Aggs {
		switch a.Kind {
		case AggCount:
			if a.Col != "" {
				return nil, fmt.Errorf("query: count takes no column (got %q)", a.Col)
			}
			p.aggCols[i] = -1
		case AggMin, AggMax, AggSum:
			j, err := colIdx(a.Col)
			if err != nil {
				return nil, err
			}
			if schema[j].Type != dataset.Numeric {
				return nil, fmt.Errorf("query: %s needs a numeric column, %q is categorical", a.Kind, a.Col)
			}
			p.aggCols[i] = j
		default:
			return nil, fmt.Errorf("query: unknown aggregate kind %d", int(a.Kind))
		}
	}
	selIdx := make([]int, len(opts.Select))
	for i, name := range opts.Select {
		if selIdx[i], err = colIdx(name); err != nil {
			return nil, err
		}
	}

	// Prune row groups whose zones cannot contain a match. Archives without
	// zone maps (v1, or written with NoZoneMaps) keep every group.
	p.groups = make([]int, 0, len(idx.Groups))
	for i, g := range idx.Groups {
		if p.b == nil || g.Zones == nil || p.b.mayMatch(g.Zones) {
			p.groups = append(p.groups, i)
		} else {
			res.GroupsPruned++
			p.prunedBytes += g.SegmentBytes
		}
	}

	// Fast path: an unfiltered pure count needs no decoding at all.
	if p.b == nil && p.aggMode && pureCount(opts.Aggs) {
		res.Matched = idx.Rows
		for i := range opts.Aggs {
			res.Aggregates = append(res.Aggregates, Aggregate{Op: opts.Aggs[i], Value: float64(idx.Rows)})
		}
		return res, nil
	}

	// outCols is what row mode returns — the selection (every column when
	// there is none) in archive schema order, same as DecompressOptions —
	// and needCols the union the query touches: selected, aggregated and
	// filtered-on columns.
	if !p.aggMode && len(selIdx) == 0 {
		for j := range schema {
			selIdx = append(selIdx, j)
		}
	}
	p.outCols = core.SortedUnique(selIdx)
	p.needCols = append(p.needCols, p.outCols...)
	for _, j := range p.aggCols {
		if j >= 0 {
			p.needCols = append(p.needCols, j)
		}
	}
	if p.b != nil {
		p.needCols = append(p.needCols, p.b.cols...)
	}
	p.needCols = core.SortedUnique(p.needCols)
	return execute(ctx, a, opts, res, p)
}

// pureCount reports whether every requested aggregate is a bare count.
func pureCount(aggs []AggOp) bool {
	for _, a := range aggs {
		if a.Kind != AggCount {
			return false
		}
	}
	return true
}

// plan is what the planner hands the executor.
type plan struct {
	idx         *core.ArchiveIndex
	b           *bound // nil: every row matches
	groups      []int  // groups that survive pruning, ascending
	prunedBytes int64  // segment bytes of the groups that did not
	aggMode     bool
	aggCols     []int // per AggOp: the schema column folded, -1 for count
	outCols     []int // row mode: output schema columns, ascending
	needCols    []int // schema columns the query touches, ascending
}

// handleSource is the BlockSource of a query that was given none: it
// decodes exactly the requested blocks from the handle, on the query's own
// run — so the decode honours the query's context, Pool and Parallelism, and
// its stages land in the run's stats ahead of filter and pack.
type handleSource struct {
	a   *core.Archive
	run *pipeline.Run
}

func (s handleSource) Blocks(_ context.Context, groups []int, cols []int) ([][]*core.ColumnBlock, error) {
	return s.a.DecodeBlocksRun(s.run, groups, cols)
}

// execute is the one query executor: it fetches the surviving groups'
// blocks, filters each group with branch-lean chunked kernels over
// worker-local pooled scratch (one work item per row group, so a one-group
// or version-1 archive filters on one worker), folds aggregates serially in
// global row order, and packs each output column into a preallocated,
// offset-addressed slice. Beyond the decode itself a query allocates
// O(result) plus O(surviving groups) bookkeeping, never O(rows decoded), and
// every output is index-addressed, so results are byte-identical at every
// parallelism level.
func execute(ctx context.Context, a *core.Archive, opts Options, res *Result, p plan) (*Result, error) {
	var run *pipeline.Run
	if opts.Pool != nil {
		run = pipeline.NewWithPool(ctx, opts.Pool)
	} else {
		run = pipeline.New(ctx, opts.Parallelism)
	}
	groups := p.idx.Groups
	gids := p.groups

	var blocks [][]*core.ColumnBlock
	fetch := func(src BlockSource) (int64, error) {
		var err error
		if blocks, err = src.Blocks(ctx, gids, p.needCols); err != nil {
			return 0, err
		}
		if len(blocks) != len(gids) {
			return 0, fmt.Errorf("query: block source returned %d groups, want %d", len(blocks), len(gids))
		}
		var total int64
		for gi, g := range gids {
			if len(blocks[gi]) != len(p.needCols) {
				return 0, fmt.Errorf("query: block source returned %d columns for group %d, want %d",
					len(blocks[gi]), g, len(p.needCols))
			}
			for ci, blk := range blocks[gi] {
				if blk == nil || blk.Len() != groups[g].Count {
					return 0, fmt.Errorf("query: block source returned a bad block for group %d column %d", g, p.needCols[ci])
				}
				total += blk.Bytes()
			}
		}
		return total, nil
	}
	var err error
	if opts.Blocks == nil {
		// Asked even when every group was pruned: the scan still has the
		// skipped bytes to report.
		_, err = fetch(handleSource{a, run})
	} else if len(gids) > 0 {
		err = run.StageBytes("blocks", func() (int64, error) { return fetch(opts.Blocks) })
	}
	if err != nil {
		return nil, err
	}

	// Filter: one keep bitmap per group. Each group's bitmap and count land
	// in index-addressed slots, so the outcome is parallelism-independent.
	counts := make([]int, len(gids))
	keeps := make([][]bool, len(gids)) // nil entries mean "every row matches"
	var bufs []*boolBuf
	defer func() {
		for _, kb := range bufs {
			putBoolBuf(kb)
		}
	}()
	err = run.Stage("filter", func() error {
		if p.b == nil {
			for gi, g := range gids {
				counts[gi] = groups[g].Count
			}
			return nil
		}
		bufs = make([]*boolBuf, len(gids))
		scratches := make([]*kernelScratch, run.Parallelism())
		defer func() {
			for _, sc := range scratches {
				if sc != nil {
					putScratch(sc)
				}
			}
		}()
		return run.ForEachWorker(len(gids), func(w, gi int) error {
			sc := scratches[w]
			if sc == nil {
				sc = getScratch(len(p.idx.Plan.Schema.Columns))
				scratches[w] = sc
			}
			rows := groups[gids[gi]].Count
			kb := getBoolBuf(rows)
			bufs[gi] = kb
			keeps[gi] = kb.b
			sc.scatter(blocks[gi], p.needCols)
			p.b.evalBlock(sc, rows, kb.b)
			n := 0
			for _, k := range kb.b {
				if k {
					n++
				}
			}
			counts[gi] = n
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, n := range counts {
		res.Matched += n
	}

	// posOf maps a schema column to its position among the fetched blocks.
	posOf := make([]int, len(p.idx.Plan.Schema.Columns))
	for pos, c := range p.needCols {
		posOf[c] = pos
	}
	if p.aggMode {
		res.Aggregates = foldAggs(opts.Aggs, p.aggCols, posOf, blocks, keeps, res.Matched)
	} else if res.Table, err = pack(run, p, posOf, blocks, keeps, counts, opts.Limit); err != nil {
		return nil, err
	}

	res.Stages = run.Stats()
	res.BytesSkipped = p.prunedBytes
	if opts.Blocks == nil {
		for _, st := range res.Stages {
			if st.Name == "scan" {
				res.BytesSkipped = st.Bytes
			}
		}
	}
	return res, nil
}

// pack gathers the kept rows of every group into the output table: the
// first limit matches in global row order (all of them when limit <= 0).
// Per-group take counts and their prefix sums give every group a disjoint
// span of each output column.
func pack(run *pipeline.Run, p plan, posOf []int, blocks [][]*core.ColumnBlock, keeps [][]bool, counts []int, limit int) (*dataset.Table, error) {
	nOut := 0
	for _, n := range counts {
		nOut += n
	}
	if limit > 0 && limit < nOut {
		nOut = limit
	}
	take := make([]int, len(counts))
	offs := make([]int, len(counts))
	rem := nOut
	for gi, n := range counts {
		if n > rem {
			n = rem
		}
		take[gi] = n
		offs[gi] = nOut - rem
		rem -= n
	}
	outCols := make([]dataset.Column, len(p.outCols))
	for i, c := range p.outCols {
		outCols[i] = p.idx.Plan.Schema.Columns[c]
	}
	out := dataset.NewTable(dataset.NewSchema(outCols...), 0)
	err := run.Stage("pack", func() error {
		return run.ForEach(len(outCols), func(i int) error {
			pos := posOf[p.outCols[i]]
			if outCols[i].Type == dataset.Categorical {
				dst := make([]string, nOut)
				for gi := range blocks {
					packRows(dst[offs[gi]:offs[gi]+take[gi]], blocks[gi][pos].Str, keeps[gi])
				}
				out.Str[i] = dst
			} else {
				dst := make([]float64, nOut)
				for gi := range blocks {
					packRows(dst[offs[gi]:offs[gi]+take[gi]], blocks[gi][pos].Num, keeps[gi])
				}
				out.Num[i] = dst
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	out.SetNumRows(nOut)
	return out, nil
}

// packRows gathers the first len(dst) kept rows of src into dst; a nil keep
// gathers the leading rows.
func packRows[T string | float64](dst, src []T, keep []bool) {
	if len(dst) == 0 {
		return
	}
	if keep == nil {
		copy(dst, src)
		return
	}
	n := 0
	for r, k := range keep {
		if k {
			dst[n] = src[r]
			n++
			if n == len(dst) {
				return
			}
		}
	}
}

// foldAggs evaluates the aggregates serially over groups in archive order
// and rows in group order — global row order, so the float operations (and
// therefore sums) come out bit-identical at every parallelism level.
func foldAggs(aggs []AggOp, aggCols []int, posOf []int, blocks [][]*core.ColumnBlock, keeps [][]bool, matched int) []Aggregate {
	out := make([]Aggregate, len(aggs))
	for i, a := range aggs {
		out[i].Op = a
		switch a.Kind {
		case AggCount:
			out[i].Value = float64(matched)
		case AggMin, AggMax:
			v := math.NaN()
			pos := posOf[aggCols[i]]
			for gi := range blocks {
				keep := keeps[gi]
				for r, x := range blocks[gi][pos].Num {
					if keep != nil && !keep[r] {
						continue
					}
					if math.IsNaN(v) ||
						(a.Kind == AggMin && x < v) ||
						(a.Kind == AggMax && x > v) {
						v = x
					}
				}
			}
			out[i].Value = v
		case AggSum:
			var s float64
			pos := posOf[aggCols[i]]
			for gi := range blocks {
				keep := keeps[gi]
				for r, x := range blocks[gi][pos].Num {
					if keep == nil || keep[r] {
						s += x
					}
				}
			}
			out[i].Value = s
		}
	}
	return out
}
