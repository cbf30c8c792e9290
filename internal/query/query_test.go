package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/dataset"
)

// queryTable builds a deterministic mixed table tuned for pruning tests:
// seq is monotone (adjacent row groups get disjoint zones), noise is
// uniform, grade has five distinct values (value dictionary), tag cycles a
// small alphabet (categorical bitmap zones).
func queryTable(rows int, seed int64) *dataset.Table {
	schema := dataset.NewSchema(
		dataset.Column{Name: "tag", Type: dataset.Categorical},
		dataset.Column{Name: "seq", Type: dataset.Numeric},
		dataset.Column{Name: "noise", Type: dataset.Numeric},
		dataset.Column{Name: "grade", Type: dataset.Numeric},
	)
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"alpha", "beta", "gamma", "delta"}
	tb := dataset.NewTable(schema, rows)
	for i := 0; i < rows; i++ {
		tb.AppendRow(
			[]string{tags[rng.Intn(len(tags))]},
			[]float64{float64(i), rng.Float64()*200 - 100, float64(i % 5)},
		)
	}
	return tb
}

func compressQueryTable(t *testing.T, rows int, seed int64, groupSize int) []byte {
	t.Helper()
	opts := core.DefaultOptions()
	opts.CodeSize = 2
	opts.Train.Epochs = 3
	opts.Train.BatchSize = 128
	opts.Seed = seed
	opts.RowGroupSize = groupSize
	res, err := core.Compress(queryTable(rows, seed), []float64{0, 0.01, 0.01, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Archive
}

// naiveEval is an independent reference evaluator over the fully decoded
// table — deliberately written against the raw AST, not the bound plan, so
// a planner bug cannot hide on both sides of the equivalence check.
func naiveEval(t *testing.T, p Pred, tb *dataset.Table, r int) bool {
	t.Helper()
	col := func(name string) int {
		for i, c := range tb.Schema.Columns {
			if c.Name == name {
				return i
			}
		}
		t.Fatalf("naive: unknown column %q", name)
		return -1
	}
	switch q := p.(type) {
	case cmpPred:
		c := col(q.col)
		if tb.Schema.Columns[c].Type == dataset.Categorical {
			return tb.Str[c][r] == q.val.s
		}
		v := tb.Num[c][r]
		switch q.op {
		case OpEq:
			return v == q.val.f
		case OpLt:
			return v < q.val.f
		case OpLe:
			return v <= q.val.f
		case OpGt:
			return v > q.val.f
		case OpGe:
			return v >= q.val.f
		}
	case inPred:
		c := col(q.col)
		for _, val := range q.vals {
			if tb.Schema.Columns[c].Type == dataset.Categorical {
				if tb.Str[c][r] == val.s {
					return true
				}
			} else if tb.Num[c][r] == val.f {
				return true
			}
		}
		return false
	case andPred:
		for _, k := range q.kids {
			if !naiveEval(t, k, tb, r) {
				return false
			}
		}
		return true
	case orPred:
		for _, k := range q.kids {
			if naiveEval(t, k, tb, r) {
				return true
			}
		}
		return false
	case notPred:
		return !naiveEval(t, q.kid, tb, r)
	}
	t.Fatalf("naive: unhandled predicate %T", p)
	return false
}

func naiveMatches(t *testing.T, p Pred, tb *dataset.Table) []int {
	t.Helper()
	var rows []int
	for r := 0; r < tb.NumRows(); r++ {
		if p == nil || naiveEval(t, p, tb, r) {
			rows = append(rows, r)
		}
	}
	return rows
}

func tableCSV(t *testing.T, tb *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randPred generates a random valid predicate over queryTable's schema.
func randPred(rng *rand.Rand, depth int) Pred {
	if depth > 0 && rng.Float64() < 0.6 {
		switch rng.Intn(3) {
		case 0:
			return And(randPred(rng, depth-1), randPred(rng, depth-1))
		case 1:
			return Or(randPred(rng, depth-1), randPred(rng, depth-1))
		default:
			return Not(randPred(rng, depth-1))
		}
	}
	tags := []string{"alpha", "beta", "gamma", "delta", "unknown"}
	switch rng.Intn(6) {
	case 0:
		lo := rng.Float64() * 1200
		return Ge("seq", lo)
	case 1:
		return Lt("seq", rng.Float64()*1200)
	case 2:
		return Gt("noise", rng.Float64()*200-100)
	case 3:
		return Eq("grade", float64(rng.Intn(6)))
	case 4:
		return Eq("tag", tags[rng.Intn(len(tags))])
	default:
		return In("grade", float64(rng.Intn(5)), float64(rng.Intn(5)))
	}
}

// checkAgainstReference answers opts the slow way, straight off the fully
// decoded table, and fails unless res agrees: naiveEval row by row, the
// projection by column name in archive order, Limit applied to the row
// output only, and min/max/sum folded serially in row order — compared bit
// for bit, since the executor promises the same float operation order at
// every parallelism level.
func checkAgainstReference(t *testing.T, res *Result, full *dataset.Table, opts Options) {
	t.Helper()
	label := fmt.Sprintf("where %v select %v aggs %v limit %d p=%d", opts.Where, opts.Select, opts.Aggs, opts.Limit, opts.Parallelism)
	want := naiveMatches(t, opts.Where, full)
	if res.Matched != len(want) {
		t.Fatalf("%s: matched %d rows, naive says %d", label, res.Matched, len(want))
	}
	colOf := func(name string) int {
		for i, c := range full.Schema.Columns {
			if c.Name == name {
				return i
			}
		}
		t.Fatalf("%s: unknown column %q", label, name)
		return -1
	}
	if len(opts.Aggs) > 0 {
		if res.Table != nil {
			t.Fatalf("%s: aggregate mode returned a row table", label)
		}
		if len(res.Aggregates) != len(opts.Aggs) {
			t.Fatalf("%s: %d aggregates, want %d", label, len(res.Aggregates), len(opts.Aggs))
		}
		for i, op := range opts.Aggs {
			var v float64
			switch op.Kind {
			case AggCount:
				v = float64(len(want))
			case AggSum:
				for _, r := range want {
					v += full.Num[colOf(op.Col)][r]
				}
			default:
				v = math.NaN()
				for _, r := range want {
					x := full.Num[colOf(op.Col)][r]
					if math.IsNaN(v) || (op.Kind == AggMin && x < v) || (op.Kind == AggMax && x > v) {
						v = x
					}
				}
			}
			if got := res.Aggregates[i]; got.Op != op || math.Float64bits(got.Value) != math.Float64bits(v) {
				t.Fatalf("%s: aggregate %d = %+v, serial fold says %v (not bit-identical)", label, i, got, v)
			}
		}
		return
	}
	if opts.Limit > 0 && opts.Limit < len(want) {
		want = want[:opts.Limit]
	}
	rows := full.Sample(want)
	if opts.Select != nil {
		selected := map[int]bool{}
		for _, name := range opts.Select {
			selected[colOf(name)] = true
		}
		var cols []dataset.Column
		var str [][]string
		var num [][]float64
		for i, c := range full.Schema.Columns {
			if selected[i] {
				cols = append(cols, c)
				str = append(str, rows.Str[i])
				num = append(num, rows.Num[i])
			}
		}
		rows = &dataset.Table{Schema: dataset.NewSchema(cols...), Str: str, Num: num}
		rows.SetNumRows(len(want))
	}
	if !bytes.Equal(tableCSV(t, res.Table), tableCSV(t, rows)) {
		t.Fatalf("%s: rows differ from decompress-then-filter", label)
	}
}

// stageNames lists a result's stage names in order.
func stageNames(res *Result) string {
	names := make([]string, len(res.Stages))
	for i, st := range res.Stages {
		names[i] = st.Name
	}
	return strings.Join(names, " ")
}

// TestQueryEquivalence is the engine's core contract: for randomized
// predicates × projections × aggregates × limits, a query returns byte for
// byte the rows — and bit for bit the aggregates — that a full decompress-
// then-filter produces, at parallelism 1, 4, and NumCPU.
func TestQueryEquivalence(t *testing.T) {
	archive := compressQueryTable(t, 1000, 61, 100)
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	projections := [][]string{nil, {"seq"}, {"noise", "tag"}, {"grade", "seq", "grade"}}
	aggSets := [][]AggOp{
		nil,
		{{Kind: AggCount}},
		{{Kind: AggSum, Col: "noise"}, {Kind: AggMin, Col: "seq"}, {Kind: AggMax, Col: "noise"}},
	}
	prunedTotal := 0
	for trial := 0; trial < 30; trial++ {
		opts := Options{
			Select: projections[trial%len(projections)],
			Aggs:   aggSets[trial%len(aggSets)],
		}
		if trial > 0 { // trial 0 has no filter
			opts.Where = randPred(rng, 2)
		}
		if opts.Aggs == nil && trial%2 == 0 {
			opts.Limit = rng.Intn(200)
		}
		var first *Result
		for _, par := range []int{1, 4, runtime.NumCPU()} {
			opts.Parallelism = par
			res, err := Run(archive, opts)
			if err != nil {
				t.Fatalf("trial %d (%v) p=%d: %v", trial, opts.Where, par, err)
			}
			checkAgainstReference(t, res, full, opts)
			if first == nil {
				first = res
			} else if res.GroupsPruned != first.GroupsPruned || res.BytesSkipped != first.BytesSkipped {
				t.Fatalf("trial %d p=%d: pruned %d groups / skipped %d bytes, at p=1 %d / %d",
					trial, par, res.GroupsPruned, res.BytesSkipped, first.GroupsPruned, first.BytesSkipped)
			}
			prunedTotal += res.GroupsPruned
		}
	}
	if prunedTotal == 0 {
		t.Fatal("no trial pruned any group — zone maps are not engaging")
	}
}

// TestQueryPruning checks that a tight range over the monotone column prunes
// most groups, skips their bytes, and still returns exact results.
func TestQueryPruning(t *testing.T) {
	archive := compressQueryTable(t, 1000, 63, 100)
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	p := And(Ge("seq", 420), Lt("seq", 480))
	res, err := Run(archive, Options{Where: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsTotal != 10 {
		t.Fatalf("GroupsTotal = %d, want 10", res.GroupsTotal)
	}
	if res.GroupsPruned < 7 {
		t.Fatalf("pruned %d of %d groups, want most of them", res.GroupsPruned, res.GroupsTotal)
	}
	if res.BytesSkipped == 0 {
		t.Fatal("no bytes skipped despite pruned groups")
	}
	// A query that decodes from the handle reports the decode's own stages
	// ahead of filter and pack, and its scan counter as BytesSkipped.
	if got := stageNames(res); got != "parse scan unpack resolve decode assemble filter pack" {
		t.Fatalf("stages %q", got)
	}
	if res.Stages[1].Bytes != res.BytesSkipped {
		t.Fatalf("BytesSkipped %d, scan stage skipped %d", res.BytesSkipped, res.Stages[1].Bytes)
	}
	want := naiveMatches(t, p, full)
	if res.Matched != len(want) || !bytes.Equal(tableCSV(t, res.Table), tableCSV(t, full.Sample(want))) {
		t.Fatal("pruned query differs from decompress-then-filter")
	}

	// A predicate outside the column's range prunes everything.
	none, err := Run(archive, Options{Where: Gt("seq", 1e9)})
	if err != nil {
		t.Fatal(err)
	}
	if none.Matched != 0 || none.Table.NumRows() != 0 {
		t.Fatalf("impossible predicate matched %d rows", none.Matched)
	}
	if none.GroupsPruned != none.GroupsTotal {
		t.Fatalf("impossible predicate pruned %d of %d groups", none.GroupsPruned, none.GroupsTotal)
	}
	if stageNames(none) != stageNames(res) || none.BytesSkipped <= res.BytesSkipped {
		t.Fatalf("all-pruned query: stages %q, %d bytes skipped (partial prune skipped %d)",
			stageNames(none), none.BytesSkipped, res.BytesSkipped)
	}
}

// TestQueryProjection pins row-mode projection: output schema follows
// archive column order regardless of request order, and values match the
// projected full decode.
func TestQueryProjection(t *testing.T) {
	archive := compressQueryTable(t, 400, 64, 100)
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	p := Lt("seq", 150)
	res, err := Run(archive, Options{Where: p, Select: []string{"grade", "tag"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Table.Schema.Columns); got != 2 {
		t.Fatalf("%d output columns, want 2", got)
	}
	if res.Table.Schema.Columns[0].Name != "tag" || res.Table.Schema.Columns[1].Name != "grade" {
		t.Fatalf("output columns %v, want archive order [tag grade]", res.Table.Schema.Columns)
	}
	want := naiveMatches(t, p, full)
	sampled := full.Sample(want)
	for r := 0; r < res.Table.NumRows(); r++ {
		if res.Table.Str[0][r] != sampled.Str[0][r] || res.Table.Num[1][r] != sampled.Num[3][r] {
			t.Fatalf("row %d differs from projected full decode", r)
		}
	}
	if res.Table.NumRows() != len(want) {
		t.Fatalf("projected %d rows, want %d", res.Table.NumRows(), len(want))
	}
}

// TestQueryAggregates checks aggregate mode against naive computation,
// including the zero-match conventions (NaN min/max, zero sum and count).
func TestQueryAggregates(t *testing.T) {
	archive := compressQueryTable(t, 500, 65, 100)
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	p := Ge("seq", 200)
	aggs := []AggOp{
		{Kind: AggCount},
		{Kind: AggMin, Col: "noise"},
		{Kind: AggMax, Col: "noise"},
		{Kind: AggSum, Col: "grade"},
	}
	res, err := Run(archive, Options{Where: p, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table != nil {
		t.Fatal("aggregate mode returned a row table")
	}
	want := naiveMatches(t, p, full)
	mn, mx, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, r := range want {
		mn = math.Min(mn, full.Num[2][r])
		mx = math.Max(mx, full.Num[2][r])
		sum += full.Num[3][r]
	}
	got := res.Aggregates
	if len(got) != 4 {
		t.Fatalf("%d aggregates, want 4", len(got))
	}
	if got[0].Value != float64(len(want)) || got[1].Value != mn || got[2].Value != mx || got[3].Value != sum {
		t.Fatalf("aggregates %v, want count=%d min=%g max=%g sum=%g", got, len(want), mn, mx, sum)
	}

	// Zero matching rows: min/max NaN, sum 0, count 0.
	zero, err := Run(archive, Options{Where: Gt("seq", 1e9), Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Aggregates[0].Value != 0 || !math.IsNaN(zero.Aggregates[1].Value) ||
		!math.IsNaN(zero.Aggregates[2].Value) || zero.Aggregates[3].Value != 0 {
		t.Fatalf("zero-match aggregates %v", zero.Aggregates)
	}

	// The unfiltered pure count avoids decoding entirely.
	cnt, err := Run(archive, Options{Aggs: []AggOp{{Kind: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Matched != 500 || cnt.Aggregates[0].Value != 500 {
		t.Fatalf("pure count = %v (matched %d), want 500", cnt.Aggregates, cnt.Matched)
	}
	if len(cnt.Stages) != 0 {
		t.Fatalf("pure count ran %d stages, want none", len(cnt.Stages))
	}

	// Aggregate validation errors.
	if _, err := Run(archive, Options{Aggs: []AggOp{{Kind: AggMin, Col: "tag"}}}); err == nil {
		t.Fatal("min over a categorical column accepted")
	}
	if _, err := Run(archive, Options{Aggs: []AggOp{{Kind: AggCount, Col: "seq"}}}); err == nil {
		t.Fatal("count with a column accepted")
	}
	if _, err := Run(archive, Options{Aggs: []AggOp{{Kind: AggSum, Col: "nope"}}}); err == nil {
		t.Fatal("sum over an unknown column accepted")
	}
}

// TestQueryLimit caps row output while still reporting the full match count.
func TestQueryLimit(t *testing.T) {
	archive := compressQueryTable(t, 400, 66, 100)
	res, err := Run(archive, Options{Where: Ge("seq", 100), Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 7 {
		t.Fatalf("limit returned %d rows, want 7", res.Table.NumRows())
	}
	if res.Matched <= 7 {
		t.Fatalf("Matched = %d, want the uncapped count", res.Matched)
	}
}

// TestQueryV1 runs the engine over a frozen version-1 golden archive: no
// zone maps, no pruning — but exact results.
func TestQueryV1(t *testing.T) {
	archive, err := os.ReadFile(filepath.Join("..", "core", "testdata", "categorical.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	p := Or(Eq("city", "cusco"), Eq("tier", "std"))
	res, err := Run(archive, Options{Where: p})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveMatches(t, p, full)
	if res.Matched != len(want) {
		t.Fatalf("matched %d, naive says %d", res.Matched, len(want))
	}
	if res.GroupsPruned != 0 || res.GroupsTotal != 1 {
		t.Fatalf("v1 pruning stats %d/%d, want 0/1", res.GroupsPruned, res.GroupsTotal)
	}
	if !bytes.Equal(tableCSV(t, res.Table), tableCSV(t, full.Sample(want))) {
		t.Fatal("v1 query differs from decompress-then-filter")
	}
}

// TestQueryStreamingUnseen queries a streaming-written archive whose later
// groups contain categorical values absent from the training dictionary: the
// overflow bit must keep those groups alive for out-of-dictionary literals.
func TestQueryStreamingUnseen(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Column{Name: "tag", Type: dataset.Categorical},
		dataset.Column{Name: "val", Type: dataset.Numeric},
	)
	tb := dataset.NewTable(schema, 300)
	for i := 0; i < 300; i++ {
		tag := fmt.Sprintf("t%d", i%3)
		if i >= 200 {
			tag = fmt.Sprintf("new%d", i%2)
		}
		tb.AppendRow([]string{tag}, []float64{float64(i)})
	}
	opts := core.DefaultOptions()
	opts.CodeSize = 2
	opts.Train.Epochs = 2
	opts.Train.BatchSize = 64
	opts.Seed = 9
	opts.RowGroupSize = 100
	var buf bytes.Buffer
	aw, err := core.NewArchiveWriter(&buf, schema, []float64{0, 0.01}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Write(tb); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Pred{
		Eq("tag", "new1"),          // only in the last group (overflow bit)
		Eq("tag", "t2"),            // only in the first two groups
		Not(In("tag", "t0", "t1")), // negation across bitmap zones
		Eq("tag", "never-existed"), // matches nothing anywhere
	} {
		want := naiveMatches(t, p, full)
		res, err := Run(archive, Options{Where: p})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Matched != len(want) {
			t.Fatalf("%s: matched %d, naive says %d", p, res.Matched, len(want))
		}
		if !bytes.Equal(tableCSV(t, res.Table), tableCSV(t, full.Sample(want))) {
			t.Fatalf("%s: differs from decompress-then-filter", p)
		}
	}
	// Dictionary-only literals must prune the all-unseen third group.
	res, err := Run(archive, Options{Where: Eq("tag", "t0")})
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsPruned == 0 {
		t.Fatal("dictionary literal pruned nothing despite an all-unseen group")
	}
}

// TestBindErrors covers planner rejection paths.
func TestBindErrors(t *testing.T) {
	archive := compressQueryTable(t, 200, 67, 0)
	cases := []struct {
		name string
		p    Pred
	}{
		{"unknown column", Eq("bogus", 1.0)},
		{"range on categorical", Lt("tag", "m")},
		{"string literal on numeric", Eq("seq", "ten")},
		{"numeric literal on categorical", Eq("tag", 3)},
		{"empty IN", In("seq")},
		{"unsupported literal type", Eq("seq", true)},
	}
	for _, tc := range cases {
		if _, err := Run(archive, Options{Where: tc.p}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Run(archive, Options{Select: []string{"bogus"}}); err == nil {
		t.Error("unknown select column accepted")
	}
}

// TestParse covers the predicate grammar.
func TestParse(t *testing.T) {
	good := []struct {
		in   string
		want string // String() of the parsed tree
	}{
		{"seq >= 100", "seq >= 100"},
		{"seq = 1 AND tag = 'hot'", "(seq = 1 AND tag = 'hot')"},
		{"a=1 or b=2 and c=3", "(a = 1 OR (b = 2 AND c = 3))"},
		{"not (a = 1)", "NOT a = 1"},
		{"tag != 'x'", "NOT tag = 'x'"},
		{"tag <> 'it''s'", "NOT tag = 'it''s'"},
		{"grade IN (1, 2, 3)", "grade IN (1, 2, 3)"},
		{"tag NOT IN ('a','b')", "NOT tag IN ('a', 'b')"},
		{"x < -1.5e2", "x < -150"},
		{"(a = 1)", "a = 1"},
	}
	for _, tc := range good {
		p, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if p.String() != tc.want {
			t.Errorf("Parse(%q) = %s, want %s", tc.in, p, tc.want)
		}
	}
	bad := []string{
		"", "seq >", "seq > > 1", "AND seq = 1", "seq = 1 AND", "(seq = 1",
		"seq IN ()", "seq IN (1,)", "tag = 'unterminated", "seq ~ 1",
		"seq = 1 extra", "NOT", "x NOT 5", "1 = seq",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): accepted", in)
		}
	}
	// Parsed predicates run end-to-end.
	archive := compressQueryTable(t, 300, 68, 100)
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse("seq >= 50 AND seq < 120 AND tag != 'alpha'")
	if err != nil {
		t.Fatal(err)
	}
	want := naiveMatches(t, p, full)
	res, err := Run(archive, Options{Where: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != len(want) {
		t.Fatalf("parsed predicate matched %d, naive says %d", res.Matched, len(want))
	}
}

// TestRunArchiveEquivalence checks the handle-based entry point returns
// byte-identical results to the one-shot byte API for randomized predicates,
// projections, aggregates, and limits — including repeated queries against
// the same cached handle.
func TestRunArchiveEquivalence(t *testing.T) {
	archive := compressQueryTable(t, 1000, 71, 100)
	a, err := core.Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 15; trial++ {
		opts := Options{Where: randPred(rng, 2)}
		switch trial % 3 {
		case 1:
			opts.Select = []string{"seq", "tag"}
		case 2:
			opts.Aggs = []AggOp{{Kind: AggCount}, {Kind: AggMin, Col: "seq"}}
			opts.Limit = 50
		}
		want, err := Run(archive, opts)
		if err != nil {
			t.Fatalf("trial %d: byte API: %v", trial, err)
		}
		got, err := RunArchive(context.Background(), a, opts)
		if err != nil {
			t.Fatalf("trial %d: handle: %v", trial, err)
		}
		if got.Matched != want.Matched || got.GroupsPruned != want.GroupsPruned {
			t.Fatalf("trial %d: matched/pruned %d/%d, want %d/%d",
				trial, got.Matched, got.GroupsPruned, want.Matched, want.GroupsPruned)
		}
		if (got.Table == nil) != (want.Table == nil) {
			t.Fatalf("trial %d: table presence differs", trial)
		}
		if got.Table != nil && !bytes.Equal(tableCSV(t, got.Table), tableCSV(t, want.Table)) {
			t.Fatalf("trial %d: handle result differs from byte API", trial)
		}
		if len(got.Aggregates) != len(want.Aggregates) {
			t.Fatalf("trial %d: %d aggregates, want %d", trial, len(got.Aggregates), len(want.Aggregates))
		}
		for i := range got.Aggregates {
			g, w := got.Aggregates[i], want.Aggregates[i]
			same := g.Value == w.Value || (math.IsNaN(g.Value) && math.IsNaN(w.Value))
			if g.Op != w.Op || !same {
				t.Fatalf("trial %d agg %d: %+v != %+v", trial, i, g, w)
			}
		}
	}
}
