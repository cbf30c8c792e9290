package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/query"
)

var (
	altOnce  sync.Once
	altBytes []byte // same schema as testArchive, different content
	altErr   error
)

// altArchive compresses a second table with testArchive's schema but
// different values — the "file swapped on disk" content for invalidation
// tests.
func altArchive(t *testing.T) []byte {
	t.Helper()
	altOnce.Do(func() {
		schema := dataset.NewSchema(
			dataset.Column{Name: "tag", Type: dataset.Categorical},
			dataset.Column{Name: "seq", Type: dataset.Numeric},
			dataset.Column{Name: "noise", Type: dataset.Numeric},
		)
		rows := 1024
		tb := dataset.NewTable(schema, rows)
		rng := rand.New(rand.NewSource(17))
		tags := []string{"c", "d", "e"}
		for i := 0; i < rows; i++ {
			tb.AppendRow([]string{tags[rng.Intn(len(tags))]},
				[]float64{float64(i), rng.Float64() * 100})
		}
		opts := core.DefaultOptions()
		opts.Seed = 17
		opts.CodeSize = 2
		opts.Train.Epochs = 2
		opts.TrainSampleRows = 512
		opts.RowGroupSize = 64
		res, err := core.Compress(tb, []float64{0, 0.001, 0.01}, opts)
		if err != nil {
			altErr = err
			return
		}
		altBytes = res.Archive
	})
	if altErr != nil {
		t.Fatal(altErr)
	}
	return altBytes
}

// resultSig reduces a query result to a comparable signature: matched count,
// row CSV, and bit-exact aggregate values.
func resultSig(t *testing.T, res *query.Result) string {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "matched=%d\n", res.Matched)
	for _, a := range res.Aggregates {
		fmt.Fprintf(&buf, "agg %s %s = %x\n", a.Op.Kind, a.Op.Col, a.Value)
	}
	if res.Table != nil {
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// expectSig runs a query against raw archive bytes (the uncached reference
// path) and returns its signature.
func expectSig(t *testing.T, archive []byte, opts query.Options) string {
	t.Helper()
	res, err := query.Run(archive, opts)
	if err != nil {
		t.Fatal(err)
	}
	return resultSig(t, res)
}

// mixedQueries is the workload the cache tests share: row mode and aggregate
// mode, broad and narrow selectivity, projections and limits — enough shape
// variety that partial hits (same group, different column sets) occur.
func mixedQueries() []query.Options {
	return []query.Options{
		{Where: query.Ge("seq", 900)},
		{Where: query.Lt("seq", 100), Select: []string{"seq"}},
		{Where: query.Gt("noise", 50), Aggs: []query.AggOp{{Kind: query.AggCount}, {Kind: query.AggSum, Col: "noise"}}},
		{Where: query.Eq("tag", "a"), Select: []string{"tag", "noise"}, Limit: 37},
		{Where: query.And(query.Ge("seq", 200), query.Lt("seq", 400)), Aggs: []query.AggOp{{Kind: query.AggMin, Col: "noise"}, {Kind: query.AggMax, Col: "seq"}}},
		{},
	}
}

// TestBlockCacheServesIdenticalResults checks the tentpole contract end to
// end: with the cache on, every query (cold, warm, partially warm) returns
// byte-identical results to the uncached reference, and the second pass over
// the same workload is served from cache (hits grow, misses don't).
func TestBlockCacheServesIdenticalResults(t *testing.T) {
	archive := testArchive(t)
	path := writeArchive(t, t.TempDir(), "t.dsqz")
	srv := New(Config{BlockCacheBytes: 8 << 20})
	ctx := context.Background()

	queries := mixedQueries()
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = expectSig(t, archive, q)
	}
	var coldMisses int64
	for pass := 0; pass < 2; pass++ {
		for i, q := range queries {
			res, err := srv.Query(ctx, path, q)
			if err != nil {
				t.Fatalf("pass %d query %d: %v", pass, i, err)
			}
			if got := resultSig(t, res); got != want[i] {
				t.Fatalf("pass %d query %d: cached result differs from uncached reference\ngot:\n%s\nwant:\n%s", pass, i, got, want[i])
			}
		}
		st := srv.Stats()
		if pass == 0 {
			if st.BlockMisses == 0 {
				t.Fatal("cold pass produced no block misses")
			}
			if st.BlockBytes <= 0 || st.BlockBytes > srv.cfg.BlockCacheBytes {
				t.Fatalf("block bytes %d outside (0, %d]", st.BlockBytes, srv.cfg.BlockCacheBytes)
			}
			coldMisses = st.BlockMisses
		} else {
			if st.BlockMisses != coldMisses {
				t.Fatalf("warm pass decoded %d new blocks, want 0", st.BlockMisses-coldMisses)
			}
			if st.BlockHits == 0 {
				t.Fatal("warm pass produced no block hits")
			}
		}
	}
}

// TestBlockCacheBudgetEviction runs the workload under a budget far smaller
// than its working set: the resident bytes must never exceed the budget,
// evictions must occur, and every result must still be exact.
func TestBlockCacheBudgetEviction(t *testing.T) {
	archive := testArchive(t)
	path := writeArchive(t, t.TempDir(), "t.dsqz")
	const budget = 4 << 10
	srv := New(Config{BlockCacheBytes: budget})
	ctx := context.Background()

	queries := mixedQueries()
	for pass := 0; pass < 3; pass++ {
		for i, q := range queries {
			res, err := srv.Query(ctx, path, q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultSig(t, res), expectSig(t, archive, q); got != want {
				t.Fatalf("pass %d query %d: result differs under tiny budget", pass, i)
			}
			if st := srv.Stats(); st.BlockBytes > budget {
				t.Fatalf("resident %d bytes exceeds budget %d", st.BlockBytes, budget)
			}
		}
	}
	st := srv.Stats()
	if st.BlockEvictions == 0 {
		t.Fatal("tiny budget evicted nothing")
	}
	// Internal consistency: the byte gauge equals the sum of residents.
	srv.blocks.mu.Lock()
	var sum int64
	for el := srv.blocks.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*blockEnt).blk.Bytes()
	}
	if sum != srv.blocks.bytes {
		t.Fatalf("byte gauge %d != resident sum %d", srv.blocks.bytes, sum)
	}
	srv.blocks.mu.Unlock()
}

// TestBlockCacheSingleflight floods a cold cache with identical concurrent
// queries: however they interleave, each needed block is decoded exactly
// once (misses == distinct blocks), the rest served as hits.
func TestBlockCacheSingleflight(t *testing.T) {
	path := writeArchive(t, t.TempDir(), "t.dsqz")
	srv := New(Config{MaxConcurrent: 8, BlockCacheBytes: 8 << 20})
	ctx := context.Background()
	// No pruning, row mode over all 3 columns: 16 groups × 3 cols = 48 blocks.
	opts := query.Options{Where: query.Ge("seq", 0)}

	const clients = 8
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			_, errs[i] = srv.Query(ctx, path, opts)
		}(i)
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.BlockMisses != 48 {
		t.Fatalf("decoded %d blocks for %d identical queries, want 48 (singleflight not deduplicating)", st.BlockMisses, clients)
	}
	if want := int64(clients*48) - 48; st.BlockHits != want {
		t.Fatalf("hits = %d, want %d", st.BlockHits, want)
	}
	srv.blocks.mu.Lock()
	inflight := len(srv.blocks.flights)
	srv.blocks.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d flights left registered after queries finished", inflight)
	}
}

// TestBlockCacheMixedWorkloadInvalidation is the randomized correctness
// test: concurrent clients issue overlapping queries against two plan-flag
// variants (a float64-plan and a float32-plan archive) while one file is
// swapped on disk mid-flight. Every response must be byte-identical to the
// uncached reference for the file content it could have seen (old or new for
// the swapped file), resident bytes must respect the budget throughout, and
// the workload must leak neither goroutines nor flights.
func TestBlockCacheMixedWorkloadInvalidation(t *testing.T) {
	dir := t.TempDir()
	oldBytes, newBytes := testArchive(t), altArchive(t)
	mutable := writeArchive(t, dir, "m.dsqz")
	// The float32-plan variant is core's committed golden: no writer emits
	// the plan any more.
	f32bytes, err := os.ReadFile(filepath.Join("..", "core", "testdata", "f32_v2.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	f32path := filepath.Join(dir, "f32.dsqz")
	if err := os.WriteFile(f32path, f32bytes, 0o644); err != nil {
		t.Fatal(err)
	}

	const budget = 64 << 10
	srv := New(Config{MaxConcurrent: 4, BlockCacheBytes: budget})
	ctx := context.Background()

	mq := mixedQueries()
	f32q := []query.Options{
		{Where: query.Ge("m1", 50)},
		{Where: query.Lt("m2", 40), Aggs: []query.AggOp{{Kind: query.AggSum, Col: "m1"}}},
	}
	wantOld := make([]string, len(mq))
	wantNew := make([]string, len(mq))
	for i, q := range mq {
		wantOld[i] = expectSig(t, oldBytes, q)
		wantNew[i] = expectSig(t, newBytes, q)
	}
	wantF32 := make([]string, len(f32q))
	for i, q := range f32q {
		wantF32[i] = expectSig(t, f32bytes, q)
	}

	before := runtime.NumGoroutine()
	var swapped atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	const clients, iters = 6, 30
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for it := 0; it < iters; it++ {
				if c == 0 && it == iters/2 {
					// Swap the mutable file's content mid-workload. Write to
					// a temp file and rename so concurrent opens never see a
					// half-written archive; bump the mtime so the staleness
					// check can't miss the swap on coarse filesystem clocks.
					tmp := mutable + ".tmp"
					if err := os.WriteFile(tmp, newBytes, 0o644); err != nil {
						fail <- err.Error()
						return
					}
					if err := os.Chtimes(tmp, time.Now().Add(time.Hour), time.Now().Add(time.Hour)); err != nil {
						fail <- err.Error()
						return
					}
					if err := os.Rename(tmp, mutable); err != nil {
						fail <- err.Error()
						return
					}
					swapped.Store(true)
				}
				if rng.Intn(3) == 0 {
					qi := rng.Intn(len(f32q))
					res, err := srv.Query(ctx, f32path, f32q[qi])
					if err != nil {
						fail <- fmt.Sprintf("f32 query %d: %v", qi, err)
						return
					}
					if got := resultSig(t, res); got != wantF32[qi] {
						fail <- fmt.Sprintf("f32 query %d: result differs from reference", qi)
						return
					}
				} else {
					qi := rng.Intn(len(mq))
					couldBeNew := swapped.Load()
					res, err := srv.Query(ctx, mutable, mq[qi])
					if err != nil {
						fail <- fmt.Sprintf("query %d: %v", qi, err)
						return
					}
					got := resultSig(t, res)
					if got != wantOld[qi] && got != wantNew[qi] {
						fail <- fmt.Sprintf("query %d: result matches neither old nor new content", qi)
						return
					}
					if couldBeNew && got == wantOld[qi] && wantOld[qi] != wantNew[qi] {
						// The swap happened strictly before this query was
						// issued; serving old content now would mean a stale
						// block survived invalidation.
						fail <- fmt.Sprintf("query %d: stale result served after file swap", qi)
						return
					}
				}
				if st := srv.Stats(); st.BlockBytes > budget {
					fail <- fmt.Sprintf("resident %d bytes exceeds budget %d", st.BlockBytes, budget)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	// Post-swap queries must see the new content exclusively.
	for i, q := range mq {
		res, err := srv.Query(ctx, mutable, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultSig(t, res); got != wantNew[i] {
			t.Fatalf("post-swap query %d: result differs from new content", i)
		}
	}

	// No leaked flights, consistent accounting, budget respected.
	srv.blocks.mu.Lock()
	if n := len(srv.blocks.flights); n != 0 {
		t.Fatalf("%d flights leaked", n)
	}
	var sum int64
	for el := srv.blocks.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*blockEnt).blk.Bytes()
	}
	if sum != srv.blocks.bytes || sum > budget {
		t.Fatalf("byte gauge %d, resident sum %d, budget %d", srv.blocks.bytes, sum, budget)
	}
	srv.blocks.mu.Unlock()

	// No leaked goroutines: the pool joins its helpers per stage, so the
	// count must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines grew from %d to %d after workload", before, n)
	}
}
