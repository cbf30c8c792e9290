package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"deepsqueeze"
	"deepsqueeze/internal/serve"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations and verification misses for fail accounting.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// check records one operation; a non-nil err (the operation failed, was shed,
// or its output missed verification) counts as a failure and is logged.
func (t *tally) check(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", op, err)
		}
	}
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the %d-byte reference", what, len(got), len(want))
	}
	return nil
}

// timed runs fn and returns its wall time in nanoseconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start).Nanoseconds()), err
}

// e2eSamples holds every sample of one untraced run as the stretch of the
// run's clock it took; the speed ticks recorded around it (speed.go) scale it
// to reference machine speed when the run is reduced.
type e2eSamples struct {
	Setup, Compress, Decompress, Cold, Point, Scan, Burst []stretch
	rounds                                                int

	// dsqzd /stats deltas: block-cache lookups over the point batches alone,
	// evictions and shed queries over all the rounds.
	pointBlockHits, pointBlockLookups int64
	blockEvictions, shed              int64
}

// minPointHitRate is the share of the point batches' block lookups the cached
// workload must answer from its cache.
const minPointHitRate = 0.9

// checkCache holds the cached workload to its definition: the hot windows'
// blocks fit the budget (point batches hit) and a scan's do not (it evicts).
func (s *e2eSamples) checkCache() error {
	rate := float64(s.pointBlockHits) / float64(max(s.pointBlockLookups, 1))
	if rate < minPointHitRate {
		return fmt.Errorf("point batches hit %d of %d block lookups (%.3f), want at least %.2f", s.pointBlockHits, s.pointBlockLookups, rate, minPointHitRate)
	}
	if s.blockEvictions == 0 {
		return fmt.Errorf("the scans evicted no block: their working set fits the cache")
	}
	return nil
}

// measure runs fn on the run's clock and files its stretch under dst when it
// succeeds.
func (f *fixture) measure(dst *[]stretch, fn func() error) error {
	s := stretch{Start: f.speed.now()}
	err := fn()
	s.End = f.speed.now()
	if err == nil {
		*dst = append(*dst, s)
	}
	return err
}

// coldQuery is what `dsqz query` pays: open the file, plan and run the query
// on the fresh handle, render CSV.
func coldQuery(ctx context.Context, path string, q *preparedQuery) ([]byte, error) {
	a, err := deepsqueeze.OpenFile(path)
	if err != nil {
		return nil, err
	}
	res, err := deepsqueeze.QueryArchive(ctx, a, q.opts)
	if err != nil {
		return nil, err
	}
	return tableCSV(res.Table)
}

// burstQuery picks client c's i-th burst request: 90% point, 10% scan.
func (f *fixture) burstQuery(c, i int) *preparedQuery {
	if i%10 == 9 {
		return &f.scan
	}
	return &f.points[(c*7+i)%len(f.points)]
}

// burstClients is nproc on the reference sandbox: more clients than CPUs
// would measure the generator competing with the server.
const burstClients = 2

// burst runs burstClients closed-loop clients for d and returns the stretch
// with the number of queries completed in it.
func (f *fixture) burst(ctx context.Context, d time.Duration, t *tally) stretch {
	var wg sync.WaitGroup
	var mu sync.Mutex
	s := stretch{Start: f.speed.now()}
	deadline := time.Now().Add(d)
	for c := 0; c < burstClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 0
			for i := 0; time.Now().Before(deadline); i++ {
				q := f.burstQuery(c, i)
				got, err := f.d.query(ctx, q.body)
				if err == nil {
					err = sameBytes("burst response", got, q.want)
				}
				t.check("burst query", err)
				if err == nil {
					n++
				}
			}
			mu.Lock()
			s.Count += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	s.End = f.speed.now()
	return s
}

// share splits count into `parts` nearly equal shares and returns the i-th.
func share(count, parts, i int) int { return count*(i+1)/parts - count*i/parts }

// round performs one round of the workload: 1 compress; then one slice per
// decompress — the decompress followed by that slice's share of the round's
// cold queries and warm points — then the round's warm scans and one
// two-client burst. Every metric's samples therefore span not only the whole
// run but most of each round, like the speed ticks they are scaled by. The
// scans stay together at the end so that a block cache they flush is warm
// again for most of the next round's points.
func (f *fixture) round(ctx context.Context, s *e2eSamples, t *tally) {
	w := f.w
	tick := func() { f.speed.sample() }

	runtime.GC()
	tick()
	var archive []byte
	err := f.measure(&s.Compress, func() (err error) {
		archive, err = compressCSV(f.csv, f.src.Schema, f.thresholds, f.opts, nil)
		return err
	})
	if err == nil {
		err = sameBytes("recompressed archive", archive, f.archive)
	}
	t.check("compress", err)
	archive = nil
	tick()

	hot := func(int) *preparedQuery {
		f.hotSeq++
		return &f.points[f.hotSeq%len(f.points)]
	}
	for sl := 0; sl < w.decompresses; sl++ {
		runtime.GC()
		var csv []byte
		err := f.measure(&s.Decompress, func() (err error) {
			csv, err = decompressCSV(f.archive, len(f.backCSV), nil)
			return err
		})
		if err == nil {
			err = sameBytes("decompressed CSV", csv, f.backCSV)
		}
		t.check("decompress", err)
		csv = nil
		tick()

		for i := share(w.colds, w.decompresses, sl); i > 0; i-- {
			q := hot(0)
			var got []byte
			err := f.measure(&s.Cold, func() (err error) {
				got, err = coldQuery(ctx, f.path, q)
				return err
			})
			if err == nil {
				err = sameBytes("cold query result", got, q.want)
			}
			t.check("cold query", err)
		}
		tick()
		before := f.daemonStats(ctx, t)
		f.warm(ctx, "point query", share(w.points, w.decompresses, sl), hot, &s.Point, t, tick)
		after := f.daemonStats(ctx, t)
		s.pointBlockHits += after.BlockHits - before.BlockHits
		s.pointBlockLookups += after.BlockHits - before.BlockHits + after.BlockMisses - before.BlockMisses
	}
	f.warm(ctx, "scan query", w.scans, func(int) *preparedQuery { return &f.scan }, &s.Scan, t, tick)

	s.Burst = append(s.Burst, f.burst(ctx, w.burst, t))
	tick()
}

// speedEvery is how many warm queries pass between two speed ticks.
const speedEvery = 25

// warm sends count single-client closed-loop queries to dsqzd, ticking the
// speed kernels (when tick is non-nil) along the way and at the end.
func (f *fixture) warm(ctx context.Context, op string, count int, pick func(i int) *preparedQuery, dst *[]stretch, t *tally, tick func()) {
	for i := 0; i < count; i++ {
		if tick != nil && i > 0 && i%speedEvery == 0 {
			tick()
		}
		q := pick(i)
		var got []byte
		err := f.measure(dst, func() (err error) {
			got, err = f.d.query(ctx, q.body)
			return err
		})
		if err == nil {
			err = sameBytes(op+" response", got, q.want)
		}
		t.check(op, err)
	}
	if tick != nil {
		tick()
	}
}

// daemonStats fetches dsqzd's /stats between timed operations; a failure
// counts like any failed operation.
func (f *fixture) daemonStats(ctx context.Context, t *tally) serve.Stats {
	st, err := f.d.stats(ctx)
	t.check("GET /stats", err)
	return st
}

// runRounds repeats round until the measuring time is spent (or exactly
// `rounds` times when rounds > 0).
func (f *fixture) runRounds(ctx context.Context, seconds float64, rounds int, s *e2eSamples, t *tally) error {
	// One unmeasured pass over every distinct query opens dsqzd's handle and
	// parses its decoders: users of a daemon pay that once, not per query.
	var discard []stretch
	f.warm(ctx, "warm-up", len(f.points), func(i int) *preparedQuery { return &f.points[i] }, &discard, t, nil)
	f.warm(ctx, "warm-up", 1, func(int) *preparedQuery { return &f.scan }, &discard, t, nil)

	before := f.daemonStats(ctx, t)
	var err error
	s.rounds, err = repeatRounds(ctx, seconds, rounds, func() error {
		f.round(ctx, s, t)
		return nil
	})
	after := f.daemonStats(ctx, t)
	s.blockEvictions = after.BlockEvictions - before.BlockEvictions
	s.shed = after.Shed - before.Shed
	return err
}

// minRounds is the fewest rounds a run measures: with the per-round counts in
// workloads.go it guarantees the sample floors (compress 10, decompress 30,
// scan 30, burst 10, point 200 on archive-categorical and 1 500 elsewhere)
// however slowly the machine runs.
const minRounds = 10

// repeatRounds calls round until the measuring time is spent and minRounds
// have run, or exactly `fixed` times when fixed > 0, and returns how many
// rounds ran. It gives up between rounds once ctx is done.
func repeatRounds(ctx context.Context, seconds float64, fixed int, round func() error) (int, error) {
	start := time.Now()
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if fixed > 0 && n >= fixed {
			return n, nil
		}
		if fixed <= 0 && n >= minRounds {
			// Stop when the next round would overrun more than it underruns.
			elapsed := time.Since(start).Seconds()
			if elapsed+0.5*elapsed/float64(n) > seconds {
				return n, nil
			}
		}
		if err := round(); err != nil {
			return n, err
		}
	}
}

// e2eMetrics reduces a run's samples to the end-to-end metrics: every timing
// is the median over all its samples in the run. With normalize each sample
// is first scaled to reference machine speed (the reported numbers); without,
// the medians are as measured (printed on stderr beside them).
func (f *fixture) e2eMetrics(s *e2eSamples, normalize bool) map[string]metric {
	seconds := func(in []stretch) []float64 {
		out := make([]float64, len(in))
		for i, x := range in {
			out[i] = x.seconds()
			if normalize {
				out[i] *= f.speed.factor(x)
			}
		}
		return out
	}
	qps := make([]float64, len(s.Burst))
	for i, sec := range seconds(s.Burst) {
		qps[i] = float64(s.Burst[i].Count) / sec
	}
	mb := float64(len(f.csv)) / 1e6
	point := seconds(s.Point)
	return map[string]metric{
		"setup_s":         {median(seconds(s.Setup)), "s"},
		"compress_mb_s":   {mb / median(seconds(s.Compress)), "MB/s"},
		"decompress_mb_s": {mb / median(seconds(s.Decompress)), "MB/s"},
		"ratio_pct":       {100 * float64(len(f.archive)) / float64(len(f.csv)), "%"},
		"query_cold_ms":   {1e3 * median(seconds(s.Cold)), "ms"},
		"point_p50_ms":    {1e3 * median(point), "ms"},
		"point_p95_ms":    {1e3 * quantile(point, 0.95), "ms"},
		"scan_p50_ms":     {1e3 * median(seconds(s.Scan)), "ms"},
		"qps":             {median(qps), "1/s"},
	}
}
