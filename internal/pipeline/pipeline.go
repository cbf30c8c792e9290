// Package pipeline provides the staged-execution substrate the DeepSqueeze
// compression pipeline runs on: a bounded worker pool shared by every stage
// of a run (and across nested runs, e.g. the tuner's cross-validation pair),
// context cancellation threaded end-to-end, and per-stage wall-clock and
// byte instrumentation.
//
// Concurrency model. A Pool holds parallelism−1 helper tokens. ForEach
// distributes items over the pool with a caller-runs discipline: the calling
// goroutine always works, and extra goroutines are spawned only when a token
// is free. Acquisition is non-blocking, so nested ForEach calls (a stage
// fanning out inside another stage, or the tuner running trials whose
// compressions fan out internally) degrade to sequential execution in the
// caller instead of deadlocking, and total concurrency stays bounded by the
// pool size.
//
// Determinism. ForEach writes results into per-index slots and reports the
// lowest-index error, so any computation whose items only write to disjoint
// outputs produces identical results at every parallelism level.
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// StageStats records one named pipeline stage's instrumentation.
type StageStats struct {
	// Name identifies the stage ("train", "truncation-search", ...).
	Name string
	// Wall is the stage's wall-clock duration.
	Wall time.Duration
	// Bytes is the stage's output size, when the stage produces bytes
	// (0 otherwise).
	Bytes int64
}

// Pool is a bounded supply of helper workers shared by one or more Runs.
type Pool struct {
	size int
	sem  chan struct{} // capacity size−1: the caller goroutine is worker zero
}

// NewPool returns a pool of the given parallelism; size <= 0 selects
// runtime.NumCPU().
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.NumCPU()
	}
	return &Pool{size: size, sem: make(chan struct{}, size-1)}
}

// Size returns the pool's parallelism.
func (p *Pool) Size() int { return p.size }

// Do runs fn(0..n-1) over the pool and blocks until every item finished.
// At most max goroutines execute concurrently, the caller included (max <= 0
// or max > Size() selects the pool size). Unlike Run.ForEach it carries no
// context or error plumbing, which keeps it cheap enough to call once per
// training minibatch. Helper goroutines are added only while pool tokens are
// free, so nested calls (a data-parallel trainer inside a ForEach item)
// degrade to caller-runs sequential execution instead of oversubscribing.
// Items are claimed from an atomic counter; callers needing deterministic
// results must write item outputs to disjoint, index-addressed slots.
func (p *Pool) Do(n, max int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if max <= 0 || max > p.size {
		max = p.size
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
spawn:
	for extra := 0; extra < max-1 && extra < n-1; extra++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				work()
			}()
		default:
			break spawn // pool saturated: the caller handles the rest
		}
	}
	work()
	wg.Wait()
}

// Run is one pipeline execution: a context, a worker pool, and the stage
// stats accumulated so far. A Run is safe for concurrent use.
type Run struct {
	ctx  context.Context
	pool *Pool

	mu    sync.Mutex
	stats []StageStats
}

// New returns a run with a fresh pool of the given parallelism
// (<= 0 selects runtime.NumCPU()).
func New(ctx context.Context, parallelism int) *Run {
	return NewWithPool(ctx, NewPool(parallelism))
}

// NewWithPool returns a run sharing an existing pool — how nested runs (the
// tuner's per-trial compressions) avoid oversubscribing the machine.
func NewWithPool(ctx context.Context, pool *Pool) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Run{ctx: ctx, pool: pool}
}

// Context returns the run's context.
func (r *Run) Context() context.Context { return r.ctx }

// Pool returns the run's worker pool, for sharing with nested runs.
func (r *Run) Pool() *Pool { return r.pool }

// Parallelism returns the pool size.
func (r *Run) Parallelism() int { return r.pool.size }

// Err returns the context's error, if the run has been cancelled.
func (r *Run) Err() error { return r.ctx.Err() }

// Stage executes fn as a named, timed stage. It returns immediately with the
// context's error when the run is already cancelled, and surfaces
// cancellation that happened while fn ran even when fn itself returned nil
// (stages may stop early and return partial state on cancellation).
func (r *Run) Stage(name string, fn func() error) error {
	return r.StageBytes(name, func() (int64, error) { return 0, fn() })
}

// StageBytes is Stage for stages that produce output bytes, recorded in the
// stage's stats.
func (r *Run) StageBytes(name string, fn func() (int64, error)) error {
	if err := r.Err(); err != nil {
		return err
	}
	start := time.Now()
	n, err := fn()
	r.mu.Lock()
	r.stats = append(r.stats, StageStats{Name: name, Wall: time.Since(start), Bytes: n})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return r.Err()
}

// Stats returns a copy of the stage stats recorded so far, in completion
// order.
func (r *Run) Stats() []StageStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StageStats(nil), r.stats...)
}

// ForEach runs fn(0..n-1) over the shared pool and blocks until every item
// finished or the run was cancelled. The calling goroutine participates;
// helper goroutines are added only while pool tokens are free, and every
// helper is joined before ForEach returns, so cancellation leaks no
// goroutines. On failure the error of the lowest-index failing item is
// returned (item outputs must go to disjoint, index-addressed slots for
// parallelism-independent results).
func (r *Run) ForEach(n int, fn func(i int) error) error {
	return r.ForEachWorker(n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with a worker identity: fn receives, besides the
// item index, the id of the worker executing it — 0 for the calling
// goroutine, 1..Parallelism()-1 for helpers. Worker ids let items share
// preallocated worker-local scratch (one slot per id, no locking and no
// sync.Pool churn) on allocation-free hot paths; which items land on which
// worker is scheduling-dependent, so scratch must never leak into item
// outputs. Outputs must go to disjoint, index-addressed slots, same as
// ForEach.
func (r *Run) ForEachWorker(n int, fn func(worker, i int) error) error {
	if err := r.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			if err := r.ctx.Err(); err != nil {
				errs[i] = err
				failed.Store(true)
				return
			}
			if err := fn(worker, i); err != nil {
				errs[i] = err
				failed.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
spawn:
	for extra := 0; extra < n-1 && extra < r.pool.size-1; extra++ {
		select {
		case r.pool.sem <- struct{}{}:
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				defer func() { <-r.pool.sem }()
				work(worker)
			}(extra + 1)
		default:
			break spawn // pool saturated: the caller handles the rest
		}
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return r.Err()
}

// ForEachChunk splits [0, n) into fixed-size chunks and runs fn(lo, hi) for
// each over the pool. The chunk boundaries depend only on n and chunk — not
// on the pool size — so writes into disjoint [lo, hi) output ranges stay
// deterministic at every parallelism level.
func (r *Run) ForEachChunk(n, chunk int, fn func(lo, hi int) error) error {
	if chunk <= 0 {
		chunk = 1
	}
	chunks := (n + chunk - 1) / chunk
	return r.ForEach(chunks, func(c int) error {
		lo := c * chunk
		hi := min(lo+chunk, n)
		return fn(lo, hi)
	})
}
