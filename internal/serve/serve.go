// Package serve is the open-once/serve-many layer between archive handles
// and a query daemon: a catalog of open core.Archive handles keyed by path
// (LRU-bounded, invalidated when the file changes), admission control that
// bounds the number of queries decoding at once over one shared worker pool
// (queueing a bounded backlog and shedding beyond it), and per-archive,
// per-stage statistics aggregated from every request's stage instrumentation.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/query"
)

// ErrOverloaded is returned (distinctly from query errors) when admission
// control sheds a request because the concurrency bound and the wait queue
// are both full. Clients should back off and retry.
var ErrOverloaded = errors.New("serve: server overloaded")

// Config bounds a Server. The zero value selects sensible defaults.
type Config struct {
	// MaxOpenArchives caps the handle cache; the least recently used handle
	// is dropped beyond it. <= 0 selects 16.
	MaxOpenArchives int

	// MaxConcurrent bounds the queries decoding at once. <= 0 selects
	// runtime.NumCPU().
	MaxConcurrent int

	// MaxQueue bounds the requests allowed to wait for a decode slot;
	// arrivals beyond it are shed with ErrOverloaded. 0 selects
	// 4×MaxConcurrent; negative disables waiting entirely (immediate shed
	// when every slot is busy).
	MaxQueue int

	// Parallelism sizes the shared worker pool all admitted queries decode
	// over. <= 0 selects runtime.NumCPU().
	Parallelism int

	// BlockCacheBytes, when positive, enables the decoded-block cache: a
	// byte-budgeted LRU of immutable per-(row group, column) decoded blocks
	// shared across queries and archives. Repeat queries over warm groups
	// skip the parse→scan→unpack→decode pipeline entirely and run filters
	// directly over cached blocks. 0 (the default) disables caching; every
	// query decodes from the archive bytes.
	BlockCacheBytes int64
}

// entry is one cached archive handle plus the file identity it was read
// from, for staleness checks. id is the handle's epoch: minted fresh at every
// (re)open, never reused, and retired from the block cache when the handle
// is dropped — the invalidation edge that keeps cached blocks from outliving
// the bytes they decoded.
type entry struct {
	path string
	a    *core.Archive
	id   uint64
	mod  time.Time
	size int64
}

// StageTotals aggregates one pipeline stage across requests.
type StageTotals struct {
	Name  string        `json:"name"`
	Calls int64         `json:"calls"`
	Wall  time.Duration `json:"wall_ns"`
	Bytes int64         `json:"bytes"`
}

// ArchiveStats aggregates the requests served for one archive path.
type ArchiveStats struct {
	Path    string        `json:"path"`
	Queries int64         `json:"queries"`
	Errors  int64         `json:"errors"`
	Rows    int64         `json:"rows_matched"`
	Stages  []StageTotals `json:"stages"`
}

// Stats is a point-in-time snapshot of a Server's counters.
type Stats struct {
	Queries       int64 `json:"queries"`
	Errors        int64 `json:"errors"`
	Shed          int64 `json:"shed"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	Evictions     int64 `json:"evictions"`
	OpenArchives  int   `json:"open_archives"`
	MaxConcurrent int   `json:"max_concurrent"`

	// Block-cache counters, present only when BlockCacheBytes > 0. Hits and
	// misses count individual (row group, column) blocks; bytes is the
	// resident footprint (always ≤ the configured budget); evictions counts
	// budget-driven drops plus epoch-invalidation purges.
	BlockCacheBudget int64 `json:"block_cache_budget,omitempty"`
	BlockHits        int64 `json:"block_hits,omitempty"`
	BlockMisses      int64 `json:"block_misses,omitempty"`
	BlockBytes       int64 `json:"block_bytes,omitempty"`
	BlockEvictions   int64 `json:"block_evictions,omitempty"`

	Archives []ArchiveStats `json:"archives"`
}

// archiveStats is the mutable aggregate behind ArchiveStats; it outlives
// handle eviction (stats describe the path, not the cached handle).
type archiveStats struct {
	queries int64
	errors  int64
	rows    int64
	stages  map[string]*StageTotals
}

// Server is a concurrency-safe archive catalog with admission control: the
// serving half of the open-once/serve-many split. One Server owns one worker
// pool; every admitted query's decode, filter, and pack stages run over it,
// so total CPU stays bounded no matter how many clients connect.
type Server struct {
	cfg      Config
	maxQueue int
	pool     *pipeline.Pool
	sem      chan struct{} // decode slots, capacity cfg.MaxConcurrent
	blocks   *blockCache   // nil when BlockCacheBytes == 0

	queued atomic.Int64 // requests waiting for a slot
	shed   atomic.Int64
	nextID atomic.Uint64 // handle epoch mint

	mu        sync.Mutex
	entries   map[string]*list.Element // path → element holding *entry
	lru       *list.List               // front = most recently used
	stats     map[string]*archiveStats // path → aggregates (survive eviction)
	hits      int64
	misses    int64
	evictions int64
}

// New returns a Server with the given bounds.
func New(cfg Config) *Server {
	if cfg.MaxOpenArchives <= 0 {
		cfg.MaxOpenArchives = 16
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.NumCPU()
	}
	maxQueue := cfg.MaxQueue
	switch {
	case maxQueue == 0:
		maxQueue = 4 * cfg.MaxConcurrent
	case maxQueue < 0:
		maxQueue = 0
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	s := &Server{
		cfg:      cfg,
		maxQueue: maxQueue,
		pool:     pipeline.NewPool(cfg.Parallelism),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		stats:    make(map[string]*archiveStats),
	}
	if cfg.BlockCacheBytes > 0 {
		s.blocks = newBlockCache(cfg.BlockCacheBytes)
	}
	return s
}

// acquire claims a decode slot, waiting in the bounded queue when every slot
// is busy. It sheds with ErrOverloaded once the queue is full, and returns
// the context's error if the caller gives up while waiting.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.maxQueue) {
		s.queued.Add(-1)
		s.shed.Add(1)
		return ErrOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// archive returns the open handle for path and its epoch id, reusing the
// cached one when the file is unchanged (same mtime and size) and opening —
// outside the lock — otherwise. The cache holds at most MaxOpenArchives
// handles, evicting the least recently used. Every handle drop (staleness or
// eviction) retires its epoch from the block cache, so decoded blocks never
// outlive the handle that produced them.
func (s *Server) archive(path string) (*core.Archive, uint64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	if el, ok := s.entries[path]; ok {
		e := el.Value.(*entry)
		if e.mod.Equal(fi.ModTime()) && e.size == fi.Size() {
			s.lru.MoveToFront(el)
			s.hits++
			s.mu.Unlock()
			return e.a, e.id, nil
		}
		// The file changed under us: drop the stale handle and reopen.
		s.lru.Remove(el)
		delete(s.entries, path)
		s.retireBlocks(e.id)
	}
	s.misses++
	s.mu.Unlock()

	a, err := core.OpenFile(path)
	if err != nil {
		return nil, 0, err
	}
	id := s.nextID.Add(1)
	if s.blocks != nil {
		s.blocks.register(id)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[path]; ok {
		// A concurrent miss opened the same path first; keep its handle so
		// every request shares one decoder cache (and one block epoch).
		s.lru.MoveToFront(el)
		s.retireBlocks(id) // the epoch we minted never serves
		e := el.Value.(*entry)
		return e.a, e.id, nil
	}
	el := s.lru.PushFront(&entry{path: path, a: a, id: id, mod: fi.ModTime(), size: fi.Size()})
	s.entries[path] = el
	for s.lru.Len() > s.cfg.MaxOpenArchives {
		old := s.lru.Back()
		s.lru.Remove(old)
		oe := old.Value.(*entry)
		delete(s.entries, oe.path)
		s.retireBlocks(oe.id)
		s.evictions++
	}
	return a, id, nil
}

// retireBlocks invalidates a handle epoch in the block cache, if enabled.
// Safe to call with s.mu held: the block cache has its own lock and never
// calls back into the server.
func (s *Server) retireBlocks(id uint64) {
	if s.blocks != nil {
		s.blocks.retire(id)
	}
}

// Query admits, plans, and executes one query against the archive at path.
// The request decodes over the server's shared pool; ctx cancels both the
// wait for admission and the query itself. ErrCorrupt-class failures are
// wrapped with the archive path so multi-archive logs stay attributable.
func (s *Server) Query(ctx context.Context, path string, opts query.Options) (*query.Result, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	a, id, err := s.archive(path)
	if err != nil {
		s.recordError(path)
		return nil, err
	}
	opts.Pool = s.pool
	if s.blocks != nil {
		opts.Blocks = &blockFetcher{c: s.blocks, a: a, id: id, pool: s.pool}
	}
	res, err := query.RunArchive(ctx, a, opts)
	s.record(path, res, err)
	if err != nil {
		return nil, pathErr(path, err)
	}
	return res, nil
}

// Summary returns the archive's metadata summary (the /archives payload),
// via the same cached handle queries use. It does not count against the
// admission bound: metadata comes from the parsed header plus one segment
// walk for the per-stream codec accounting, not a decode.
func (s *Server) Summary(path string) (*core.ArchiveSummary, error) {
	a, _, err := s.archive(path)
	if err != nil {
		return nil, err
	}
	sum := a.Info().Summary()
	sum.Path = path
	streams, err := a.StreamStats()
	if err != nil {
		s.recordError(path)
		return nil, pathErr(path, err)
	}
	sum.Streams = core.StreamSummaries(streams)
	return sum, nil
}

// Cached returns the cached archive paths, most recently used first.
func (s *Server) Cached() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).path)
	}
	return out
}

// record folds one finished query into the per-archive aggregates.
func (s *Server) record(path string, res *query.Result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.statsFor(path)
	st.queries++
	if err != nil {
		st.errors++
		return
	}
	st.rows += int64(res.Matched)
	for _, stage := range res.Stages {
		tot, ok := st.stages[stage.Name]
		if !ok {
			tot = &StageTotals{Name: stage.Name}
			st.stages[stage.Name] = tot
		}
		tot.Calls++
		tot.Wall += stage.Wall
		tot.Bytes += stage.Bytes
	}
}

// recordError counts a query that failed before executing (open failures).
func (s *Server) recordError(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.statsFor(path)
	st.queries++
	st.errors++
}

// statsFor returns the aggregate slot for path, creating it on first use.
// Caller holds mu.
func (s *Server) statsFor(path string) *archiveStats {
	st, ok := s.stats[path]
	if !ok {
		st = &archiveStats{stages: make(map[string]*StageTotals)}
		s.stats[path] = st
	}
	return st
}

// Stats snapshots the server's counters and per-archive aggregates.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Shed:          s.shed.Load(),
		CacheHits:     s.hits,
		CacheMisses:   s.misses,
		Evictions:     s.evictions,
		OpenArchives:  s.lru.Len(),
		MaxConcurrent: s.cfg.MaxConcurrent,
	}
	if s.blocks != nil {
		out.BlockCacheBudget = s.cfg.BlockCacheBytes
		out.BlockHits, out.BlockMisses, out.BlockBytes, out.BlockEvictions = s.blocks.snapshot()
	}
	paths := make([]string, 0, len(s.stats))
	for p := range s.stats {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		st := s.stats[p]
		out.Queries += st.queries
		out.Errors += st.errors
		as := ArchiveStats{Path: p, Queries: st.queries, Errors: st.errors, Rows: st.rows}
		names := make([]string, 0, len(st.stages))
		for n := range st.stages {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			as.Stages = append(as.Stages, *st.stages[n])
		}
		out.Archives = append(out.Archives, as)
	}
	return out
}

// pathErr attributes corruption-class failures to the archive path. Planner
// errors (unknown column, bad aggregate) already name what's wrong and pass
// through untouched, as do cancellations.
func pathErr(path string, err error) error {
	if errors.Is(err, core.ErrCorrupt) {
		return fmt.Errorf("%s: %w", path, err)
	}
	return err
}
