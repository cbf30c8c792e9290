package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/pipeline"
)

// blockKey identifies one cached decoded block. id is the owning handle's
// epoch (a fresh id is minted every time a path is (re)opened, so a file
// swapped on disk can never serve stale blocks); flags is the archive's plan
// flag byte (row order, grouping, float32 decode — the knobs that change how
// identical bytes decode); group and col address the block.
type blockKey struct {
	id    uint64
	flags byte
	group int
	col   int
}

// blockEnt is one cache resident: a key and its immutable block.
type blockEnt struct {
	key blockKey
	blk *core.ColumnBlock
}

// flightKey identifies an in-progress decode: one flight per (handle epoch,
// row group), so concurrent misses on the same group decode once and share.
type flightKey struct {
	id    uint64
	group int
}

type flight struct {
	done chan struct{} // closed when the owning decode finished (or failed)
}

// blockCache is a byte-budgeted LRU of decoded column blocks shared by every
// query a Server admits. Lookups and inserts take one mutex (the hot path
// holds it only for map/list operations — decodes always run outside the
// lock); concurrent misses on one row group are deduplicated by singleflight
// so a thundering herd decodes each group once. Invalidation is by handle
// epoch: retiring an id purges its residents and blocks further inserts, so
// an in-flight decode against a just-replaced file cannot repollute the
// cache.
type blockCache struct {
	budget int64

	mu        sync.Mutex
	entries   map[blockKey]*list.Element // key → element holding *blockEnt
	lru       *list.List                 // front = most recently used
	live      map[uint64]struct{}        // registered, non-retired handle epochs
	flights   map[flightKey]*flight
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{
		budget:  budget,
		entries: make(map[blockKey]*list.Element),
		lru:     list.New(),
		live:    make(map[uint64]struct{}),
		flights: make(map[flightKey]*flight),
	}
}

// register marks a handle epoch live: its blocks may enter the cache.
func (c *blockCache) register(id uint64) {
	c.mu.Lock()
	c.live[id] = struct{}{}
	c.mu.Unlock()
}

// retire invalidates a handle epoch: its residents are purged immediately
// and later insert attempts (decodes already in flight) are discarded. Purges
// count as evictions.
func (c *blockCache) retire(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.live, id)
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*blockEnt).key.id == id {
			c.removeLocked(el)
			c.evictions++
		}
	}
}

// removeLocked drops one resident. Caller holds mu.
func (c *blockCache) removeLocked(el *list.Element) {
	e := el.Value.(*blockEnt)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.blk.Bytes()
}

// snapshot returns (hits, misses, bytes, evictions).
func (c *blockCache) snapshot() (int64, int64, int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.bytes, c.evictions
}

// fetch returns blocks for every (group, column) pair, serving hits from the
// cache and decoding misses grouped into as few DecodeBlocks calls as
// possible. groups and cols are strictly ascending (the query planner's
// contract). The returned blocks are immutable and may outlive cache
// residency — eviction only drops the cache's reference.
//
// Concurrency: round 0 claims a singleflight per missing (id, group) or
// joins an existing one; after waiting, round 1 looks up again and decodes
// anything still missing directly (the flight owner may have failed, or a
// tiny budget may have evicted the block already), so the loop terminates in
// at most two rounds and can never livelock however small the budget is.
func (c *blockCache) fetch(ctx context.Context, a *core.Archive, id uint64, pool *pipeline.Pool, groups, cols []int) ([][]*core.ColumnBlock, error) {
	flags := a.DecodeFlags()
	out := make([][]*core.ColumnBlock, len(groups))
	for gi := range out {
		out[gi] = make([]*core.ColumnBlock, len(cols))
	}
	for round := 0; ; round++ {
		c.mu.Lock()
		var claimed []int         // gi positions this call will decode
		missOf := map[int][]int{} // gi → missing ci positions, ascending
		var waits []chan struct{}
		done := true
		for gi, g := range groups {
			var miss []int
			for ci, col := range cols {
				if out[gi][ci] != nil {
					continue
				}
				k := blockKey{id: id, flags: flags, group: g, col: col}
				if el, ok := c.entries[k]; ok {
					c.lru.MoveToFront(el)
					out[gi][ci] = el.Value.(*blockEnt).blk
					c.hits++
					continue
				}
				miss = append(miss, ci)
			}
			if len(miss) == 0 {
				continue
			}
			done = false
			fk := flightKey{id: id, group: g}
			if round == 0 {
				if f, ok := c.flights[fk]; ok {
					waits = append(waits, f.done)
					continue
				}
				c.flights[fk] = &flight{done: make(chan struct{})}
			}
			claimed = append(claimed, gi)
			missOf[gi] = miss
			c.misses += int64(len(miss))
		}
		c.mu.Unlock()
		if done {
			return out, nil
		}
		if len(claimed) > 0 {
			err := c.decodeInto(ctx, a, id, flags, pool, groups, cols, claimed, missOf, out, round == 0)
			if err != nil {
				return nil, err
			}
		}
		for _, w := range waits {
			select {
			case <-w:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// decodeInto decodes the claimed groups' missing columns, fills out directly
// from the decode results, and offers the new blocks to the cache (discarded
// when the epoch was retired meanwhile; evicting down to budget afterwards).
// Claimed groups sharing one missing-column set batch into a single
// DecodeBlocks call. When hadFlights, every claimed group's flight is closed
// on all paths — including decode errors — so joined waiters never hang.
func (c *blockCache) decodeInto(ctx context.Context, a *core.Archive, id uint64, flags byte, pool *pipeline.Pool, groups, cols []int, claimed []int, missOf map[int][]int, out [][]*core.ColumnBlock, hadFlights bool) error {
	if hadFlights {
		defer func() {
			c.mu.Lock()
			for _, gi := range claimed {
				fk := flightKey{id: id, group: groups[gi]}
				if f, ok := c.flights[fk]; ok {
					delete(c.flights, fk)
					close(f.done)
				}
			}
			c.mu.Unlock()
		}()
	}
	// Batch claimed groups by missing-column signature: gi positions are
	// ascending, so each batch's group list is ascending too.
	batches := map[string][]int{}
	var order []string
	for _, gi := range claimed {
		sig := fmt.Sprint(missOf[gi])
		if _, ok := batches[sig]; !ok {
			order = append(order, sig)
		}
		batches[sig] = append(batches[sig], gi)
	}
	for _, sig := range order {
		gis := batches[sig]
		miss := missOf[gis[0]]
		decGroups := make([]int, len(gis))
		for i, gi := range gis {
			decGroups[i] = groups[gi]
		}
		decCols := make([]int, len(miss))
		for i, ci := range miss {
			decCols[i] = cols[ci]
		}
		blocks, err := a.DecodeBlocks(ctx, decGroups, decCols, pool)
		if err != nil {
			return err
		}
		c.mu.Lock()
		for i, gi := range gis {
			for j, ci := range miss {
				blk := blocks[i][j]
				out[gi][ci] = blk
				c.insertLocked(blockKey{id: id, flags: flags, group: groups[gi], col: cols[ci]}, blk)
			}
		}
		c.mu.Unlock()
	}
	return nil
}

// insertLocked offers one block to the cache and evicts down to budget.
// Retired epochs and duplicate keys (a direct round-1 decode racing the
// flight owner) are discarded. Caller holds mu.
func (c *blockCache) insertLocked(k blockKey, blk *core.ColumnBlock) {
	if _, live := c.live[k.id]; !live {
		return
	}
	if _, ok := c.entries[k]; ok {
		return
	}
	el := c.lru.PushFront(&blockEnt{key: k, blk: blk})
	c.entries[k] = el
	c.bytes += blk.Bytes()
	for c.bytes > c.budget && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
}

// blockFetcher adapts one admitted query's (handle, epoch) pair to
// query.BlockSource, routing fetches through the server's shared cache and
// worker pool.
type blockFetcher struct {
	c    *blockCache
	a    *core.Archive
	id   uint64
	pool *pipeline.Pool
}

func (f *blockFetcher) Blocks(ctx context.Context, groups, cols []int) ([][]*core.ColumnBlock, error) {
	return f.c.fetch(ctx, f.a, f.id, f.pool, groups, cols)
}
