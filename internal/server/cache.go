package server

import (
	"container/list"
	"sync"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
)

// lru is a minimal mutex-guarded LRU map; the serving layer's result cache
// is built on it. Entries may carry a byte
// size; when maxBytes > 0 the cache also evicts oldest-first until the
// total size fits the budget.
type lru[V any] struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	maxBytes, curBytes      int64
	hits, misses, evictions int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, ll: list.New(), entries: map[string]*list.Element{}}
}

func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero V
	if c.max <= 0 {
		c.misses++
		return zero, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// putSized inserts val accounting size bytes against the cache's byte
// budget. A value larger than the whole budget is not cached at all (it
// would only evict everything else on its way in and out).
func (c *lru[V]) putSized(key string, val V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 {
		return
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.curBytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val, size: size})
		c.curBytes += size
	}
	for c.ll.Len() > c.max || (c.maxBytes > 0 && c.curBytes > c.maxBytes) {
		oldest := c.ll.Back()
		e := oldest.Value.(*lruEntry[V])
		if e.key == key && c.ll.Len() == 1 {
			break
		}
		c.ll.Remove(oldest)
		delete(c.entries, e.key)
		c.curBytes -= e.size
		c.evictions++
	}
}

// removeIf deletes every entry whose value matches pred and returns how many
// were removed.
func (c *lru[V]) removeIf(pred func(V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var doomed []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if pred(el.Value.(*lruEntry[V]).val) {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		e := el.Value.(*lruEntry[V])
		c.ll.Remove(el)
		delete(c.entries, e.key)
		c.curBytes -= e.size
	}
	return len(doomed)
}

func (c *lru[V]) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *lru[V]) stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// cachedResult is one result-cache entry: the finished Result plus the
// tables it read (invalidation scans match on these).
type cachedResult struct {
	tables []string
	res    *hive.Result
}

// resultCache caches SELECT results keyed by normalized SQL plus the read
// tables' version counters. Version-qualified keys make stale entries
// unreachable the moment a table mutates; invalidation additionally evicts
// them eagerly so memory is returned and the invalidation counter surfaces
// in /stats. Entries are accounted by approximate row-payload bytes so the
// cache can hold a memory budget rather than an entry count.
//
// A key's versions are the max across replicas, but the query may have read
// a replica that had not applied yet, whose apply-time invalidation can run
// before the result is stored. Every invalidation therefore bumps its
// tables' epochs, and put refuses a result whose tables were invalidated
// since its query started executing: an invalidation either evicts the
// entry or prevents it. mu orders the two (held across the epoch step and
// the lru step of both).
type resultCache struct {
	lru           *lru[cachedResult]
	mu            sync.Mutex
	epochs        map[string]uint64 // per table, bumped by invalidateTables
	invalidations int64
}

func newResultCache(max int, maxBytes int64) *resultCache {
	l := newLRU[cachedResult](max)
	l.maxBytes = maxBytes
	return &resultCache{lru: l, epochs: map[string]uint64{}}
}

func (c *resultCache) get(key string) (*hive.Result, bool) {
	e, ok := c.lru.get(key)
	if !ok {
		return nil, false
	}
	return e.res, true
}

// snapshot returns the tables' invalidation epochs; take it before the query
// executes and hand it to put.
func (c *resultCache) snapshot(tables []string) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(tables))
	for i, t := range tables {
		out[i] = c.epochs[t]
	}
	return out
}

// put stores res unless one of its tables was invalidated since epochs was
// snapshotted (the result may predate the rows that invalidation announced).
func (c *resultCache) put(key string, tables []string, epochs []uint64, res *hive.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, t := range tables {
		if c.epochs[t] != epochs[i] {
			return
		}
	}
	c.lru.putSized(key, cachedResult{tables: tables, res: res}, resultSizeBytes(key, res))
}

// resultSizeBytes estimates the resident size of one cached result: the
// key, the column names, and per row a fixed header plus each cell's
// payload (strings by length, scalar kinds by the Value struct).
func resultSizeBytes(key string, res *hive.Result) int64 {
	const rowOverhead, cellOverhead = 48, 32
	n := int64(len(key) + len(res.Message) + 96)
	for _, c := range res.Columns {
		n += int64(len(c)) + 16
	}
	for _, row := range res.Rows {
		n += rowOverhead
		for _, v := range row {
			n += cellOverhead + int64(len(v.S))
		}
	}
	return n
}

// invalidateTables evicts every entry that read one of the named tables
// (lower-cased).
func (c *resultCache) invalidateTables(names []string) {
	if len(names) == 0 {
		return
	}
	doomed := map[string]bool{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range names {
		doomed[n] = true
		c.epochs[n]++
	}
	n := c.lru.removeIf(func(e cachedResult) bool {
		for _, t := range e.tables {
			if doomed[t] {
				return true
			}
		}
		return false
	})
	c.invalidations += int64(n)
}

// CacheStats is the JSON-ready counter snapshot of one cache.
type CacheStats struct {
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations,omitempty"`
	// SizeBytes is the estimated resident payload of all entries;
	// MaxBytes is the configured budget (0 = uncapped).
	SizeBytes int64 `json:"size_bytes,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
}

func (c *resultCache) stats() CacheStats {
	h, m, e := c.lru.stats()
	c.mu.Lock()
	inv := c.invalidations
	c.mu.Unlock()
	return CacheStats{
		Entries: c.lru.len(), Hits: h, Misses: m, Evictions: e, Invalidations: inv,
		SizeBytes: c.lru.sizeBytes(), MaxBytes: c.lru.maxBytes,
	}
}
