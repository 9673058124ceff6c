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
// A key's versions are read before its query executes, and a shard's table
// versions move under the same lock as its data, so a result is never older
// than its key: an apply that overtakes a running query only makes the
// stored result newer than its key says, and no later query builds that
// key again. put therefore needs no check against invalidations that ran
// while the query was in flight.
type resultCache struct {
	lru           *lru[cachedResult]
	mu            sync.Mutex // guards invalidations
	invalidations int64
}

func newResultCache(max int, maxBytes int64) *resultCache {
	l := newLRU[cachedResult](max)
	l.maxBytes = maxBytes
	return &resultCache{lru: l}
}

func (c *resultCache) get(key string) (*hive.Result, bool) {
	e, ok := c.lru.get(key)
	if !ok {
		return nil, false
	}
	return e.res, true
}

// put stores res under key, remembering the tables it read.
func (c *resultCache) put(key string, tables []string, res *hive.Result) {
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
	for _, n := range names {
		doomed[n] = true
	}
	n := c.lru.removeIf(func(e cachedResult) bool {
		for _, t := range e.tables {
			if doomed[t] {
				return true
			}
		}
		return false
	})
	c.mu.Lock()
	c.invalidations += int64(n)
	c.mu.Unlock()
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
