package server

import (
	"container/list"
	"slices"
	"sync"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
)

// resultCache caches SELECT results keyed by normalized SQL plus the read
// tables' version counters: an LRU map under one mutex, which also guards
// the byte budget and the counters. Version-qualified keys make stale
// entries unreachable the moment a table mutates; invalidation additionally
// evicts them eagerly so memory is returned and the invalidation counter
// surfaces in /stats. Entries are accounted by approximate row-payload bytes
// so the cache can hold a memory budget rather than an entry count.
//
// A key's versions are read before its query executes, and a shard's table
// versions move under the same lock as its data, so a result is never older
// than its key: an apply that overtakes a running query only makes the
// stored result newer than its key says, and no later query builds that
// key again. put therefore needs no check against invalidations that ran
// while the query was in flight.
type resultCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // of *cachedResult; front = most recently used
	entries map[string]*list.Element

	maxBytes, curBytes                     int64
	hits, misses, evictions, invalidations int64
}

// cachedResult is one result-cache entry: the finished Result, the tables it
// read (invalidation matches on these) and its estimated size.
type cachedResult struct {
	key    string
	tables []string
	res    *hive.Result
	size   int64
}

func newResultCache(max int, maxBytes int64) *resultCache {
	return &resultCache{max: max, maxBytes: maxBytes, ll: list.New(), entries: map[string]*list.Element{}}
}

func (c *resultCache) get(key string) (*hive.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cachedResult).res, true
}

// put stores res under key, remembering the tables it read, and evicts the
// least recently used entries until the cache fits its entry cap and byte
// budget. A result larger than the whole budget is not cached at all (it
// would only evict everything else on its way in and out).
func (c *resultCache) put(key string, tables []string, res *hive.Result) {
	size := resultSizeBytes(key, res)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 || c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cachedResult)
		c.curBytes += size - e.size
		e.tables, e.res, e.size = tables, res, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cachedResult{key: key, tables: tables, res: res, size: size})
		c.curBytes += size
	}
	for c.ll.Len() > c.max || (c.maxBytes > 0 && c.curBytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest.Value.(*cachedResult).key == key && c.ll.Len() == 1 {
			break
		}
		c.remove(oldest)
		c.evictions++
	}
}

// remove drops one entry; c.mu is held.
func (c *resultCache) remove(el *list.Element) {
	e := c.ll.Remove(el).(*cachedResult)
	delete(c.entries, e.key)
	c.curBytes -= e.size
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
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		for _, t := range el.Value.(*cachedResult).tables {
			if slices.Contains(names, t) {
				c.remove(el)
				c.invalidations++
				break
			}
		}
		el = next
	}
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.ll.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Invalidations: c.invalidations, SizeBytes: c.curBytes, MaxBytes: c.maxBytes,
	}
}
