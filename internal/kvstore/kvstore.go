// Package kvstore models the distributed key-value store the paper uses to
// hold DGFIndex <GFUKey, GFUValue> pairs (HBase in the paper's deployment;
// it also names Cassandra and Voldemort as alternatives).
//
// DGFIndex needs only four operations from the store — Put, Get, MultiGet
// and a key-ordered ScanPrefix — plus an account of how many round trips a
// query spends on index access, because the paper's figures break query time
// into "read index and other" versus "read data and process". The Store
// executes for real, in memory, and counts operations; its callers record
// the operations they make in a cluster.Ledger, which cluster.Config prices.
//
// Layout. The paper sizes the index as its key and value bytes, and the
// store holds a pair in little more than that. Every write appends one record
// — the key and the value, each behind its uvarint length — to an arena of
// chunks: the first is 1 KiB and each new one doubles, up to 64 KiB (a record
// larger than that gets a chunk of its own). An open-addressing table of
// 8-byte slots finds the records: a slot packs the record's chunk and offset
// with 24 bits of the key's hash, so a probe rejects a slot of another key
// without reading the arena. Keys are kept once, in the arena; there is no
// per-pair allocation.
//
// Views. Get, MultiGet and ScanPrefix return values as views into the arena,
// not copies, with capacity clipped to length: a caller may read them for as
// long as it likes, but must not write them, and an append to one copies.
// Put and PutBatch copy the caller's bytes, so a caller may reuse its buffer.
// Written bytes never change: an overwrite appends a new record and repoints
// the key's slot, leaving the old record — and any view of it — intact.
//
// Compaction. The bytes of overwritten records are dead. Once they exceed
// the live records' bytes by more than a chunk, the store copies its live
// records into fresh chunks, in arena order, and drops the old chunks; the
// garbage collector frees them when the last view into them is gone. A
// store that takes overwrites all day therefore stays within about twice its
// live bytes.
package kvstore

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	offBits   = 16           // bits of a record's offset inside its chunk
	chunkSize = 1 << offBits // bytes in an arena chunk
	minChunk  = 1 << 10      // bytes in a store's first arena chunk
	chunkBits = 24           // bits of a record's chunk number
	locBits   = offBits + chunkBits
	locMask   = 1<<locBits - 1
	minSlots  = 8
)

// Store is a concurrency-safe key-value map with key-ordered prefix scans and
// operation counting, laid out as the package comment describes.
type Store struct {
	seed maphash.Seed

	mu    sync.RWMutex
	slots []uint64 // tag<<locBits | chunk<<offBits | offset; 0 is an empty slot
	arena arena
	n     int   // live pairs
	size  int64 // key and value bytes of the live pairs (SizeBytes)
	live  int64 // arena bytes of the live records
	dead  int64 // arena bytes of overwritten records

	gets    atomic.Int64 // keys requested via Get/MultiGet
	puts    atomic.Int64 // keys written
	scanned atomic.Int64 // keys returned by ScanPrefix
	scans   atomic.Int64 // scan calls
}

// New returns an empty store.
func New() *Store {
	return &Store{seed: maphash.MakeSeed(), slots: make([]uint64, minSlots)}
}

// Pair is one key-value entry, as ScanPrefix returns and PutBatch takes it.
type Pair struct {
	Key   string
	Value []byte
}

// SizeBytes returns the total payload size: keys plus values of the live
// pairs. This is the "index size" reported for DGFIndex in Tables 2 and 5.
func (s *Store) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Put stores a copy of value under key, replacing any existing value.
func (s *Store) Put(key string, value []byte) {
	h := s.hash(key)
	s.mu.Lock()
	s.putLocked(key, value, h)
	s.mu.Unlock()
	s.puts.Add(1)
}

// PutBatch stores many pairs in one call (one simulated round trip per
// cluster.Config.KVBatchSize keys, like HBase's buffered mutator). Callers
// pass the pairs in key order, so records of neighbouring keys sit together;
// a key given twice keeps its last value. The values are copied.
func (s *Store) PutBatch(pairs []Pair) {
	s.mu.Lock()
	for _, p := range pairs {
		s.putLocked(p.Key, p.Value, s.hash(p.Key))
	}
	s.mu.Unlock()
	s.puts.Add(int64(len(pairs)))
}

// Get fetches the value under key as a read-only view. ok is false, and
// value nil, if the key is absent; a present key never reads as nil.
func (s *Store) Get(key string) (value []byte, ok bool) {
	h := s.hash(key)
	s.mu.RLock()
	_, value = s.find(key, h)
	s.mu.RUnlock()
	s.gets.Add(1)
	return value, value != nil
}

// MultiGet fetches many keys as read-only views; missing keys yield nil
// entries. The result is positionally aligned with keys.
func (s *Store) MultiGet(keys []string) [][]byte {
	out := make([][]byte, len(keys))
	s.mu.RLock()
	for i, k := range keys {
		_, out[i] = s.find(k, s.hash(k))
	}
	s.mu.RUnlock()
	s.gets.Add(int64(len(keys)))
	return out
}

// ScanPrefix returns all pairs whose key starts with prefix, in key order;
// ScanPrefix("") returns every pair. Values are read-only views.
func (s *Store) ScanPrefix(prefix string) []Pair {
	s.mu.RLock()
	var out []Pair
	for _, sl := range s.slots {
		if sl == 0 {
			continue
		}
		if k, v := s.arena.record(sl); len(k) >= len(prefix) && string(k[:len(prefix)]) == prefix {
			out = append(out, Pair{Key: string(k), Value: v})
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(out, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
	s.scans.Add(1)
	s.scanned.Add(int64(len(out)))
	return out
}

// Keys returns all keys in sorted order. It is not an index operation and
// counts as none.
func (s *Store) Keys() []string {
	s.mu.RLock()
	out := make([]string, 0, s.n)
	for _, sl := range s.slots {
		if sl != 0 {
			k, _ := s.arena.record(sl)
			out = append(out, string(k))
		}
	}
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}

func (s *Store) hash(key string) uint64 { return maphash.String(s.seed, key) }

// tagOf is the slot tag of hash h: its top 24 bits, with the highest forced
// on so that no occupied slot is zero.
func tagOf(h uint64) uint64 { return (h>>locBits | 1<<(63-locBits)) << locBits }

// find returns the slot holding key and its value, or the empty slot where
// key would go and a nil value.
func (s *Store) find(key string, h uint64) (int, []byte) {
	mask := len(s.slots) - 1
	tag := tagOf(h)
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl == 0 {
			return i, nil
		}
		if sl&^locMask != tag {
			continue
		}
		rec := s.arena.at(sl)
		if n := int(rec[0]); n < 0x80 { // one length byte: the common case, decoded inline
			if n == len(key) && string(rec[1:1+n]) == key {
				if m := int(rec[1+n]); m < 0x80 {
					return i, rec[2+n : 2+n+m : 2+n+m]
				}
				v, _ := field(rec[1+n:])
				return i, v
			}
		} else if k, rest := field(rec); string(k) == key {
			v, _ := field(rest)
			return i, v
		}
	}
}

func (s *Store) putLocked(key string, value []byte, h uint64) {
	if (s.n+1)*4 > len(s.slots)*3 {
		s.growSlots()
	}
	i, prev := s.find(key, h)
	if prev != nil {
		n := recordSize(len(key), len(prev))
		s.live -= n
		s.dead += n
		s.size -= int64(len(prev))
	} else {
		s.n++
		s.size += int64(len(key))
	}
	loc, rec := s.arena.alloc(int(recordSize(len(key), len(value))))
	appendRecord(rec[:0], key, value)
	s.slots[i] = tagOf(h) | loc
	s.size += int64(len(value))
	s.live += int64(len(rec))
	if s.dead > s.live+chunkSize {
		s.compact()
	}
}

// growSlots doubles the slot table and reinserts every record.
func (s *Store) growSlots() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	for _, sl := range old {
		if sl != 0 {
			k, _ := s.arena.record(sl)
			s.place(maphash.Bytes(s.seed, k), sl&locMask)
		}
	}
}

// place puts a record known to be absent from the table into the first empty
// slot of its probe sequence.
func (s *Store) place(h, loc uint64) {
	mask := len(s.slots) - 1
	i := int(h) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = tagOf(h) | loc
}

// compact copies the live records, in arena order, into fresh chunks and
// repoints their slots. The old chunks are left to the garbage collector and
// to any reader still holding a view into them.
func (s *Store) compact() {
	live := make([]int, 0, s.n) // occupied slots, by their records' locations
	for i, sl := range s.slots {
		if sl != 0 {
			live = append(live, i)
		}
	}
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(s.slots[a]&locMask, s.slots[b]&locMask) })
	old := s.arena
	s.arena = arena{}
	for _, i := range live {
		rec := old.raw(s.slots[i])
		loc, dst := s.arena.alloc(len(rec))
		copy(dst, rec)
		s.slots[i] = s.slots[i]&^locMask | loc
	}
	s.dead = 0
}

// recordSize is the arena bytes of a record with the given key and value
// lengths.
func recordSize(klen, vlen int) int64 {
	return int64(uvarintLen(klen) + klen + uvarintLen(vlen) + vlen)
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// appendRecord appends the record of one pair to dst.
func appendRecord(dst []byte, key string, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// arena is an append-only sequence of records in chunks.
type arena struct {
	chunks [][]byte // each chunk's length is the bytes written to it
	fill   int      // the chunk that takes the next record that fits one
	next   int      // the size of the next chunk
}

// alloc reserves n bytes and returns their location and the bytes to fill.
func (a *arena) alloc(n int) (uint64, []byte) {
	c := a.fill
	switch {
	case n > chunkSize:
		c = len(a.chunks)
		a.chunks = append(a.chunks, make([]byte, 0, n))
	case c >= len(a.chunks) || cap(a.chunks[c])-len(a.chunks[c]) < n:
		size := max(a.next, minChunk)
		for size < n {
			size *= 2
		}
		a.next = min(2*size, chunkSize)
		c = len(a.chunks)
		a.chunks = append(a.chunks, make([]byte, 0, size))
		a.fill = c
	}
	if c >= 1<<chunkBits {
		panic("kvstore: arena is out of chunk numbers")
	}
	chunk := a.chunks[c]
	off := len(chunk)
	a.chunks[c] = chunk[:off+n]
	return uint64(c)<<offBits | uint64(off), chunk[off : off+n : off+n]
}

// record returns the key and value of the record a slot (or a location)
// points at, as views with capacity clipped to length.
func (a *arena) record(sl uint64) (key, value []byte) {
	key, rest := field(a.at(sl))
	value, _ = field(rest)
	return key, value
}

// at returns the arena from the start of the record a slot points at to the
// end of its chunk.
func (a *arena) at(sl uint64) []byte {
	loc := sl & locMask
	return a.chunks[loc>>offBits][loc&(chunkSize-1):]
}

// field splits the length-prefixed field at the front of rec from the rest.
// The field's capacity is clipped to its length.
func field(rec []byte) (f, rest []byte) {
	n, w := int(rec[0]), 1
	if n >= 0x80 {
		u, uw := binary.Uvarint(rec)
		n, w = int(u), uw
	}
	return rec[w : w+n : w+n], rec[w+n:]
}

// raw returns the whole encoded record a slot points at.
func (a *arena) raw(sl uint64) []byte {
	k, v := a.record(sl)
	loc := sl & locMask
	off := loc & (chunkSize - 1)
	return a.chunks[loc>>offBits][off : off+uint64(recordSize(len(k), len(v)))]
}

// Stats is a snapshot of the operation counters.
type Stats struct {
	Gets, Puts, ScannedKeys, Scans int64
}

// Stats returns the counters accumulated since the store was created.
func (s *Store) Stats() Stats {
	return Stats{
		Gets:        s.gets.Load(),
		Puts:        s.puts.Load(),
		ScannedKeys: s.scanned.Load(),
		Scans:       s.scans.Load(),
	}
}

// Sub returns the counter delta st - prev, for attributing one query's
// index-access cost.
func (st Stats) Sub(prev Stats) Stats {
	return Stats{
		Gets:        st.Gets - prev.Gets,
		Puts:        st.Puts - prev.Puts,
		ScannedKeys: st.ScannedKeys - prev.ScannedKeys,
		Scans:       st.Scans - prev.Scans,
	}
}
