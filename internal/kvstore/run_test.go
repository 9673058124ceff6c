package kvstore

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// runPairs returns n key-ordered pairs whose values share one buffer, as the
// index's merged pairs do: empty values, short ones, one larger than a chunk
// at index big (none if big < 0), and every other key given twice.
func runPairs(rng *rand.Rand, n, big int) []Pair {
	var enc []byte
	var pairs []Pair
	for i := 0; i < n; i++ {
		size := rng.IntN(60)
		switch {
		case i == big:
			size = chunkSize + 100
		case i%7 == 0:
			size = 0
		}
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(rng.Uint32())
		}
		enc = append(enc, v...)
		pairs = append(pairs, Pair{Key: fmt.Sprintf("g/%05d", i/2*2), Value: enc[len(enc)-size:]})
	}
	return pairs
}

// seeded returns a store holding the even keys below 2n that runPairs(n)
// overwrites, and a few of its own.
func seeded(n int) *Store {
	s := New()
	for i := 0; i < 2*n; i += 4 {
		s.Put(fmt.Sprintf("g/%05d", i), []byte(strings.Repeat("o", i%50)))
	}
	s.Put("m/gen", []byte("3"))
	return s
}

// checkSame requires two stores to read the same through every operation
// and to account and count the same.
func checkSame(t *testing.T, a, b *Store, keys []string) {
	t.Helper()
	if a.SizeBytes() != b.SizeBytes() {
		t.Errorf("SizeBytes %d and %d", a.SizeBytes(), b.SizeBytes())
	}
	if a.n != b.n || a.live != b.live || a.dead != b.dead {
		t.Errorf("n/live/dead %d/%d/%d and %d/%d/%d", a.n, a.live, a.dead, b.n, b.live, b.dead)
	}
	for _, k := range keys {
		va, oka := a.Get(k)
		vb, okb := b.Get(k)
		if oka != okb || !bytes.Equal(va, vb) || (va == nil) != (vb == nil) {
			t.Fatalf("Get(%q) = %q, %v and %q, %v", k, va, oka, vb, okb)
		}
	}
	if ma, mb := a.MultiGet(keys), b.MultiGet(keys); !reflect.DeepEqual(ma, mb) {
		t.Errorf("MultiGet differs")
	}
	for _, prefix := range []string{"", "g/", "g/001", "m/"} {
		if pa, pb := a.ScanPrefix(prefix), b.ScanPrefix(prefix); !reflect.DeepEqual(pa, pb) {
			t.Errorf("ScanPrefix(%q): %d and %d pairs, or other bytes", prefix, len(pa), len(pb))
		}
	}
	if !slices.Equal(a.Keys(), b.Keys()) {
		t.Errorf("Keys differ")
	}
	if a.Stats() != b.Stats() {
		t.Errorf("Stats %+v and %+v", a.Stats(), b.Stats())
	}
}

// PutRun of a run reads, accounts and counts exactly as PutBatch of its
// pairs: over an empty store and one whose keys it overwrites, with and
// without a record larger than a chunk, and across the slot table's growth.
func TestPutRunMatchesPutBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 45))
	for _, n := range []int{0, 1, 5, 300, 5000} {
		for _, big := range []int{-1, n / 2} {
			for _, fresh := range []bool{true, false} {
				t.Run(fmt.Sprintf("n=%d/big=%d/fresh=%v", n, big, fresh), func(t *testing.T) {
					pairs := runPairs(rng, n, big)
					a, b := New(), New()
					if !fresh {
						a, b = seeded(n), seeded(n)
					}
					a.PutBatch(pairs)
					r := NewRun(pairs)
					if !r.Equal(pairs) {
						t.Fatal("a run does not equal the pairs it was made of")
					}
					b.PutRun(r)
					keys := []string{"m/gen", "absent", "g/"}
					for i := 0; i < 2*n+2; i++ {
						keys = append(keys, fmt.Sprintf("g/%05d", i))
					}
					checkSame(t, a, b, keys)
					// Further writes land the same on both.
					a.Put("g/00000", []byte("after"))
					b.Put("g/00000", []byte("after"))
					checkSame(t, a, b, keys)
				})
			}
		}
	}
}

// A run's chunks are whole records of at most a chunk, sized exactly; a
// record larger than a chunk has one of its own. Runs that differ in a key or
// a value byte are not equal.
func TestRunLayout(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 45))
	pairs := runPairs(rng, 9000, 4000)
	r := NewRun(pairs)
	records := 0
	for c, chunk := range r.chunks {
		if cap(chunk) != len(chunk) {
			t.Errorf("chunk %d has capacity %d beyond its %d bytes", c, cap(chunk), len(chunk))
		}
		n := 0
		for off := 0; off < len(chunk); n++ {
			k, rest := field(chunk[off:])
			v, _ := field(rest)
			off += int(recordSize(len(k), len(v)))
		}
		if len(chunk) > chunkSize && n != 1 {
			t.Errorf("chunk %d holds %d bytes in %d records", c, len(chunk), n)
		}
		records += n
	}
	if records != len(pairs) || r.n != len(pairs) {
		t.Errorf("the run holds %d records (n %d) of %d pairs", records, r.n, len(pairs))
	}
	other := slices.Clone(pairs)
	other[17].Value = append(slices.Clone(other[17].Value), 0)
	if r.Equal(other) || r.Equal(pairs[1:]) {
		t.Error("a run equals pairs it does not hold")
	}
	other = slices.Clone(pairs)
	other[3].Key += "x"
	if r.Equal(other) {
		t.Error("a run equals pairs with another key")
	}
}

// Two stores that put one run hold its records once: each value they read is
// the run's bytes. Overwrites and a compaction on either store leave every
// view of the other — and every view read before — intact, and a store
// never writes into the run, also when it has room for a record there.
func TestRunSharedByTwoStores(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 45))
	pairs := runPairs(rng, 3000, 1501) // the big value is its key's last
	r := NewRun(pairs)
	runBytes := slices.Clone(r.chunks)
	for i, c := range r.chunks {
		runBytes[i] = slices.Clone(c)
	}
	a, b := seeded(3000), seeded(3000)
	a.PutRun(r)
	b.PutRun(r)
	keys := a.Keys()
	checkSame(t, a, b, keys)
	inRun := func(v []byte) bool {
		if len(v) == 0 {
			return false
		}
		at := uintptr(unsafe.Pointer(&v[0]))
		for _, c := range r.chunks {
			if len(c) > 0 && at >= uintptr(unsafe.Pointer(&c[0])) && at < uintptr(unsafe.Pointer(&c[0]))+uintptr(len(c)) {
				return true
			}
		}
		return false
	}
	fromRun := map[string]bool{}
	for _, p := range pairs {
		fromRun[p.Key] = true
	}
	before := b.ScanPrefix("g/")
	for _, p := range before {
		if len(p.Value) == 0 || !fromRun[p.Key] {
			continue
		}
		va, _ := a.Get(p.Key)
		if &va[0] != &p.Value[0] || !inRun(va) {
			t.Fatalf("%s: the stores hold their own copies", p.Key)
		}
	}
	want := map[string][]byte{}
	for _, p := range before {
		want[p.Key] = slices.Clone(p.Value)
	}

	// Store a takes overwrites until it compacts; store b takes small new
	// records, which must go to chunks of its own.
	compacted := false
	for i := 0; !compacted; i++ {
		dead := a.dead
		k := keys[i%len(keys)]
		a.Put(k, bytes.Repeat([]byte{byte(i)}, 40))
		compacted = a.dead < dead
	}
	for i := 0; i < 50; i++ {
		b.Put(fmt.Sprintf("n/%d", i), []byte{byte(i)})
		if v, _ := b.Get(fmt.Sprintf("n/%d", i)); inRun(v) {
			t.Fatalf("store b wrote record n/%d into the run", i)
		}
	}
	for i, c := range r.chunks {
		if !bytes.Equal(c, runBytes[i]) || cap(c) != len(c) {
			t.Fatalf("run chunk %d changed", i)
		}
	}
	for _, p := range before {
		if !bytes.Equal(p.Value, want[p.Key]) {
			t.Fatalf("a view of %s read before the writes changed", p.Key)
		}
		if v, _ := b.Get(p.Key); !bytes.Equal(v, want[p.Key]) {
			t.Fatalf("store b reads %s differently after store a's compaction", p.Key)
		}
	}
	for _, p := range a.ScanPrefix("g/") {
		if inRun(p.Value) {
			t.Fatalf("after its compaction store a still reads %s from the run", p.Key)
		}
	}

	// Now store b compacts; store a and the views are untouched.
	aBefore := a.ScanPrefix("")
	for i := 0; ; i++ {
		dead := b.dead
		b.Put(keys[i%len(keys)], bytes.Repeat([]byte{byte(i)}, 40))
		if b.dead < dead {
			break
		}
	}
	if got := a.ScanPrefix(""); !reflect.DeepEqual(got, aBefore) {
		t.Error("store b's compaction changed what store a reads")
	}
	for _, p := range before {
		if !bytes.Equal(p.Value, want[p.Key]) {
			t.Fatalf("a view of %s changed in store b's compaction", p.Key)
		}
	}
	for i, c := range r.chunks {
		if !bytes.Equal(c, runBytes[i]) {
			t.Fatalf("run chunk %d changed", i)
		}
	}
}

// A store's own chunks start small and double up to a full chunk, so a store
// of a few metadata keys holds about a kilobyte, not 64 KiB.
func TestStoreChunksGrow(t *testing.T) {
	s := New()
	s.Put("m/gen", []byte("1"))
	if c := cap(s.arena.chunks[0]); c != minChunk {
		t.Errorf("a one-key store's chunk holds %d bytes, want %d", c, minChunk)
	}
	for i := 0; i < 20000; i++ {
		s.Put(fmt.Sprintf("k/%06d", i), []byte("0123456789"))
	}
	size := minChunk
	for i, c := range s.arena.chunks {
		if cap(c) != size {
			t.Fatalf("chunk %d holds %d bytes, want %d", i, cap(c), size)
		}
		size = min(2*size, chunkSize)
	}
	if size != chunkSize {
		t.Errorf("the chunks never reached %d bytes", chunkSize)
	}
}
