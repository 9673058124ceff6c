package kvstore

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	s := New()
	s.Put("7_13", []byte("gfu"))
	v, ok := s.Get("7_13")
	if !ok || string(v) != "gfu" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get("1_1"); ok {
		t.Error("missing key returned ok")
	}
	s.Put("7_13", []byte("gfu2"))
	v, _ = s.Get("7_13")
	if string(v) != "gfu2" {
		t.Error("Put did not overwrite")
	}
	if keys := s.Keys(); len(keys) != 1 {
		t.Errorf("Keys = %q, want one key", keys)
	}
}

func TestMultiGetAlignment(t *testing.T) {
	s := New()
	s.Put("a", []byte("1"))
	s.Put("c", []byte("3"))
	got := s.MultiGet([]string{"a", "b", "c"})
	if string(got[0]) != "1" || got[1] != nil || string(got[2]) != "3" {
		t.Errorf("MultiGet = %v", got)
	}
}

// An empty value is still a value: the planner and the build's merge tell a
// missing cell by a nil read.
func TestEmptyValueIsNotNil(t *testing.T) {
	s := New()
	s.Put("empty", nil)
	s.PutBatch([]Pair{{Key: "also-empty", Value: []byte{}}})
	for _, k := range []string{"empty", "also-empty"} {
		if v, ok := s.Get(k); !ok || v == nil || len(v) != 0 {
			t.Errorf("Get(%q) = %v, %v; want a non-nil empty value", k, v, ok)
		}
	}
	got := s.MultiGet([]string{"empty", "absent", "also-empty"})
	if got[0] == nil || got[1] != nil || got[2] == nil {
		t.Errorf("MultiGet = %#v; want non-nil, nil, non-nil", got)
	}
	if v, ok := s.Get("absent"); ok || v != nil {
		t.Errorf("Get(absent) = %v, %v; want nil, false", v, ok)
	}
	for _, p := range s.ScanPrefix("") {
		if p.Value == nil {
			t.Errorf("ScanPrefix value of %q is nil", p.Key)
		}
	}
}

func TestScanAfterMutation(t *testing.T) {
	s := New()
	s.Put("b", nil)
	_ = s.ScanPrefix("")
	s.Put("a", nil)
	keys := s.Keys()
	if !sort.StringsAreSorted(keys) || len(keys) != 2 || keys[0] != "a" {
		t.Errorf("Keys after mutation = %v", keys)
	}
	s.Put("a", []byte("again"))
	if got := s.ScanPrefix(""); len(got) != 2 || got[0].Key != "a" || string(got[0].Value) != "again" {
		t.Errorf("ScanPrefix after overwrite = %v", got)
	}
}

func TestScanPrefix(t *testing.T) {
	s := New()
	for _, k := range []string{"meta/min", "meta/max", "gfu/1_1", "gfu/1_2", "gfu/2_1", "h"} {
		s.Put(k, nil)
	}
	got := s.ScanPrefix("gfu/")
	if len(got) != 3 {
		t.Fatalf("ScanPrefix = %d pairs, want 3", len(got))
	}
	for _, p := range got {
		if p.Key[:4] != "gfu/" {
			t.Errorf("stray key %q", p.Key)
		}
	}
	if len(s.ScanPrefix("meta/")) != 2 || len(s.ScanPrefix("zz")) != 0 {
		t.Error("ScanPrefix counts wrong")
	}
}

func TestPrefixEndEdge(t *testing.T) {
	s := New()
	s.Put("\xff\xff", []byte("hi"))
	s.Put("\xfe", []byte("lo"))
	got := s.ScanPrefix("\xff")
	if len(got) != 1 || got[0].Key != "\xff\xff" {
		t.Errorf("ScanPrefix(0xff) = %v", got)
	}
}

func TestStatsAndSim(t *testing.T) {
	s := New()
	s.PutBatch([]Pair{{Key: "a"}, {Key: "b"}})
	s.Get("a")
	s.MultiGet([]string{"a", "b", "c"})
	s.ScanPrefix("")
	s.Keys() // not an index operation: counts nothing
	st := s.Stats()
	if st.Puts != 2 || st.Gets != 4 || st.Scans != 1 || st.ScannedKeys != 2 {
		t.Errorf("Stats = %+v", st)
	}
	d := st.Sub(Stats{Gets: 1})
	if d.Gets != 3 {
		t.Errorf("Sub.Gets = %d, want 3", d.Gets)
	}
}

func TestSizeBytes(t *testing.T) {
	s := New()
	s.Put("key1", []byte("value1")) // 4 + 6
	s.Put("k", []byte("v"))         // 1 + 1
	if got := s.SizeBytes(); got != 12 {
		t.Errorf("SizeBytes = %d, want 12", got)
	}
	s.Put("key1", []byte("v1")) // 4 + 2: the overwritten value no longer counts
	if got := s.SizeBytes(); got != 8 {
		t.Errorf("SizeBytes after overwrite = %d, want 8", got)
	}
}

// Readers hold views into the arena while writers append to the same chunk
// and, with the overwrites, compact it away; run under -race.
func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("%d_%d", g, i)
				s.Put(k, []byte(k))
				if v, ok := s.Get(k); !ok || string(v) != k {
					t.Errorf("Get(%q) = %q, %v", k, v, ok)
				}
				held = append(held, s.MultiGet([]string{k})[0])
				s.Put(fmt.Sprintf("hot_%d", g), bytes.Repeat([]byte{byte(i)}, 1000))
				if i%50 == 0 {
					s.ScanPrefix("")
				}
			}
			for i, v := range held {
				if want := fmt.Sprintf("%d_%d", g, i); string(v) != want {
					t.Errorf("held view %d = %q, want %q", i, v, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(s.Keys()); n != 8*200+8 {
		t.Errorf("%d keys, want %d", n, 8*200+8)
	}
}

// Property: ScanPrefix returns exactly the sorted keys with that prefix.
func TestScanMatchesSortProperty(t *testing.T) {
	f := func(keys []string, prefix string) bool {
		s := New()
		uniq := map[string]bool{}
		for _, k := range keys {
			s.Put(k, []byte(k))
			uniq[k] = true
		}
		var want []string
		for k := range uniq {
			if strings.HasPrefix(k, prefix) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		got := s.ScanPrefix(prefix)
		gotKeys := make([]string, len(got))
		for i, p := range got {
			gotKeys[i] = p.Key
			if string(p.Value) != p.Key {
				return false
			}
		}
		if len(want) == 0 && len(gotKeys) == 0 {
			return true
		}
		return reflect.DeepEqual(gotKeys, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScanPrefix returns exactly the keys with that prefix.
func TestScanPrefixProperty(t *testing.T) {
	f := func(keys []string, prefix string) bool {
		s := New()
		uniq := map[string]bool{}
		for _, k := range keys {
			s.Put(k, nil)
			uniq[k] = true
		}
		count := 0
		for k := range uniq {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				count++
			}
		}
		return len(s.ScanPrefix(prefix)) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The store holds a pair in little more than its bytes. The map[string][]byte
// it replaced held these 16,000 pairs in 4.00× their SizeBytes (3.80× on the
// slightly longer keys of the benchmark's stores): map buckets plus one
// allocation per key and per value.
func TestStoreFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	var k, v []byte
	for i := 0; i < 16000; i++ {
		k, v = appendWorkloadPair(k[:0], v[:0], i)
		s.Put(string(k), v)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	ratio := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(s.SizeBytes())
	runtime.KeepAlive(s)
	t.Logf("16000 pairs, %d key and value bytes, held in %.2f× that", s.SizeBytes(), ratio)
	if ratio > 1.75 {
		t.Errorf("the store grew the heap by %.2f× its SizeBytes; want at most 1.75×", ratio)
	}
}

// Random Put, PutBatch and overwrite sequences, long enough to compact many
// times, against a map model, with every read checked after every step. The
// caller's value buffer is reused, so a store that kept it would diverge.
func TestStoreMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	s := New()
	model := map[string][]byte{}
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("%c/%d", 'a'+i%3, i)
	}
	keys[0] = ""
	buf := make([]byte, chunkSize+512)
	scribble := bytes.Repeat([]byte{0xAA}, len(buf)) // written over buf after every step
	noise := make([]byte, 2*len(buf))                // values are random windows of it
	for i := range noise {
		noise[i] = byte(rng.Uint32())
	}
	value := func() []byte {
		n := rng.IntN(200)
		switch r := rng.IntN(200); {
		case r == 0:
			n = chunkSize + rng.IntN(512) // a chunk of its own
		case r < 20:
			n = 0
		}
		v := buf[:n]
		copy(v, noise[rng.IntN(len(buf)):])
		return v
	}
	put := func(k string, v []byte) { model[k] = append([]byte{}, v...) }

	compactions := 0
	for step := 0; step < 1000; step++ {
		dead := s.dead
		switch rng.IntN(3) {
		case 0: // one write, fresh or not
			k, v := keys[rng.IntN(len(keys))], value()
			s.Put(k, v)
			put(k, v)
		case 1: // a key-ordered batch; the values share one buffer, as the index's do
			var batch []Pair
			var enc []byte
			for _, i := range rng.Perm(len(keys))[:1+rng.IntN(20)] {
				v := value()
				enc = append(enc, v...)
				batch = append(batch, Pair{Key: keys[i], Value: enc[len(enc)-len(v):]})
			}
			slices.SortFunc(batch, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
			s.PutBatch(batch)
			for _, p := range batch {
				put(p.Key, p.Value)
			}
		case 2: // overwrite a present key
			if len(model) == 0 {
				continue
			}
			k := s.Keys()[rng.IntN(len(model))]
			v := value()
			s.Put(k, v)
			put(k, v)
		}
		copy(buf, scribble)
		if s.dead < dead {
			compactions++
		}
		checkModel(t, step, s, model, keys)
		if t.Failed() {
			return
		}
	}
	if compactions < 5 {
		t.Errorf("%d compactions; the sequence should force several", compactions)
	}
	if s.dead > s.live+chunkSize {
		t.Errorf("%d dead bytes beside %d live: more than one chunk over", s.dead, s.live)
	}
	t.Logf("%d compactions; %d live and %d dead arena bytes at the end", compactions, s.live, s.dead)
}

func checkModel(t *testing.T, step int, s *Store, model map[string][]byte, keys []string) {
	t.Helper()
	var size int64
	var want []Pair
	for k, v := range model {
		size += int64(len(k) + len(v))
		want = append(want, Pair{Key: k, Value: v})
	}
	slices.SortFunc(want, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
	if got := s.SizeBytes(); got != size {
		t.Errorf("step %d: SizeBytes = %d, model %d", step, got, size)
	}
	got := s.ScanPrefix("")
	if len(got) != len(want) {
		t.Fatalf("step %d: ScanPrefix returned %d pairs, model has %d", step, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("step %d: ScanPrefix[%d] = %q, model %q", step, i, got[i].Key, want[i].Key)
		}
	}
	multi := s.MultiGet(keys)
	for i, k := range keys {
		mv, present := model[k]
		v, ok := s.Get(k)
		if ok != present || !bytes.Equal(v, mv) || (v == nil) != !present || !bytes.Equal(multi[i], mv) || (multi[i] == nil) != !present {
			t.Fatalf("step %d: key %q reads %q, %v (MultiGet %q), model %q, %v", step, k, v, ok, multi[i], mv, present)
		}
	}
}

// A value handed out is a view, but no write — the caller's or the store's
// — reaches it, and no append to it reaches the store.
func TestViewsAreReadOnlySnapshots(t *testing.T) {
	s := New()
	s.PutBatch([]Pair{{Key: "a", Value: []byte("one")}, {Key: "b", Value: []byte("two")}})
	v, _ := s.Get("a")
	if cap(v) != len(v) {
		t.Errorf("Get's view has capacity %d beyond its %d bytes", cap(v), len(v))
	}
	_ = append(v, 'X')
	if got, _ := s.Get("b"); string(got) != "two" {
		t.Errorf("appending to a's value changed b to %q", got)
	}
	for _, views := range [][][]byte{s.MultiGet([]string{"a", "b"}), {s.ScanPrefix("")[0].Value}} {
		for _, w := range views {
			if cap(w) != len(w) {
				t.Errorf("view %q has capacity %d", w, cap(w))
			}
		}
	}

	s.Put("a", []byte("uno"))
	if string(v) != "one" {
		t.Errorf("a view read before an overwrite now holds %q", v)
	}
	chunks := len(s.arena.chunks)
	big := make([]byte, 1000)
	for compacted := false; !compacted; {
		dead := s.dead
		s.Put("a", big)
		compacted = s.dead < dead
	}
	if string(v) != "one" {
		t.Errorf("a view read before a compaction now holds %q", v)
	}
	if got, _ := s.Get("b"); string(got) != "two" {
		t.Errorf("b reads %q after the compaction", got)
	}
	if len(s.arena.chunks) > chunks+1 {
		t.Errorf("%d chunks after the compaction, were %d", len(s.arena.chunks), chunks)
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
