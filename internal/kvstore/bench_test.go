package kvstore

import (
	"fmt"
	"testing"
)

// appendWorkloadPair appends pair i of the shape a DGFIndex over the
// smart-grid table stores: a g/<region>_<user>_<day> GFUKey of about 20 bytes
// and a 17-byte GFUValue.
func appendWorkloadPair(key, value []byte, i int) ([]byte, []byte) {
	region, user, day := i%10, 1000+(i/10)%100, i/1000
	key = fmt.Appendf(key, "g/%d_%d_2012-%02d-%02d", region, user, 1+day/28, 1+day%28)
	for j := 0; j < 17; j++ {
		value = append(value, byte(i+j))
	}
	return key, value
}

// workloadStore returns a store of n workload pairs and their keys. The keys
// are rendered apart from the ones the store was given, as the planner renders
// a query's cell keys, so a lookup compares bytes and never just pointers.
func workloadStore(n int) (*Store, []string) {
	s := New()
	keys := make([]string, n)
	var k, v []byte
	for i := range keys {
		k, v = appendWorkloadPair(k[:0], v[:0], i)
		keys[i] = string(k)
		s.Put(string(k), v)
	}
	return s, keys
}

// The planner's two lookups: one key at a time (metadata, single cells) and
// MultiGet over a query's cells. Keys are visited in a fixed stride so the
// probes do not walk the table in insertion order.
func BenchmarkStoreGet(b *testing.B) {
	s, keys := workloadStore(16000)
	at := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = (at + 7919) % len(keys)
		if _, ok := s.Get(keys[at]); !ok {
			b.Fatalf("key %q vanished", keys[at])
		}
	}
	b.StopTimer()
	if a := testing.AllocsPerRun(100, func() { s.Get(keys[0]) }); a != 0 {
		b.Fatalf("Get allocates %.0f times; a view costs none", a)
	}
}

func BenchmarkStoreMultiGet(b *testing.B) {
	s, keys := workloadStore(16000)
	batch := make([]string, 64)
	at := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			at = (at + 7919) % len(keys)
			batch[j] = keys[at]
		}
		if got := s.MultiGet(batch); got[0] == nil {
			b.Fatalf("key %q vanished", batch[0])
		}
	}
	b.StopTimer()
	if a := testing.AllocsPerRun(100, func() { s.MultiGet(batch) }); a != 1 {
		b.Fatalf("MultiGet allocates %.0f times; only its result slice should", a)
	}
}
