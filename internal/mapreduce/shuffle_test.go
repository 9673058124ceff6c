package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// memInput is an in-memory InputFormat: one split per line slice. A record
// carries no batch: its split's number is in Path, so a test can tell map
// tasks apart, and its line's index in Offset.
type memInput struct{ splits [][]string }

type memSplit int

func (s memSplit) Label() string { return fmt.Sprintf("mem-%d", int(s)) }

func (in *memInput) Splits() ([]InputSplit, error) {
	out := make([]InputSplit, len(in.splits))
	for i := range out {
		out[i] = memSplit(i)
	}
	return out, nil
}

func (in *memInput) Open(split InputSplit) (RecordReader, error) {
	i := int(split.(memSplit))
	return &memReader{lines: in.splits[i], path: fmt.Sprint(i)}, nil
}

type memReader struct {
	lines []string
	path  string
	next  int
}

func (r *memReader) Next() (Record, bool, error) {
	if r.next == len(r.lines) {
		return Record{}, false, nil
	}
	r.next++
	return Record{Path: r.path, Offset: int64(r.next - 1)}, true, nil
}

// line is the line rec stands for.
func (in *memInput) line(rec Record) string {
	s, _ := strconv.Atoi(rec.Path)
	return in.splits[s][rec.Offset]
}

func (r *memReader) BytesRead() int64 { return 0 }
func (r *memReader) Seeks() int64     { return 0 }

// TestShuffleOrderContract pins what a reducer and a combiner are handed:
// keys ascending, each key's values ascending by bytes, duplicates kept —
// whichever map task finished first — for Reduce, ReduceTask and Combine
// jobs alike. The reference is the sort-every-pair order the engine used to
// produce.
func TestShuffleOrderContract(t *testing.T) {
	const reducers = 3
	keys := []string{"k", "k1", "k10", "k2", "a_b", "", "zz", "k\x00", "K"}
	payloads := []string{"", "a", "ab", "a\x00", "b", "\xff", "ab", "a", "0", "00"}
	in := &memInput{splits: make([][]string, 4)}
	type pair struct{ key, value string }
	var all []pair
	n := 0
	for s := range in.splits {
		for i := 0; i < 60; i++ {
			key, payload := keys[(n*7+s)%len(keys)], payloads[(n*3+i/5)%len(payloads)]
			n++
			in.splits[s] = append(in.splits[s], key+"\t"+payload)
			// The value ends in its split's number, so a combiner call can be
			// attributed to its map task; duplicates arise within a split.
			all = append(all, pair{key, payload + "\x01" + fmt.Sprint(s)})
		}
	}
	// One buffer for every emitted value: the engine must copy.
	mapFn := func(rec Record, emit Emit) error {
		key, payload, _ := strings.Cut(in.line(rec), "\t")
		buf := make([]byte, 0, 16)
		buf = append(buf, payload...)
		buf = append(buf, 1)
		buf = append(buf, rec.Path...)
		emit(key, buf)
		for i := range buf {
			buf[i] = '!'
		}
		return nil
	}

	// wantGroups is the reference: every pair sorted by key, then value.
	wantGroups := func(keep func(pair) bool) []Group {
		var kept []pair
		for _, p := range all {
			if keep(p) {
				kept = append(kept, p)
			}
		}
		sort.Slice(kept, func(i, j int) bool {
			if kept[i].key != kept[j].key {
				return kept[i].key < kept[j].key
			}
			return kept[i].value < kept[j].value
		})
		var out []Group
		for _, p := range kept {
			if len(out) == 0 || out[len(out)-1].Key != p.key {
				out = append(out, Group{Key: p.key})
			}
			out[len(out)-1].Values = append(out[len(out)-1].Values, []byte(p.value))
		}
		return out
	}
	inPartition := func(part int) func(pair) bool {
		return func(p pair) bool { return partitionOf(p.key, reducers) == part }
	}
	check := func(t *testing.T, what string, got, want []Group) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", what, len(got), len(want))
		}
		dups := false
		for i := range want {
			if got[i].Key != want[i].Key {
				t.Fatalf("%s: group %d has key %q, want %q", what, i, got[i].Key, want[i].Key)
			}
			if !slices.EqualFunc(got[i].Values, want[i].Values, bytes.Equal) {
				t.Fatalf("%s: key %q delivered values %q, want %q", what, got[i].Key, got[i].Values, want[i].Values)
			}
			for j := 1; j < len(want[i].Values); j++ {
				dups = dups || bytes.Equal(want[i].Values[j-1], want[i].Values[j])
			}
		}
		if !dups && len(want) > 2 {
			t.Fatalf("%s: the input has no duplicate values to order", what)
		}
	}
	clone := func(values [][]byte) [][]byte {
		out := make([][]byte, len(values))
		for i, v := range values {
			out[i] = bytes.Clone(v)
		}
		return out
	}

	// recordingReduce collects Reduce calls per partition, in call order.
	type recorder struct {
		mu    sync.Mutex
		parts [reducers][]Group
	}
	reduceInto := func(r *recorder) ReduceFunc {
		return func(key string, values [][]byte, emit Emit) error {
			g := Group{Key: key, Values: clone(values)}
			// Growing a delivered value must not run into its neighbour.
			_ = append(values[0], "overrun"...)
			if !slices.EqualFunc(values, g.Values, bytes.Equal) {
				return fmt.Errorf("appending to a value of %q changed another", key)
			}
			p := partitionOf(key, reducers)
			r.mu.Lock()
			r.parts[p] = append(r.parts[p], g)
			r.mu.Unlock()
			return nil
		}
	}

	t.Run("Reduce", func(t *testing.T) {
		var rec recorder
		stats, err := RunContext(context.Background(), testCfg(), &Job{Name: "order-reduce", Input: in, Map: mapFn, Reduce: reduceInto(&rec), NumReducers: reducers})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Splits < 3 || stats.ShufflePairs != int64(len(all)) {
			t.Fatalf("splits = %d, shuffle pairs = %d, want >= 3 and %d", stats.Splits, stats.ShufflePairs, len(all))
		}
		for p := 0; p < reducers; p++ {
			check(t, fmt.Sprintf("partition %d", p), rec.parts[p], wantGroups(inPartition(p)))
		}
	})

	t.Run("ReduceTask", func(t *testing.T) {
		var mu sync.Mutex
		var parts [reducers][]Group
		_, err := RunContext(context.Background(), testCfg(), &Job{Name: "order-task", Input: in, Map: mapFn, NumReducers: reducers,
			ReduceTask: func(task int, groups []Group, emit Emit) error {
				mu.Lock()
				defer mu.Unlock()
				for _, g := range groups {
					parts[task] = append(parts[task], Group{Key: g.Key, Values: clone(g.Values)})
				}
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < reducers; p++ {
			check(t, fmt.Sprintf("task %d", p), parts[p], wantGroups(inPartition(p)))
		}
	})

	t.Run("Combine", func(t *testing.T) {
		var mu sync.Mutex
		calls := map[[2]int][]Group{} // (split, partition) → calls in order
		var rec recorder
		_, err := RunContext(context.Background(), testCfg(), &Job{Name: "order-combine", Input: in, Map: mapFn, Reduce: reduceInto(&rec), NumReducers: reducers,
			Combine: func(key string, values [][]byte) [][]byte {
				_, split, _ := bytes.Cut(values[0], []byte{1})
				at := [2]int{int(split[0] - '0'), partitionOf(key, reducers)}
				mu.Lock()
				calls[at] = append(calls[at], Group{Key: key, Values: clone(values)})
				mu.Unlock()
				// Hand the values back reversed: the reduce side owes the
				// order again.
				out := clone(values)
				slices.Reverse(out)
				return out
			}})
		if err != nil {
			t.Fatal(err)
		}
		for s := range in.splits {
			suffix := "\x01" + fmt.Sprint(s)
			for p := 0; p < reducers; p++ {
				want := wantGroups(func(pr pair) bool { return strings.HasSuffix(pr.value, suffix) && partitionOf(pr.key, reducers) == p })
				check(t, fmt.Sprintf("combiner of split %d, partition %d", s, p), calls[[2]int{s, p}], want)
			}
		}
		for p := 0; p < reducers; p++ {
			check(t, fmt.Sprintf("partition %d after combine", p), rec.parts[p], wantGroups(inPartition(p)))
		}
	})
}

// TestPartitionOfIsFNV1a: the inlined hash assigns every key the partition
// hash/fnv would, so reducer output files keep their contents.
func TestPartitionOfIsFNV1a(t *testing.T) {
	for i, key := range []string{"", "a", "7_13", "1_2012-12-01", "k\x00", "\xff\xfe", strings.Repeat("long key ", 40)} {
		for _, n := range []int{2, 3, 12, 64} {
			h := fnv.New32a()
			h.Write([]byte(key))
			if got, want := partitionOf(key, n), int(h.Sum32()%uint32(n)); got != want {
				t.Errorf("key %d: partitionOf(%q, %d) = %d, want %d", i, key, n, got, want)
			}
		}
	}
}
