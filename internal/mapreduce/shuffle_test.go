package mapreduce

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
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

// pairInput is an in-memory InputFormat whose map task s emits splits[s]'s
// pairs in order (pairMapper), each from a buffer it then overwrites.
type pairInput struct{ splits [][]pair }

func (in *pairInput) Splits() ([]InputSplit, error) {
	out := make([]InputSplit, len(in.splits))
	for i := range out {
		out[i] = memSplit(i)
	}
	return out, nil
}

func (in *pairInput) Open(split InputSplit) (RecordReader, error) {
	i := int(split.(memSplit))
	return &memReader{lines: make([]string, len(in.splits[i])), path: strconv.Itoa(i)}, nil
}

// pairMapper is one map task of a pairInput job.
type pairMapper struct {
	in  *pairInput
	buf []byte
}

func (in *pairInput) newMapper() TaskMapper { return &pairMapper{in: in} }

func (m *pairMapper) Map(rec Record, emit Emit) error {
	s, _ := strconv.Atoi(rec.Path)
	p := m.in.splits[s][rec.Offset]
	m.buf = append(m.buf[:0], p.Value...)
	emit(p.Key, m.buf)
	for i := range m.buf {
		m.buf[i] = '!'
	}
	return nil
}

func (m *pairMapper) Close(Emit) error { return nil }

// keyedPairMapper is pairMapper emitting by key id: it interns each key at
// its first pair in the task and emits every pair through the task's Keys.
type keyedPairMapper struct {
	pairMapper
	keys Keys
	ids  map[string]uint32
}

func (in *pairInput) newKeyedMapper() TaskMapper {
	return &keyedPairMapper{pairMapper: pairMapper{in: in}, ids: map[string]uint32{}}
}

func (m *keyedPairMapper) UseKeys(keys Keys) { m.keys = keys }

func (m *keyedPairMapper) Map(rec Record, _ Emit) error {
	return m.pairMapper.Map(rec, func(key string, value []byte) {
		id, ok := m.ids[key]
		if !ok {
			id = m.keys.Intern(key)
			m.ids[key] = id
		}
		m.keys.Emit(id, value)
	})
}

// combined is what a combiner makes of each map task's pairs: per key, the
// values ascending by bytes handed to combine, and its outputs kept.
func combined(splits [][]pair, combine CombineFunc) [][]pair {
	out := make([][]pair, len(splits))
	for s, ps := range splits {
		byKey := map[string][][]byte{}
		for _, p := range ps {
			byKey[p.Key] = append(byKey[p.Key], bytes.Clone(p.Value))
		}
		for _, key := range slices.Sorted(maps.Keys(byKey)) {
			values := byKey[key]
			slices.SortFunc(values, bytes.Compare)
			for _, v := range combine(key, values) {
				out[s] = append(out[s], pair{Key: key, Value: bytes.Clone(v)})
			}
		}
	}
	return out
}

// referenceGroups sorts every pair of partition part by key, then value, and
// groups them: what a reduce task must be handed.
func referenceGroups(splits [][]pair, reducers, part int) []Group {
	var kept []pair
	for _, ps := range splits {
		for _, p := range ps {
			if partitionOf(p.Key, reducers) == part {
				kept = append(kept, p)
			}
		}
	}
	slices.SortFunc(kept, func(a, b pair) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), bytes.Compare(a.Value, b.Value))
	})
	var out []Group
	for _, p := range kept {
		if len(out) == 0 || out[len(out)-1].Key != p.Key {
			out = append(out, Group{Key: p.Key})
		}
		out[len(out)-1].Values = append(out[len(out)-1].Values, p.Value)
	}
	return out
}

type shuffleCase struct {
	name    string
	splits  [][]pair
	combine CombineFunc
}

// shuffleCases are map outputs the flat buffers must carry whole: a value
// longer than the largest chunk between empty ones, one key emitted by every
// map task between the others, a combiner whose outputs outgrow its inputs
// (and which drops some keys altogether), and one map task of 300,000
// one-byte values, far past the point where the ref blocks stop growing.
func shuffleCases() []shuffleCase {
	long := bytes.Repeat([]byte("0123456789abcdef"), maxChunk/16+3)
	long[len(long)-1] = 'z'
	var flood []pair
	for i := 0; i < 300_000; i++ {
		flood = append(flood, pair{Key: "f" + strconv.Itoa(i%7), Value: long[i%10 : i%10+1]})
	}
	flood = append(flood, pair{"f1", long[:5]}, pair{"f2", nil}, pair{"f8", long})
	var interleaved [][]pair
	for s := 0; s < 5; s++ {
		var ps []pair
		for i := 0; i < 400; i++ {
			ps = append(ps, pair{Key: fmt.Sprintf("k%d", (i*7+s)%37), Value: []byte(fmt.Sprintf("%d/%d", s, i%13))})
			if i%3 == 0 {
				ps = append(ps, pair{Key: "every", Value: []byte(fmt.Sprintf("%03d", (i*s)%50))})
			}
		}
		interleaved = append(interleaved, ps)
	}
	grow := func(key string, values [][]byte) [][]byte {
		if strings.HasSuffix(key, "3") {
			return nil
		}
		joined := bytes.Join(values, []byte(","))
		return [][]byte{append(joined, joined...), bytes.Repeat([]byte{'#'}, 3*len(values)), {}}
	}
	return []shuffleCase{
		{"long and empty values", [][]pair{
			{{"a", nil}, {"b", []byte("x")}, {"a", long}, {"a", []byte{}}, {"c", long[:maxChunk]}},
			{{"a", long[1:]}, {"b", nil}, {"c", []byte("after")}, {"c", long[:maxChunk+1]}},
			{{"b", []byte("y")}, {"a", []byte("tail")}},
		}, nil},
		{"one key in every map task", interleaved, nil},
		{"combiner outgrows its input", interleaved, grow},
		{"combiner over long values", [][]pair{
			{{"k3", long}, {"k1", long[:100]}, {"k1", nil}, {"k2", long}},
			{{"k1", long}, {"k2", []byte("v")}},
		}, grow},
		{"one long map task", [][]pair{flood, {{"f3", []byte("other")}}}, nil},
	}
}

// TestShuffleCarriesValuesWhole: whatever the buffers' chunking, a reducer
// is handed exactly the pairs the map tasks emitted (or their combiners
// handed back), in the contract's order.
func TestShuffleCarriesValuesWhole(t *testing.T) {
	const reducers = 4
	for _, tc := range shuffleCases() {
		t.Run(tc.name, func(t *testing.T) {
			in := &pairInput{splits: tc.splits}
			want := tc.splits
			if tc.combine != nil {
				want = combined(tc.splits, tc.combine)
			}
			var mu sync.Mutex
			got := make([][]Group, reducers)
			_, err := RunContext(context.Background(), testCfg(), &Job{Name: "whole", Input: in, NewMapper: in.newMapper, Combine: tc.combine, NumReducers: reducers,
				ReduceTask: func(task int, groups []Group, emit Emit) error {
					mu.Lock()
					defer mu.Unlock()
					for _, g := range groups {
						got[task] = append(got[task], Group{Key: g.Key, Values: slices.Clone(g.Values)})
					}
					return nil
				}})
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < reducers; p++ {
				ref := referenceGroups(want, reducers, p)
				if len(got[p]) != len(ref) {
					t.Fatalf("partition %d: %d groups, want %d", p, len(got[p]), len(ref))
				}
				for i, g := range ref {
					if got[p][i].Key != g.Key || !slices.EqualFunc(got[p][i].Values, g.Values, bytes.Equal) {
						t.Fatalf("partition %d, group %d: key %q with %d values, want key %q with %d values", p, i, got[p][i].Key, len(got[p][i].Values), g.Key, len(g.Values))
					}
				}
			}
		})
	}
}

// TestShuffleAccounting holds the volumes the cost model reads — ShuffleBytes,
// ShufflePairs, and each reduce task's input bytes and groups — to sums over
// the pairs that cross the shuffle, computed naively.
func TestShuffleAccounting(t *testing.T) {
	const reducers = 3
	for _, tc := range shuffleCases() {
		t.Run(tc.name, func(t *testing.T) {
			in := &pairInput{splits: tc.splits}
			job := &Job{Name: "accounting", Input: in, NewMapper: in.newMapper, Combine: tc.combine, NumReducers: reducers,
				Reduce: func(string, [][]byte, Emit) error { return nil }}
			crossing := tc.splits
			if tc.combine != nil {
				crossing = combined(tc.splits, tc.combine)
			}
			var wantBytes, wantPairs int64
			partBytes := make([]int64, reducers)
			partKeys := make([]map[string]bool, reducers)
			for p := range partKeys {
				partKeys[p] = map[string]bool{}
			}
			for _, ps := range crossing {
				for _, pr := range ps {
					p := partitionOf(pr.Key, reducers)
					n := int64(len(pr.Key) + len(pr.Value))
					wantBytes += n
					wantPairs++
					partBytes[p] += n
					partKeys[p][pr.Key] = true
				}
			}

			stats, err := RunContext(context.Background(), testCfg(), job)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ShuffleBytes != wantBytes || stats.ShufflePairs != wantPairs {
				t.Fatalf("shuffle bytes, pairs = %d, %d; want %d, %d", stats.ShuffleBytes, stats.ShufflePairs, wantBytes, wantPairs)
			}
			bufs := make([]*shuffleBuf, len(tc.splits))
			for s := range tc.splits {
				r := runMapTask(job, memSplit(s), reducers, true, nil)
				if r.err != nil {
					t.Fatal(r.err)
				}
				bufs[s] = r.shuffle
			}
			for p := 0; p < reducers; p++ {
				r := runReduceTask(job, p, bufs, nil)
				if r.err != nil || r.in.Bytes != partBytes[p] || r.in.Groups != int64(len(partKeys[p])) {
					t.Fatalf("reduce task %d: %d input bytes, %d groups, %v; want %d, %d", p, r.in.Bytes, r.in.Groups, r.err, partBytes[p], len(partKeys[p]))
				}
			}
		})
	}
}

// TestKeyedMapperShufflesAsEmit: a mapper that emits by key id hands every
// reduce task the groups, and the job the accounting, that emitting under
// the key gives; a map-only job refuses it.
func TestKeyedMapperShufflesAsEmit(t *testing.T) {
	const reducers = 3
	run := func(in *pairInput, tc shuffleCase, newMapper func() TaskMapper) ([][]Group, *Stats) {
		var mu sync.Mutex
		got := make([][]Group, reducers)
		stats, err := RunContext(context.Background(), testCfg(), &Job{Name: "keyed", Input: in, NewMapper: newMapper, Combine: tc.combine, NumReducers: reducers,
			ReduceTask: func(task int, groups []Group, emit Emit) error {
				mu.Lock()
				defer mu.Unlock()
				for _, g := range groups {
					got[task] = append(got[task], Group{Key: g.Key, Values: slices.Clone(g.Values)})
				}
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		stats.Wall = 0
		return got, stats
	}
	for _, tc := range shuffleCases() {
		t.Run(tc.name, func(t *testing.T) {
			in := &pairInput{splits: tc.splits}
			want, wantStats := run(in, tc, in.newMapper)
			got, stats := run(in, tc, in.newKeyedMapper)
			if *stats != *wantStats {
				t.Errorf("stats %+v, emitting under the key %+v", *stats, *wantStats)
			}
			for p := range want {
				if !slices.EqualFunc(got[p], want[p], func(a, b Group) bool {
					return a.Key == b.Key && slices.EqualFunc(a.Values, b.Values, bytes.Equal)
				}) {
					t.Fatalf("partition %d: %d groups differ from the %d emitting under the key gives", p, len(got[p]), len(want[p]))
				}
			}
		})
	}
	in := &pairInput{splits: [][]pair{{{"k", []byte("v")}}}}
	_, err := RunContext(context.Background(), testCfg(), &Job{Name: "keyed-map-only", Input: in, NewMapper: in.newKeyedMapper})
	if err == nil || !strings.Contains(err.Error(), "needs a reduce phase") {
		t.Fatalf("map-only job with a keyed mapper: err %v, want one naming the reduce phase it needs", err)
	}
}

// meteredInput is a pairInput whose map task s reports reading
// meteredTask(s, n) over its n records, as a slice-skipping file reader
// reports its bytes and seeks.
type meteredInput struct{ *pairInput }

func meteredTask(s, records int) cluster.MapTask {
	return cluster.MapTask{Bytes: int64(700_000*(s+1) + 13*records), Records: int64(records), Seeks: int64(s % 4)}
}

type meteredReader struct {
	RecordReader
	task cluster.MapTask
}

func (r meteredReader) BytesRead() int64 { return r.task.Bytes }
func (r meteredReader) Seeks() int64     { return r.task.Seeks }

func (in meteredInput) Open(split InputSplit) (RecordReader, error) {
	r, err := in.pairInput.Open(split)
	s := int(split.(memSplit))
	return meteredReader{r, meteredTask(s, len(in.splits[s]))}, err
}

// TestLedgerPricesAsRun holds RunContext to the one pricer. A job run
// through RunContext and the same work declared into a ledger by hand — each
// map task's bytes, records and seeks, and each reduce task's pairs, bytes
// and groups (Shuffle.Add, as a job that merges its map output itself
// declares them) — price to bit-identical phase seconds, shuffle volumes and
// reduce tasks, at scale factor 1 and above, also for jobs that shuffle no
// pair and jobs with more map tasks than map slots. A job whose caller keeps
// the ledger (Job.Ledger) is left unpriced, and with key-value operations and
// a join side's bytes added the whole prices as the hand-declared ledger
// does, those two phases included.
func TestLedgerPricesAsRun(t *testing.T) {
	const reducers = 3
	many := make([][]pair, 45)
	for s := range many {
		many[s] = []pair{{Key: "m" + strconv.Itoa(s%5), Value: []byte(strconv.Itoa(s))}}
	}
	cases := append(shuffleCases(),
		shuffleCase{name: "splits without pairs", splits: [][]pair{{}, {}}},
		shuffleCase{name: "no splits"},
		shuffleCase{name: "more splits than map slots", splits: many})
	ctx := context.Background()
	for _, scale := range []float64{1, 25} {
		cfg := testCfg().Scaled(scale)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("x%g/%s", scale, tc.name), func(t *testing.T) {
				in := meteredInput{&pairInput{splits: tc.splits}}
				job := func(led *cluster.Ledger) *Job {
					return &Job{Name: "priced", Input: in, NewMapper: in.newMapper, Combine: tc.combine, NumReducers: reducers,
						Reduce: func(string, [][]byte, Emit) error { return nil }, Ledger: led}
				}
				run, err := RunContext(ctx, cfg, job(nil))
				if err != nil {
					t.Fatal(err)
				}

				hand := &cluster.Ledger{Jobs: 1}
				for s, ps := range tc.splits {
					hand.Maps = append(hand.Maps, meteredTask(s, len(ps)))
				}
				crossing := tc.splits
				if tc.combine != nil {
					crossing = combined(tc.splits, tc.combine)
				}
				declared, seen := make(Shuffle, reducers), map[string]bool{}
				for _, ps := range crossing {
					for _, pr := range ps {
						declared.Add(pr.Key, len(pr.Value), !seen[pr.Key])
						seen[pr.Key] = true
					}
				}
				hand.Reduces = declared
				var priced Stats
				priced.Charge(cfg, hand)
				phases := func(s *Stats) string {
					return fmt.Sprintf("startup %v map %v shuffle %v reduce %v; %d reduce tasks, %d pairs, %d bytes",
						s.SimStartupSec, s.SimMapSec, s.SimShuffleSec, s.SimReduceSec, s.ReduceTasks, s.ShufflePairs, s.ShuffleBytes)
				}
				if got, want := phases(run), phases(&priced); got != want {
					t.Fatalf("run: %s\ndeclared: %s", got, want)
				}
				if run.ReduceTasks != reducers || run.SimReduceSec <= 0 || run.SimStartupSec <= 0 {
					t.Fatalf("%d reduce tasks costing %v s after %v s startup, want %d, every one charged", run.ReduceTasks, run.SimReduceSec, run.SimStartupSec, reducers)
				}
				var read cluster.MapTask
				for _, m := range hand.Maps {
					read.Bytes, read.Records, read.Seeks = read.Bytes+m.Bytes, read.Records+m.Records, read.Seeks+m.Seeks
				}
				if (read != cluster.MapTask{Bytes: run.InputBytes, Records: run.InputRecords, Seeks: run.Seeks}) {
					t.Fatalf("run read %d bytes, %d records, %d seeks; declared %+v", run.InputBytes, run.InputRecords, run.Seeks, read)
				}

				led := &cluster.Ledger{KV: cluster.KVOps{Gets: 2345, Puts: 67, Scans: 2, ScannedKeys: 89}, SideBytes: 3 << 20}
				kept, err := RunContext(ctx, cfg, job(led))
				if err != nil {
					t.Fatal(err)
				}
				if kept.SimTotalSec() != 0 || kept.ReduceTasks != 0 {
					t.Fatalf("RunContext priced a ledger its caller keeps: %s", phases(kept))
				}
				hand.KV, hand.SideBytes = led.KV, led.SideBytes
				if got, want := kept.Charge(cfg, led), cfg.Price(hand); got != want || got.KV <= 0 || got.Side <= 0 {
					t.Fatalf("kept ledger prices to %+v, declared %+v", got, want)
				}
				if got, want := phases(kept), phases(&priced); got != want {
					t.Fatalf("kept ledger charged: %s\ndeclared: %s", got, want)
				}
			})
		}
	}
}

// TestShuffleChunksStopGrowing: past 64 MiB of values in one map task, the
// chunks are still maxChunk long — none sized by an overflowed doubling —
// and every value comes back whole.
func TestShuffleChunksStopGrowing(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789abcdef"), maxChunk/16+4)
	b := &shuffleBuf{parts: make([]partition, 1), ids: make(map[string]uint32)}
	var want [][]byte
	for i := 0; i < 65; i++ {
		want = append(want, long[i%50:i%50+maxChunk-i])
	}
	for i := 0; i < 20; i++ {
		want = append(want, long[i:i+i%3])
	}
	for _, v := range want {
		b.emit("k", v)
	}
	// Sizes double from minChunk to maxChunk, so only the first few chunks
	// are shorter than maxChunk, however many follow.
	short := 0
	for _, c := range b.chunks {
		if len(c) < maxChunk {
			short++
		}
	}
	if limit := bits.Len(maxChunk/minChunk) - 1; short > limit {
		t.Fatalf("%d of %d chunks shorter than %d bytes, want at most %d", short, len(b.chunks), maxChunk, limit)
	}
	b.finish()
	groups, _ := groupPairs([]*shuffleBuf{b}, 0)
	slices.SortFunc(want, bytes.Compare)
	if len(groups) != 1 || !slices.EqualFunc(groups[0].Values, want, bytes.Equal) {
		t.Fatalf("values not carried whole: %d groups", len(groups))
	}
}
