package mapreduce

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

func testCfg() *cluster.Config {
	c := cluster.Default()
	c.Workers = 4
	return c
}

// collector gathers a job's Output pairs; Pairs returns them sorted by key,
// then value.
type collector struct {
	mu    sync.Mutex
	pairs []pair
}

type pair struct {
	Key   string
	Value []byte
}

func (c *collector) Emit(key string, value []byte) {
	c.mu.Lock()
	c.pairs = append(c.pairs, pair{Key: key, Value: bytes.Clone(value)})
	c.mu.Unlock()
}

func (c *collector) Pairs() []pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	slices.SortFunc(c.pairs, func(a, b pair) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), bytes.Compare(a.Value, b.Value))
	})
	return slices.Clone(c.pairs)
}

// lineSchema reads a text file one whole line a row: the last column of a
// schema takes the rest of the line.
var lineSchema = storage.NewSchema(storage.Column{Name: "line", Kind: storage.KindString})

// textInput reads the text files under dir one line a row.
func textInput(fs *dfs.FS, dir string) *FileInput {
	return &FileInput{FS: fs, Dir: dir, Schema: lineSchema}
}

// lines returns the lines a textInput record's batch selects.
func lines(rec Record) []string {
	var out []string
	for _, ri := range rec.Batch.Sel() {
		out = append(out, rec.Batch.Cols[0].Strs[ri])
	}
	return out
}

// writeWords writes one file of word lines split across tiny blocks.
func writeWords(t *testing.T, fs *dfs.FS, path string, words []string) {
	t.Helper()
	w, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := storage.NewTextWriter(w)
	for _, word := range words {
		if err := tw.WriteLine([]byte(word)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWordCount(t *testing.T) {
	fs := dfs.New(8) // force several splits
	words := []string{"a", "b", "a", "c", "a", "b", "d", "a", "e", "c", "a", "b"}
	writeWords(t, fs, "/in/words", words)

	col := &collector{}
	job := &Job{
		Name:  "wordcount",
		Input: textInput(fs, "/in"),
		Map: func(rec Record, emit Emit) error {
			for _, line := range lines(rec) {
				emit(line, []byte("1"))
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
		NumReducers: 3,
		Output:      col.Emit,
	}
	stats, err := RunContext(context.Background(), testCfg(), job)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "5", "b": "3", "c": "2", "d": "1", "e": "1"}
	got := map[string]string{}
	for _, p := range col.Pairs() {
		got[p.Key] = string(p.Value)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%s] = %s, want %s", k, got[k], v)
		}
	}
	if stats.InputRecords != int64(len(words)) {
		t.Errorf("InputRecords = %d, want %d", stats.InputRecords, len(words))
	}
	if stats.Splits < 2 {
		t.Errorf("expected multiple splits with 32-byte blocks, got %d", stats.Splits)
	}
	if stats.ReduceTasks != 3 {
		t.Errorf("ReduceTasks = %d", stats.ReduceTasks)
	}
	if stats.SimTotalSec() <= 0 {
		t.Error("simulated time must be positive")
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	fs := dfs.New(1 << 20)
	var words []string
	for i := 0; i < 500; i++ {
		words = append(words, "same")
	}
	writeWords(t, fs, "/in/f", words)
	run := func(combine CombineFunc) *Stats {
		col := &collector{}
		stats, err := RunContext(context.Background(), testCfg(), &Job{
			Name:  "combine",
			Input: textInput(fs, "/in"),
			Map: func(rec Record, emit Emit) error {
				for _, line := range lines(rec) {
					emit(line, []byte("1"))
				}
				return nil
			},
			Combine: combine,
			Reduce: func(key string, values [][]byte, emit Emit) error {
				total := 0
				for _, v := range values {
					n, _ := strconv.Atoi(string(v))
					total += n
				}
				emit(key, []byte(strconv.Itoa(total)))
				return nil
			},
			Output: col.Emit,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := col.Pairs(); len(p) != 1 || string(p[0].Value) != "500" {
			t.Fatalf("result = %v", p)
		}
		return stats
	}
	plain := run(nil)
	combined := run(func(key string, values [][]byte) [][]byte {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		return [][]byte{[]byte(strconv.Itoa(total))}
	})
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d vs %d", combined.ShuffleBytes, plain.ShuffleBytes)
	}
}

// countingMapper counts its split's words and emits the totals from Close.
type countingMapper struct {
	counts map[string]int
	closed *atomic.Int64
}

func (m *countingMapper) Map(rec Record, _ Emit) error {
	for _, line := range lines(rec) {
		m.counts[line]++
	}
	return nil
}

func (m *countingMapper) Close(emit Emit) error {
	m.closed.Add(1)
	for _, w := range []string{"a", "b"} {
		if n := m.counts[w]; n > 0 {
			emit(w, []byte(strconv.Itoa(n)))
		}
	}
	return nil
}

// TestTaskMapperFoldsPerSplit: every map task gets its own mapper, Close runs
// once per split, and what Close emits is accounted like any map output —
// the same shuffle volume a combiner over per-record pairs leaves, and the
// same answer.
func TestTaskMapperFoldsPerSplit(t *testing.T) {
	fs := dfs.New(16) // several splits
	var words []string
	for i := 0; i < 60; i++ {
		words = append(words, []string{"a", "b", "a"}[i%3])
	}
	writeWords(t, fs, "/in/f", words)
	sum := func(key string, values [][]byte) [][]byte {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		return [][]byte{[]byte(strconv.Itoa(total))}
	}
	run := func(job *Job) (*Stats, string) {
		col := &collector{}
		job.Input = textInput(fs, "/in")
		job.Reduce = func(key string, values [][]byte, emit Emit) error {
			emit(key, sum(key, values)[0])
			return nil
		}
		job.Output = col.Emit
		stats, err := RunContext(context.Background(), testCfg(), job)
		if err != nil {
			t.Fatal(err)
		}
		return stats, fmt.Sprint(col.Pairs())
	}
	var made, closed atomic.Int64
	folded, foldedOut := run(&Job{Name: "fold", NewMapper: func() TaskMapper {
		made.Add(1)
		return &countingMapper{counts: map[string]int{}, closed: &closed}
	}})
	combined, combinedOut := run(&Job{Name: "combine", Combine: sum, Map: func(rec Record, emit Emit) error {
		for _, line := range lines(rec) {
			emit(line, []byte("1"))
		}
		return nil
	}})
	if foldedOut != combinedOut {
		t.Errorf("folded answer %s, combined answer %s", foldedOut, combinedOut)
	}
	if folded.Splits < 2 || made.Load() != int64(folded.Splits) || closed.Load() != int64(folded.Splits) {
		t.Errorf("%d splits, %d mappers made, %d closed", folded.Splits, made.Load(), closed.Load())
	}
	if folded.ShufflePairs != combined.ShufflePairs || folded.ShuffleBytes != combined.ShuffleBytes || folded.SimTotalSec() != combined.SimTotalSec() {
		t.Errorf("folded job shuffled %d pairs / %d bytes in %v sim-seconds, combined job %d / %d in %v",
			folded.ShufflePairs, folded.ShuffleBytes, folded.SimTotalSec(),
			combined.ShufflePairs, combined.ShuffleBytes, combined.SimTotalSec())
	}
	if folded.ShufflePairs > int64(2*folded.Splits) {
		t.Errorf("%d shuffle pairs from %d splits of two words", folded.ShufflePairs, folded.Splits)
	}
}

func TestMapOnlyJob(t *testing.T) {
	fs := dfs.New(64)
	writeWords(t, fs, "/in/f", []string{"x", "y", "z"})
	col := &collector{}
	stats, err := RunContext(context.Background(), testCfg(), &Job{
		Name:  "maponly",
		Input: textInput(fs, "/in"),
		Map: func(rec Record, emit Emit) error {
			for _, line := range lines(rec) {
				emit(strings.ToUpper(line), nil)
			}
			return nil
		},
		Output: col.Emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReduceTasks != 0 || stats.SimReduceSec != 0 {
		t.Errorf("map-only job ran a reduce phase: %+v", stats)
	}
	pairs := col.Pairs()
	if len(pairs) != 3 || pairs[0].Key != "X" {
		t.Errorf("pairs = %v", pairs)
	}
}

func TestReduceTaskForm(t *testing.T) {
	fs := dfs.New(1 << 20)
	writeWords(t, fs, "/in/f", []string{"b", "a", "c", "a"})
	var seenTasks []int
	var keys []string
	_, err := RunContext(context.Background(), testCfg(), &Job{
		Name:  "reducetask",
		Input: textInput(fs, "/in"),
		Map: func(rec Record, emit Emit) error {
			for _, line := range lines(rec) {
				emit(line, nil)
			}
			return nil
		},
		ReduceTask: func(task int, groups []Group, emit Emit) error {
			seenTasks = append(seenTasks, task)
			for _, g := range groups {
				keys = append(keys, g.Key)
			}
			return nil
		},
		NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seenTasks) != 1 || seenTasks[0] != 0 {
		t.Errorf("tasks = %v", seenTasks)
	}
	// Groups arrive key-sorted within the task.
	if !sortedStrings(keys) || len(keys) != 3 {
		t.Errorf("group keys = %v", keys)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestSplitFilter(t *testing.T) {
	fs := dfs.New(16)
	var words []string
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("w%02d", i))
	}
	writeWords(t, fs, "/in/f", words)
	all := textInput(fs, "/in")
	allSplits, _ := all.Splits()
	filtered := textInput(fs, "/in")
	filtered.SplitFilter = func(s dfs.Split) bool {
		return s.Start == 0 // keep only the first split
	}
	fSplits, _ := filtered.Splits()
	if len(fSplits) != 1 || len(allSplits) <= 1 {
		t.Fatalf("filtering failed: %d of %d", len(fSplits), len(allSplits))
	}
	col := &collector{}
	stats, err := RunContext(context.Background(), testCfg(), &Job{
		Name:  "filtered",
		Input: filtered,
		Map: func(rec Record, emit Emit) error {
			for _, line := range lines(rec) {
				emit(line, nil)
			}
			return nil
		},
		Output: col.Emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputRecords >= int64(len(words)) {
		t.Errorf("filter did not reduce input: %d records", stats.InputRecords)
	}
}

// TestFileInputRCRowRecords: every stored RCFile row reaches the map task
// once, located by its row group's start and its position in the group, with
// its text rendering as its line.
func TestFileInputRCRowRecords(t *testing.T) {
	fs := dfs.New(256)
	schema := storage.NewSchema(
		storage.Column{Name: "id", Kind: storage.KindInt64},
		storage.Column{Name: "v", Kind: storage.KindFloat64},
	)
	rows := make([]storage.Row, 50)
	for i := range rows {
		rows[i] = storage.Row{storage.Int64(int64(i)), storage.Float64(float64(i) / 2)}
	}
	groups, err := storage.WriteRCRows(fs, "/rc/f", schema, rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	stats, err := RunContext(context.Background(), testCfg(), &Job{
		Name:  "rcscan",
		Input: &FileInput{FS: fs, Dir: "/rc", Format: storage.RCFile, Schema: schema},
		Map: func(rec Record, emit Emit) error {
			b := rec.Batch
			for _, ri := range b.Sel() {
				id, _ := storage.TextFieldBytes(b.Line(ri), 0)
				emit(string(id), []byte(fmt.Sprintf("%d:%d", b.RowOffset(ri), ri)))
			}
			return nil
		},
		Output: col.Emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputRecords != 50 {
		t.Errorf("InputRecords = %d, want 50", stats.InputRecords)
	}
	pairs := col.Pairs()
	if len(pairs) != 50 {
		t.Fatalf("pairs = %d, want 50", len(pairs))
	}
	for _, p := range pairs {
		id, _ := strconv.Atoi(p.Key)
		if want := fmt.Sprintf("%d:%d", groups[id/8], id%8); string(p.Value) != want {
			t.Errorf("row %d at %s, want %s", id, p.Value, want)
		}
	}
}

func TestFileInputGroupAndRowFilter(t *testing.T) {
	fs := dfs.New(1 << 20)
	schema := storage.NewSchema(storage.Column{Name: "id", Kind: storage.KindInt64})
	rows := make([]storage.Row, 30)
	for i := range rows {
		rows[i] = storage.Row{storage.Int64(int64(i))}
	}
	offsets, err := storage.WriteRCRows(fs, "/rc/f", schema, rows, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 3 {
		t.Fatalf("want 3 groups, got %d", len(offsets))
	}
	keepGroup := offsets[1]
	col := &collector{}
	_, err = RunContext(context.Background(), testCfg(), &Job{
		Name: "rcfiltered",
		Input: &FileInput{
			FS: fs, Dir: "/rc", Format: storage.RCFile, Schema: schema,
			GroupFilter: func(path string, off int64) bool { return off == keepGroup },
			RowFilter:   func(path string, off int64, row int) bool { return row%2 == 0 },
		},
		Map: func(rec Record, emit Emit) error {
			for _, ri := range rec.Batch.Sel() {
				emit(string(rec.Batch.Line(ri)), nil)
			}
			return nil
		},
		Output: col.Emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := col.Pairs()
	if len(pairs) != 5 { // rows 10..19, even positions
		t.Fatalf("got %d rows, want 5: %v", len(pairs), pairs)
	}
	if pairs[0].Key != "10" || pairs[4].Key != "18" {
		t.Errorf("unexpected rows: %v", pairs)
	}
}

func TestJobValidation(t *testing.T) {
	cfg := testCfg()
	if _, err := RunContext(context.Background(), cfg, &Job{Name: "nil-input"}); err == nil {
		t.Error("job without input accepted")
	}
	fs := dfs.New(64)
	writeWords(t, fs, "/in/f", []string{"x"})
	job := &Job{
		Name:       "both-reducers",
		Input:      textInput(fs, "/in"),
		Map:        func(rec Record, emit Emit) error { return nil },
		Reduce:     func(k string, v [][]byte, e Emit) error { return nil },
		ReduceTask: func(t int, g []Group, e Emit) error { return nil },
	}
	if _, err := RunContext(context.Background(), cfg, job); err == nil {
		t.Error("job with both reduce forms accepted")
	}
	job.ReduceTask = nil
	job.NewMapper = func() TaskMapper { return nil }
	if _, err := RunContext(context.Background(), cfg, job); err == nil {
		t.Error("job with both Map and NewMapper accepted")
	}
	job.Map, job.NewMapper = nil, nil
	if _, err := RunContext(context.Background(), cfg, job); err == nil {
		t.Error("job with neither Map nor NewMapper accepted")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	fs := dfs.New(64)
	writeWords(t, fs, "/in/f", []string{"x"})
	_, err := RunContext(context.Background(), testCfg(), &Job{
		Name:  "maperr",
		Input: textInput(fs, "/in"),
		Map: func(rec Record, emit Emit) error {
			return fmt.Errorf("boom")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestDeterministicOutput(t *testing.T) {
	fs := dfs.New(16)
	var words []string
	for i := 0; i < 60; i++ {
		words = append(words, fmt.Sprintf("k%d", i%7))
	}
	writeWords(t, fs, "/in/f", words)
	runOnce := func() string {
		col := &collector{}
		_, err := RunContext(context.Background(), testCfg(), &Job{
			Name:  "det",
			Input: textInput(fs, "/in"),
			Map: func(rec Record, emit Emit) error {
				for _, line := range lines(rec) {
					emit(line, []byte("1"))
				}
				return nil
			},
			Reduce: func(key string, values [][]byte, emit Emit) error {
				emit(key, []byte(strconv.Itoa(len(values))))
				return nil
			},
			NumReducers: 4,
			Output:      col.Emit,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, p := range col.Pairs() {
			fmt.Fprintf(&b, "%s=%s;", p.Key, p.Value)
		}
		return b.String()
	}
	first := runOnce()
	for i := 0; i < 5; i++ {
		if got := runOnce(); got != first {
			t.Fatalf("run %d differs:\n%s\n%s", i, got, first)
		}
	}
}

// Property: word count totals equal input multiplicity regardless of block
// size and reducer count.
func TestWordCountProperty(t *testing.T) {
	f := func(ids []uint8, bsRaw, redRaw uint8) bool {
		if len(ids) == 0 {
			return true
		}
		fs := dfs.New(int64(bsRaw%60) + 4)
		w, _ := fs.Create("/in/f")
		tw := storage.NewTextWriter(w)
		want := map[string]int{}
		for _, id := range ids {
			key := fmt.Sprintf("k%d", id%13)
			want[key]++
			tw.WriteLine([]byte(key))
		}
		tw.Close()
		col := &collector{}
		_, err := RunContext(context.Background(), testCfg(), &Job{
			Name:  "prop",
			Input: textInput(fs, "/in"),
			Map: func(rec Record, emit Emit) error {
				for _, line := range lines(rec) {
					emit(line, []byte("1"))
				}
				return nil
			},
			Reduce: func(key string, values [][]byte, emit Emit) error {
				emit(key, []byte(strconv.Itoa(len(values))))
				return nil
			},
			NumReducers: int(redRaw%5) + 1,
			Output:      col.Emit,
		})
		if err != nil {
			return false
		}
		got := map[string]int{}
		for _, p := range col.Pairs() {
			n, _ := strconv.Atoi(string(p.Value))
			got[p.Key] = n
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextCancel: a cancelled ctx stops the scheduler at a split
// boundary and returns partial stats alongside an error wrapping ctx.Err()
// that names the abort position.
func TestRunContextCancel(t *testing.T) {
	fs := dfs.New(8)
	var words []string
	for i := 0; i < 200; i++ {
		words = append(words, fmt.Sprintf("w%03d", i))
	}
	writeWords(t, fs, "/in/words", words)

	// A pre-cancelled ctx: nothing runs, the error wraps context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := RunContext(ctx, testCfg(), &Job{
		Name:  "cancelled",
		Input: textInput(fs, "/in"),
		Map:   func(rec Record, emit Emit) error { return nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled after") {
		t.Fatalf("error lacks the split position: %v", err)
	}
	if stats == nil || stats.InputRecords != 0 {
		t.Fatalf("pre-cancelled run stats = %+v", stats)
	}
}

// TestStopEarly: once StopEarly reports true, remaining splits are skipped
// gracefully — no error, stats cover only the consumed splits.
func TestStopEarly(t *testing.T) {
	fs := dfs.New(8) // tiny blocks: many splits
	var words []string
	for i := 0; i < 120; i++ {
		words = append(words, fmt.Sprintf("w%03d", i))
	}
	writeWords(t, fs, "/in/words", words)

	var records atomic.Int64
	var stop atomic.Bool
	stats, err := RunContext(context.Background(), testCfg(), &Job{
		Name:  "stop-early",
		Input: textInput(fs, "/in"),
		Map: func(rec Record, emit Emit) error {
			if records.Add(1) >= 5 {
				stop.Store(true)
			}
			return nil
		},
		StopEarly: stop.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputRecords >= int64(len(words)) {
		t.Fatalf("StopEarly consumed the whole input: %d of %d records", stats.InputRecords, len(words))
	}
	if stats.Splits == 0 || stats.InputRecords == 0 {
		t.Fatalf("no work recorded: %+v", stats)
	}
	full, err := RunContext(context.Background(), testCfg(), &Job{
		Name:  "full",
		Input: textInput(fs, "/in"),
		Map:   func(rec Record, emit Emit) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Splits >= full.Splits {
		t.Fatalf("StopEarly consumed all %d splits", full.Splits)
	}
}
