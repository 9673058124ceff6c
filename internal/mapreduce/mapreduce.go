// Package mapreduce is the Hadoop-model execution engine that everything in
// this repository runs on: index construction (DGFIndex Algorithms 1 and 2,
// Compact Index population), table scans, aggregations, group-bys and joins.
//
// Jobs execute for real with goroutine parallelism. In addition, every job
// records in a cluster.Ledger what Hive would do — one startup, each map
// task's bytes, records and seeks as its reader reports them, each reduce
// task's pairs, bytes and groups as groupPairs hands them over — and
// cluster.Config.Price, the only pricer, turns the ledger into *simulated
// cluster seconds*. RunContext applies no cost formula: it prices a ledger
// of its own through Stats.Charge, or leaves a caller's ledger (Job.Ledger)
// to the caller, who adds its own entries first. The paper's experiment
// figures are stated in seconds on a 29-node cluster; the simulated seconds
// reproduce the shapes of those figures at laptop scale.
//
// File-backed input has one shape and one reader: a FileSplit is an ordered
// list of byte segments of one file, and FileInput.Open returns the only
// RecordReader over file data. It opens each segment through
// storage.NewSegmentReader, hands the map task one storage.ColumnBatch per
// RCFile row group or run of TextFile lines, and carries the accounting the
// cost model reads — bytes, margin seeks, pruned groups. FileInput itself is
// the one-segment-per-split table scan; dgf.SliceInput supplies
// multi-segment splits (Algorithm 4) and opens them here.
//
// The shuffle's ordering contract: a reduce task is handed its keys in
// ascending order and each key's values in ascending byte order, duplicates
// kept; a combiner sees the same order over one map task's output. The order
// never depends on which map task finished first. A map task buffers its
// output without pointers: it interns each distinct key once (its partition
// is computed then, not per pair), copies each value into byte chunks that
// never move, and records each pair as a 16-byte ref — key id, chunk,
// offset, length — in its partition (shuffleBuf). A KeyedMapper interns its
// keys itself and emits by id, so the task hashes a key once, not once per
// pair. A reduce task resolves
// each map task's keys to its groups with one hash lookup per distinct key,
// not per pair, then sorts the distinct keys and each group's values
// (groupPairs); values of different keys are never compared. A combiner's
// output is buffered the same way.
//
// A mapper may be scoped to its map task (Job.NewMapper): it sees its split's
// records in order and hands over what it holds when the split ends. A
// shuffle is charged from its volume per reduce task: RunContext records what
// its reducers are handed, and a map-only job that merges its tasks' output
// itself (a query's aggregate) declares the shuffle Hive would run instead
// (Shuffle.Add) into its caller's ledger, moving no byte.
//
// Bytes only where the shuffle needs them: a reader hands a mapper decoded
// column vectors — and, for the index builds that shuffle text, each row's
// line, which is the text as stored (a TextFile's line, or an RCFile group's
// cells joined) and never a rendering of decoded values — and a record
// crosses the shuffle as the bytes the mapper emitted; a reducer decodes a
// value once, from the bytes where they lie. The index builds are the only
// jobs with a reduce phase. What a job hands back to its driver need not be
// bytes at all: a query's map tasks deliver typed rows and group tables to a
// sink the driver owns, and Output — the pairs a job emits after its last
// stage — is for jobs that want them.
package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// Record is one input record presented to a map function.
type Record struct {
	// Batch is one whole decoded row group or run of text lines, counted as
	// the rows its selection admits; a record without one (an input that
	// is not file-backed) counts as one. The reader reuses the batch across
	// records, so a map function must finish with it before returning.
	Batch *storage.ColumnBatch
	// Path is the input file the record came from (INPUT_FILE_NAME in
	// Hive's index-population query, Listing 1 of the paper).
	Path string
	// Offset is the batch's BLOCK_OFFSET_INSIDE_FILE: its first line's start
	// for TextFile, its row group's start for RCFile. Batch.RowOffset gives
	// each row's.
	Offset int64
}

// Emit passes one intermediate or output pair onward.
type Emit func(key string, value []byte)

// MapFunc processes one record.
type MapFunc func(rec Record, emit Emit) error

// TaskMapper is a map function with state scoped to one map task: Map sees
// every record of the task's split in order, and Close runs once after the
// last one with the same emit — the place a mapper that aggregates inside its
// split (Hive's map-side hash aggregation) hands over what it holds. Pairs
// emitted from Close are accounted exactly like pairs emitted from Map.
type TaskMapper interface {
	Map(rec Record, emit Emit) error
	Close(emit Emit) error
}

// KeyedMapper is a TaskMapper that emits by key id. Before its first record
// the map task hands it the task's shuffle Keys, and it emits through them
// rather than through Map's emit. A mapper that meets each key on many
// records (an index build's, one key per grid cell) interns a key once, so
// the shuffle hashes the key once per map task instead of once per pair. A
// KeyedMapper needs a reduce phase: a map-only job refuses one.
type KeyedMapper interface {
	TaskMapper
	UseKeys(Keys)
}

// Keys is one map task's shuffle key table, for a KeyedMapper.
type Keys struct{ b *shuffleBuf }

// Intern returns key's id in the map task. The key's first Intern assigns
// the next id and computes the key's partition; later ones look it up.
func (k Keys) Intern(key string) uint32 { return k.b.id(key) }

// Emit buffers one pair of the key with id, copying the value: the pair the
// map task's emit would buffer for the key.
func (k Keys) Emit(id uint32, value []byte) { k.b.add(id, value) }

// ReduceFunc processes one key group.
type ReduceFunc func(key string, values [][]byte, emit Emit) error

// CombineFunc merges the values of one key inside a single map task before
// the shuffle (Hadoop's combiner).
type CombineFunc func(key string, values [][]byte) [][]byte

// Group is one key with all its shuffled values, ordered deterministically.
type Group struct {
	Key    string
	Values [][]byte
}

// ReduceTaskFunc processes one whole reduce partition: the sorted groups of
// that partition plus the task id. Jobs that write their own output files
// (the DGFIndex construction reducer writes data Slices) use this form to
// manage one output file per task, like a Hadoop reducer does.
type ReduceTaskFunc func(task int, groups []Group, emit Emit) error

// RecordReader streams the records of one split.
type RecordReader interface {
	// Next returns the next record; ok is false at end of split.
	Next() (rec Record, ok bool, err error)
	// BytesRead is the payload bytes fetched so far.
	BytesRead() int64
	// Seeks is the number of random repositionings performed (the
	// slice-skipping reader reports them; sequential readers return 0).
	Seeks() int64
}

// InputSplit is an opaque unit of input assigned to one map task.
type InputSplit interface {
	// Label identifies the split in logs and errors.
	Label() string
}

// InputFormat enumerates splits and opens readers, mirroring Hadoop's
// InputFormat/getSplits contract that Hive's index machinery hooks into.
type InputFormat interface {
	Splits() ([]InputSplit, error)
	Open(split InputSplit) (RecordReader, error)
}

// Job describes one MapReduce job.
type Job struct {
	Name  string
	Input InputFormat
	Map   MapFunc
	// NewMapper, set instead of Map, is called once per map task for that
	// task's own mapper.
	NewMapper func() TaskMapper
	// Combine, if set, runs per map task on its buffered output.
	Combine CombineFunc
	// Exactly one of Reduce and ReduceTask may be set; if both are nil the
	// job is map-only and map emits flow directly to Output.
	Reduce     ReduceFunc
	ReduceTask ReduceTaskFunc
	// NumReducers defaults to 1 when a reduce phase exists.
	NumReducers int
	// Output receives final pairs. Nil output discards them (jobs whose
	// reducers write to the filesystem themselves).
	Output Emit
	// StopEarly, when set, is polled before each split is scheduled and
	// before each scheduled split starts: once it returns true, remaining
	// splits are skipped and the job finishes gracefully with the stats of
	// the splits already processed (no error). This is how a LIMIT cursor
	// stops consuming input once satisfied. It is called from the scheduler
	// and worker goroutines, so it must be safe for concurrent use (an
	// atomic.Bool load, typically).
	StopEarly func() bool
	// Ledger, if set, is where the job records its work for a caller that
	// adds entries of its own (a query's declared shuffle, plan and join
	// side; an index build's key-value operations) and then prices the
	// whole with Stats.Charge: RunContext leaves the Stats' simulated
	// seconds and shuffle volumes to that call. If nil, RunContext prices a
	// ledger of its own.
	Ledger *cluster.Ledger
}

// Stats reports the measured work and the simulated cluster time of one job.
type Stats struct {
	Splits       int
	MapTasks     int
	ReduceTasks  int
	InputBytes   int64
	InputRecords int64
	Seeks        int64
	// GroupsSkipped counts row groups pruned by zone maps before their
	// payloads were fetched.
	GroupsSkipped int64
	ShuffleBytes  int64
	ShufflePairs  int64
	OutputPairs   int64

	SimStartupSec float64
	SimMapSec     float64
	SimShuffleSec float64
	SimReduceSec  float64

	Wall time.Duration
}

// SimTotalSec is the simulated end-to-end job time.
func (s Stats) SimTotalSec() float64 {
	return s.SimStartupSec + s.SimMapSec + s.SimShuffleSec + s.SimReduceSec
}

// Charge prices led under cfg into s: the simulated seconds of its job
// phases, and the reduce tasks and shuffle volume of its reduce input. It
// returns the bill, whose key-value and join-side seconds s has no field for.
func (s *Stats) Charge(cfg *cluster.Config, led *cluster.Ledger) cluster.Bill {
	b := cfg.Price(led)
	s.SimStartupSec, s.SimMapSec, s.SimShuffleSec, s.SimReduceSec = b.Startup, b.Map, b.Shuffle, b.Reduce
	s.ReduceTasks, s.ShufflePairs, s.ShuffleBytes = len(led.Reduces), 0, 0
	for _, r := range led.Reduces {
		s.ShufflePairs += r.Pairs
		s.ShuffleBytes += r.Bytes
	}
	return b
}

// pairRef is one buffered pair: its key's id and where its value lies in
// its map task's chunks. It holds no pointer, so the collector never scans
// the refs and storing one needs no write barrier.
type pairRef struct {
	key, chunk, off, len uint32
}

// partition is one map task's pairs for one reduce task: the distinct keys,
// in the order of their first pair, and each pair's ref, in arrival order,
// naming its key by its index in keys. Every key has at least one pair.
type partition struct {
	keys []string
	refs []pairRef
}

// shuffleBuf is one map task's output for the shuffle. Each distinct key is
// interned once — its partition computed and an id assigned at its first
// pair — and each value is copied into the chunks, which are filled and
// never moved: the first holds minChunk bytes, each later one twice as many
// as the one before up to maxChunk, and a longer value gets a chunk of its
// own. While the task runs its refs are kept in arrival order in blocks
// that are filled and never copied or grown (the first holds minRefs refs,
// each later one twice as many up to maxRefs); finish deals them out to
// their partitions, which the reduce tasks read in place (groupPairs).
//
// Refs written straight into append-grown per-partition slices cost at
// least two growing allocations per partition a task touches: on
// BenchmarkShuffle's 64 reduce tasks that measured 0.098 allocs/pair
// against 0.024 here, and on one partition (the mapreduce.shuffle_pairs_per_s
// job) 72.6 against 34.9 MB/op. Dealing out at the end allocates each
// task's keys and refs once, at their exact size.
type shuffleBuf struct {
	parts  []partition // per reduce task, once finished
	chunks [][]byte
	used   int // bytes of the last chunk filled

	ids     map[string]uint32 // key → id in keys (nil where keys are distinct by construction)
	keys    []taskKey
	pending [][]pairRef // by task-wide key id
	npairs  int
}

// taskKey is an interned key and its partition.
type taskKey struct {
	key  string
	part int
}

const (
	minChunk = 1 << 10
	maxChunk = 1 << 20
	minRefs  = 1 << 6
	maxRefs  = 1 << 12
)

// emit buffers one pair, copying the value: mappers commonly reuse buffers
// between emits.
func (b *shuffleBuf) emit(key string, value []byte) { b.add(b.id(key), value) }

// id returns key's id, interning it at its first pair.
func (b *shuffleBuf) id(key string) uint32 {
	id, ok := b.ids[key]
	if !ok {
		id = b.intern(key, partitionOf(key, len(b.parts)))
		b.ids[key] = id
	}
	return id
}

// intern assigns key, of partition part, the next id.
func (b *shuffleBuf) intern(key string, part int) uint32 {
	b.keys = append(b.keys, taskKey{key: key, part: part})
	return uint32(len(b.keys) - 1)
}

// add buffers a value of the key with id id.
func (b *shuffleBuf) add(id uint32, value []byte) {
	n := len(value)
	last := len(b.chunks) - 1
	if last < 0 || n > len(b.chunks[last])-b.used {
		size := minChunk
		if last >= 0 {
			size = min(2*len(b.chunks[last]), maxChunk)
		}
		b.chunks = append(b.chunks, make([]byte, max(n, size)))
		last, b.used = last+1, 0
	}
	copy(b.chunks[last][b.used:], value)
	blk := len(b.pending) - 1
	if blk < 0 || len(b.pending[blk]) == cap(b.pending[blk]) {
		size := minRefs
		if blk >= 0 {
			size = min(2*cap(b.pending[blk]), maxRefs)
		}
		b.pending = append(b.pending, make([]pairRef, 0, size))
		blk++
	}
	b.pending[blk] = append(b.pending[blk], pairRef{key: id, chunk: uint32(last), off: uint32(b.used), len: uint32(n)})
	b.npairs++
	b.used += n
}

// finish deals the pending refs out to their partitions, keeping arrival
// order, and renumbers each partition's keys from 0 in first-pair order.
func (b *shuffleBuf) finish() {
	nkeys, nrefs := make([]int, len(b.parts)), make([]int, len(b.parts))
	local := make([]uint32, len(b.keys))
	for id, k := range b.keys {
		local[id] = uint32(nkeys[k.part])
		nkeys[k.part]++
	}
	for _, blk := range b.pending {
		for _, r := range blk {
			nrefs[b.keys[r.key].part]++
		}
	}
	keys, refs := make([]string, len(b.keys)), make([]pairRef, b.npairs)
	for p := range b.parts {
		b.parts[p] = partition{keys: keys[:0:nkeys[p]], refs: refs[:0:nrefs[p]]}
		keys, refs = keys[nkeys[p]:], refs[nrefs[p]:]
	}
	for _, k := range b.keys {
		b.parts[k.part].keys = append(b.parts[k.part].keys, k.key)
	}
	for _, blk := range b.pending {
		for _, r := range blk {
			p := b.keys[r.key].part
			r.key = local[r.key]
			b.parts[p].refs = append(b.parts[p].refs, r)
		}
	}
	b.ids, b.keys, b.pending = nil, nil, nil
}

// mapResult is one split's map-task outcome. ran distinguishes a processed
// split from one skipped by cancellation or StopEarly (whose zero value must
// stay out of the job accounting).
type mapResult struct {
	cluster.MapTask
	shuffle *shuffleBuf // nil for a map-only job
	skips   int64       // row groups pruned before reading
	err     error
	ran     bool
}

// RunContext executes the job under ctx and returns its statistics.
// Cancellation is honoured at split granularity: a cancelled ctx stops the
// scheduler from handing out further splits and lets the splits already
// running finish, so the abort lands within one split boundary per worker.
// The returned error then wraps
// ctx.Err() and names the position the scan stopped at; the returned Stats
// are non-nil and describe the work done before the abort (callers that
// surface partial progress — a cursor reporting how far a cancelled scan
// got — read them; callers that want all-or-nothing discard them).
func RunContext(ctx context.Context, cfg *cluster.Config, job *Job) (*Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if job.Input == nil || (job.Map == nil) == (job.NewMapper == nil) {
		return nil, fmt.Errorf("mapreduce: job %q needs Input and exactly one of Map and NewMapper", job.Name)
	}
	if job.Reduce != nil && job.ReduceTask != nil {
		return nil, fmt.Errorf("mapreduce: job %q sets both Reduce and ReduceTask", job.Name)
	}
	start := time.Now()
	splits, err := job.Input.Splits()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: splits: %w", job.Name, err)
	}

	hasReduce := job.Reduce != nil || job.ReduceTask != nil
	numReducers := job.NumReducers
	if !hasReduce {
		numReducers = 0
	} else if numReducers <= 0 {
		numReducers = 1
	}

	stats := &Stats{Splits: len(splits), MapTasks: len(splits)}
	led := job.Ledger
	if led == nil {
		led = &cluster.Ledger{}
	}
	led.Jobs++

	sp := trace.FromContext(ctx).ChildAt("mapreduce", start)
	sp.Set("job", job.Name)
	defer func() {
		sp.Set("splits", stats.Splits)
		sp.Set("records", stats.InputRecords)
		sp.Set("bytes", stats.InputBytes)
		sp.Finish()
	}()

	var outMu sync.Mutex
	var outPairs int64
	finish := func() (*Stats, error) {
		if job.Ledger == nil {
			stats.Charge(cfg, led)
		}
		stats.OutputPairs = outPairs
		stats.Wall = time.Since(start)
		return stats, nil
	}
	output := func(key string, value []byte) {
		outMu.Lock()
		outPairs++
		if job.Output != nil {
			job.Output(key, value)
		}
		outMu.Unlock()
	}

	// ---- Map phase ----
	results := make([]mapResult, len(splits))
	pool := max(1, min(runtime.GOMAXPROCS(0), len(splits)))
	stopped := func() bool {
		return ctx.Err() != nil || (job.StopEarly != nil && job.StopEarly())
	}
	var wg sync.WaitGroup
	splitCh := make(chan int)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range splitCh {
				// A split handed out just before cancellation still must
				// not start: the ran flag keeps skipped splits out of the
				// accounting below.
				if stopped() {
					continue
				}
				results[i] = runMapTask(job, splits[i], numReducers, hasReduce, output)
				results[i].ran = true
			}
		}()
	}
feed:
	for i := range splits {
		if stopped() {
			break feed
		}
		select {
		case splitCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(splitCh)
	wg.Wait()

	processed := 0
	for i := range results {
		r := &results[i]
		if !r.ran {
			continue
		}
		if r.err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: map over %s: %w", job.Name, splits[i].Label(), r.err)
		}
		processed++
		stats.InputBytes += r.Bytes
		stats.InputRecords += r.Records
		stats.Seeks += r.Seeks
		stats.GroupsSkipped += r.skips
		if r.skips > 0 {
			sp.Eventf("split %s: %d records, %d bytes, %d groups skipped", splits[i].Label(), r.Records, r.Bytes, r.skips)
		} else {
			sp.Eventf("split %s: %d records, %d bytes", splits[i].Label(), r.Records, r.Bytes)
		}
		led.Maps = append(led.Maps, r.MapTask)
	}
	// Splits/MapTasks report the splits actually consumed: fewer than
	// enumerated when a cursor's LIMIT (or a cancel) stopped the scan early.
	stats.Splits, stats.MapTasks = processed, processed
	if err := ctx.Err(); err != nil {
		sp.Eventf("canceled after %d of %d splits", processed, len(splits))
		stats.Wall = time.Since(start)
		return stats, fmt.Errorf("mapreduce: job %q canceled after %d of %d splits: %w",
			job.Name, processed, len(splits), err)
	}
	if !hasReduce {
		return finish()
	}

	// ---- Shuffle: each reducer groups the map tasks' buffers in place ----
	var ran []*shuffleBuf
	for _, r := range results {
		if r.ran {
			ran = append(ran, r.shuffle)
		}
	}

	// ---- Reduce phase ----
	rResults := make([]reduceResult, numReducers)
	rPool := max(1, min(runtime.GOMAXPROCS(0), numReducers))
	taskCh := make(chan int)
	var rwg sync.WaitGroup
	for w := 0; w < rPool; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for p := range taskCh {
				if ctx.Err() != nil {
					rResults[p] = reduceResult{err: ctx.Err()}
					continue
				}
				rResults[p] = runReduceTask(job, p, ran, output)
			}
		}()
	}
rfeed:
	for p := 0; p < numReducers; p++ {
		select {
		case taskCh <- p:
		case <-ctx.Done():
			break rfeed
		}
	}
	close(taskCh)
	rwg.Wait()
	if err := ctx.Err(); err != nil {
		stats.Wall = time.Since(start)
		return stats, fmt.Errorf("mapreduce: job %q canceled in reduce phase: %w", job.Name, err)
	}

	for p, r := range rResults {
		if r.err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: reduce task %d: %w", job.Name, p, r.err)
		}
		led.Reduces = append(led.Reduces, r.in)
	}
	return finish()
}

func runMapTask(job *Job, split InputSplit, numReducers int, hasReduce bool, output Emit) (res mapResult) {
	reader, err := job.Input.Open(split)
	if err != nil {
		res.err = err
		return res
	}
	emit := output
	if hasReduce {
		res.shuffle = &shuffleBuf{parts: make([]partition, numReducers), ids: make(map[string]uint32)}
		emit = res.shuffle.emit
	}
	mapRec := job.Map
	var mapper TaskMapper
	if job.NewMapper != nil {
		mapper = job.NewMapper()
		mapRec = mapper.Map
		if km, ok := mapper.(KeyedMapper); ok {
			if !hasReduce {
				res.err = fmt.Errorf("%T emits by key id, which needs a reduce phase", mapper)
				return res
			}
			km.UseKeys(Keys{res.shuffle})
		}
	}
	for {
		rec, ok, err := reader.Next()
		if err != nil {
			res.err = err
			return res
		}
		if !ok {
			break
		}
		if rec.Batch != nil {
			res.Records += int64(len(rec.Batch.Sel()))
		} else {
			res.Records++
		}
		if err := mapRec(rec, emit); err != nil {
			res.err = err
			return res
		}
	}
	if mapper != nil {
		if err := mapper.Close(emit); err != nil {
			res.err = err
			return res
		}
	}
	res.Bytes = reader.BytesRead()
	res.Seeks = reader.Seeks()
	if fr, ok := reader.(*fileReader); ok {
		res.skips = fr.skips
	}
	if hasReduce {
		res.shuffle.finish()
		if job.Combine != nil {
			res.shuffle = combineBuf(job.Combine, res.shuffle)
		}
	}
	return res
}

// combineBuf runs the combiner over each partition of one map task's output
// and returns a buffer holding only what it handed back.
func combineBuf(combine CombineFunc, in *shuffleBuf) *shuffleBuf {
	out := &shuffleBuf{parts: make([]partition, len(in.parts))}
	for p := range in.parts {
		groups, _ := groupPairs([]*shuffleBuf{in}, p)
		for _, g := range groups {
			values := combine(g.Key, g.Values)
			if len(values) == 0 {
				continue
			}
			id := out.intern(g.Key, p)
			for _, v := range values {
				out.add(id, v)
			}
		}
	}
	out.finish()
	return out
}

type reduceResult struct {
	in  cluster.ReduceTask
	err error
}

// runReduceTask reduces partition task of every map task that ran.
func runReduceTask(job *Job, task int, maps []*shuffleBuf, output Emit) (res reduceResult) {
	var groups []Group
	groups, res.in = groupPairs(maps, task)
	if job.ReduceTask != nil {
		res.err = job.ReduceTask(task, groups, output)
		return res
	}
	for _, g := range groups {
		if err := job.Reduce(g.Key, g.Values, output); err != nil {
			res.err = err
			return res
		}
	}
	return res
}

// groupPairs is the shuffle's one ordering step, shared by combiners and
// reducers. It groups partition p of the given map tasks' buffers by key —
// one hash lookup per distinct key of each buffer, none per pair — then
// sorts the distinct keys and each group's values, so the delivered order —
// keys ascending, values ascending by bytes — does not depend on which map
// task finished first, while only values of one key are ever compared with
// each other. The values are read in place. The second result is the
// partition's volume: its pairs, their key+value bytes and its groups.
func groupPairs(bufs []*shuffleBuf, p int) ([]Group, cluster.ReduceTask) {
	total, keys := 0, 0
	for _, b := range bufs {
		total += len(b.parts[p].refs)
		keys += len(b.parts[p].keys)
	}
	if total == 0 {
		return nil, cluster.ReduceTask{}
	}
	// Number the distinct keys in order of appearance, remembering each
	// buffer's key ids' groups. One buffer's keys are distinct already, so
	// only several buffers need the index.
	var index map[string]int32
	if len(bufs) > 1 {
		index = make(map[string]int32)
	}
	groupOf := make([]int32, 0, keys) // buffer after buffer, by key id
	var groups []Group
	for _, b := range bufs {
		for _, key := range b.parts[p].keys {
			g, ok := index[key]
			if !ok {
				g = int32(len(groups))
				if index != nil {
					index[key] = g
				}
				groups = append(groups, Group{Key: key})
			}
			groupOf = append(groupOf, g)
		}
	}
	// Count each group's values, then deal them out of one backing array.
	counts := make([]int, len(groups))
	var volume int64
	local := groupOf
	for _, b := range bufs {
		part := &b.parts[p]
		for _, r := range part.refs {
			counts[local[r.key]]++
			volume += int64(r.len)
		}
		local = local[len(part.keys):]
	}
	backing := make([][]byte, total)
	for g := range groups {
		volume += int64(len(groups[g].Key) * counts[g])
		groups[g].Values = backing[:0:counts[g]]
		backing = backing[counts[g]:]
	}
	local = groupOf
	for _, b := range bufs {
		part := &b.parts[p]
		for _, r := range part.refs {
			g := &groups[local[r.key]]
			// The capacity stops at the value's end, so appending to a
			// delivered value cannot run into its neighbour.
			g.Values = append(g.Values, b.chunks[r.chunk][r.off:r.off+r.len:r.off+r.len])
		}
		local = local[len(part.keys):]
	}
	slices.SortFunc(groups, func(a, b Group) int { return strings.Compare(a.Key, b.Key) })
	for _, g := range groups {
		slices.SortFunc(g.Values, bytes.Compare)
	}
	return groups, cluster.ReduceTask{Pairs: int64(total), Bytes: volume, Groups: int64(len(groups))}
}

// Shuffle is a shuffle Hive would run, declared pair by pair: one entry per
// reduce task, for a ledger's Reduces.
type Shuffle []cluster.ReduceTask

// Add declares one pair: its key, its value's length, and whether no earlier
// pair had its key. It goes to its key's partition, as an emitted pair would.
func (s Shuffle) Add(key string, valueLen int, firstOfKey bool) {
	r := &s[partitionOf(key, len(s))]
	r.Pairs++
	r.Bytes += int64(len(key) + valueLen)
	if firstOfKey {
		r.Groups++
	}
}

// partitionOf assigns a key to a reduce partition by its FNV-1a hash.
func partitionOf(key string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}
