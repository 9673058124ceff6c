// Package mapreduce is the Hadoop-model execution engine that everything in
// this repository runs on: index construction (DGFIndex Algorithms 1 and 2,
// Compact Index population), table scans, aggregations, group-bys and joins.
//
// Jobs execute for real with goroutine parallelism. In addition, every job
// reports *simulated cluster seconds* under a cluster.Config: map tasks are
// scheduled in waves onto the configured map slots (LPT makespan), shuffle
// cost is proportional to intermediate bytes, and reduce tasks are scheduled
// onto reduce slots. The paper's experiment figures are stated in seconds on
// a 29-node cluster; the simulated seconds reproduce the shapes of those
// figures at laptop scale.
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
// never depends on which map task finished first. The engine groups pairs by
// key through a hash map and sorts the distinct keys and each group's values
// (groupPairs); values of different keys are never compared.
//
// A mapper may be scoped to its map task (Job.NewMapper): it sees its split's
// records in order and emits what it holds when the split ends. That is how a
// query aggregates where the rows are — one pair per group per split reaches
// the shuffle instead of one per record — and the volumes the cost model reads
// (ShuffleBytes, ShufflePairs, reduce input) are what such a mapper emitted.
//
// Bytes only where the shuffle needs them: a reader hands a mapper decoded
// column vectors — and, for the index builds that shuffle text, each row's
// line, which is the text as stored (a TextFile's line, or an RCFile group's
// cells joined) and never a rendering of decoded values — and a record
// crosses the shuffle as the bytes the mapper emitted; a reducer that needs
// typed values decodes a value once, from the bytes where they lie. What a job hands back
// to its driver need not be bytes at all: a query's map-only projection and
// its aggregate reducers deliver typed rows and accumulators to a sink the
// driver owns, and Output — the pairs a job emits after its last stage — is
// for jobs that want them.
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

// Add accumulates other into s (multi-job pipelines).
func (s *Stats) Add(other Stats) {
	s.Splits += other.Splits
	s.MapTasks += other.MapTasks
	s.ReduceTasks += other.ReduceTasks
	s.InputBytes += other.InputBytes
	s.InputRecords += other.InputRecords
	s.Seeks += other.Seeks
	s.GroupsSkipped += other.GroupsSkipped
	s.ShuffleBytes += other.ShuffleBytes
	s.ShufflePairs += other.ShufflePairs
	s.OutputPairs += other.OutputPairs
	s.SimStartupSec += other.SimStartupSec
	s.SimMapSec += other.SimMapSec
	s.SimShuffleSec += other.SimShuffleSec
	s.SimReduceSec += other.SimReduceSec
	s.Wall += other.Wall
}

type kvPair struct {
	key   string
	value []byte
}

// partition is one map task's pairs for one reduce task, in arrival order, in
// blocks that are filled and never copied or grown: the first holds
// minBlock pairs, each later one twice as many as the one before, up to
// maxBlock. The reduce task reads the blocks in place (groupPairs).
type partition [][]kvPair

const (
	minBlock = 16
	maxBlock = 1024
)

func (p *partition) add(kv kvPair) {
	n := len(*p)
	if n == 0 || len((*p)[n-1]) == cap((*p)[n-1]) {
		size := minBlock
		if n > 0 {
			size = min(2*cap((*p)[n-1]), maxBlock)
		}
		*p = append(*p, make([]kvPair, 0, size))
		n++
	}
	(*p)[n-1] = append((*p)[n-1], kv)
}

// pairs returns how many pairs the partition holds.
func (p partition) pairs() int {
	n := 0
	for _, b := range p {
		n += len(b)
	}
	return n
}

// mapResult is one split's map-task outcome. ran distinguishes a processed
// split from one skipped by cancellation or StopEarly (whose zero value must
// stay out of the job accounting).
type mapResult struct {
	parts   []partition // per reduce task
	bytes   int64
	records int64
	seeks   int64
	skips   int64 // row groups pruned before reading
	emitted int64 // shuffle bytes from this task
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

	stats := &Stats{Splits: len(splits), MapTasks: len(splits), ReduceTasks: numReducers}
	stats.SimStartupSec = cfg.JobStartupSec

	sp := trace.FromContext(ctx).ChildAt("mapreduce", start)
	sp.Set("job", job.Name)
	defer func() {
		sp.Set("splits", stats.Splits)
		sp.Set("records", stats.InputRecords)
		sp.Set("bytes", stats.InputBytes)
		sp.Set("sim_sec", stats.SimTotalSec())
		sp.Finish()
	}()

	var outMu sync.Mutex
	var outPairs int64
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
	pool := runtime.GOMAXPROCS(0)
	if pool > len(splits) {
		pool = len(splits)
	}
	if pool < 1 {
		pool = 1
	}
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
	mapTimes := make([]float64, 0, len(results))
	for i := range results {
		r := &results[i]
		if !r.ran {
			continue
		}
		if r.err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: map over %s: %w", job.Name, splits[i].Label(), r.err)
		}
		processed++
		stats.InputBytes += r.bytes
		stats.InputRecords += r.records
		stats.Seeks += r.seeks
		stats.GroupsSkipped += r.skips
		stats.ShuffleBytes += r.emitted
		if r.skips > 0 {
			sp.Eventf("split %s: %d records, %d bytes, %d groups skipped", splits[i].Label(), r.records, r.bytes, r.skips)
		} else {
			sp.Eventf("split %s: %d records, %d bytes", splits[i].Label(), r.records, r.bytes)
		}
		mapTimes = append(mapTimes, cfg.ScanTaskSeconds(r.bytes, r.records, r.seeks))
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
	if cfg.ScaleFactor > 1 {
		// The in-process data is a sample of the modelled deployment's:
		// cost the phase analytically from scaled aggregate volumes.
		stats.SimMapSec = cfg.ScaledMapSeconds(cluster.PhaseVolumes{
			Bytes: stats.InputBytes, Records: stats.InputRecords, Seeks: stats.Seeks,
		})
	} else {
		stats.SimMapSec = cluster.Makespan(mapTimes, cfg.MapSlots())
	}

	if !hasReduce {
		stats.OutputPairs = outPairs
		stats.Wall = time.Since(start)
		return stats, nil
	}

	// ---- Shuffle: each reducer groups the map tasks' buffers in place ----
	stats.SimShuffleSec = cfg.ScaledShuffleSeconds(stats.ShuffleBytes)
	var ran []mapResult
	for _, r := range results {
		if r.ran {
			ran = append(ran, r)
			for _, part := range r.parts {
				stats.ShufflePairs += int64(part.pairs())
			}
		}
	}

	// ---- Reduce phase ----
	rResults := make([]reduceResult, numReducers)
	rPool := runtime.GOMAXPROCS(0)
	if rPool > numReducers {
		rPool = numReducers
	}
	if rPool < 1 {
		rPool = 1
	}
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

	reduceTimes := make([]float64, 0, numReducers)
	var reduceBytes, reduceGroups int64
	for p, r := range rResults {
		if r.err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: reduce task %d: %w", job.Name, p, r.err)
		}
		reduceTimes = append(reduceTimes, cfg.ReduceTaskSeconds(r.inBytes, r.groups))
		reduceBytes += r.inBytes
		reduceGroups += r.groups
	}
	if cfg.ScaleFactor > 1 {
		stats.SimReduceSec = cfg.ScaledReduceSeconds(reduceBytes, reduceGroups, numReducers)
	} else {
		stats.SimReduceSec = cluster.Makespan(reduceTimes, cfg.ReduceSlots())
	}
	stats.OutputPairs = outPairs
	stats.Wall = time.Since(start)
	return stats, nil
}

func runMapTask(job *Job, split InputSplit, numReducers int, hasReduce bool, output Emit) (res mapResult) {
	reader, err := job.Input.Open(split)
	if err != nil {
		res.err = err
		return res
	}
	res.parts = make([]partition, numReducers)
	emit := output
	if hasReduce {
		var values arena
		emit = func(key string, value []byte) {
			// Copy the value: mappers commonly reuse buffers between emits.
			res.parts[partitionOf(key, numReducers)].add(kvPair{key: key, value: values.copy(value)})
			res.emitted += int64(len(key) + len(value))
		}
	}
	mapRec := job.Map
	var mapper TaskMapper
	if job.NewMapper != nil {
		mapper = job.NewMapper()
		mapRec = mapper.Map
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
			res.records += int64(len(rec.Batch.Sel()))
		} else {
			res.records++
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
	res.bytes = reader.BytesRead()
	res.seeks = reader.Seeks()
	if fr, ok := reader.(*fileReader); ok {
		res.skips = fr.skips
	}
	if hasReduce && job.Combine != nil {
		for p := range res.parts {
			res.parts[p], res.emitted = combinePartition(job.Combine, res.parts[p], res.emitted)
		}
	}
	return res
}

// arena hands out copies of emitted values from a few large chunks, so a map
// task pays one allocation per chunk instead of one per pair. Chunks double
// up to arenaMaxChunk; a job that emits a handful of pairs stays small.
type arena struct {
	free []byte
	next int // size of the next chunk
}

const (
	arenaMinChunk = 1 << 10
	arenaMaxChunk = 1 << 20
)

func (a *arena) copy(value []byte) []byte {
	n := len(value)
	if n > len(a.free) {
		if a.next < arenaMinChunk {
			a.next = arenaMinChunk
		}
		size := a.next
		if a.next < arenaMaxChunk {
			a.next *= 2
		}
		if n > size {
			size = n
		}
		a.free = make([]byte, size)
	}
	// The capacity stops at the copy's end, so appending to a delivered value
	// cannot run into its neighbour.
	v := a.free[:n:n]
	a.free = a.free[n:]
	copy(v, value)
	return v
}

func combinePartition(combine CombineFunc, pairs partition, emitted int64) (partition, int64) {
	if len(pairs) == 0 {
		return pairs, emitted
	}
	groups, inBytes := groupPairs(pairs)
	emitted -= inBytes
	var out partition
	for _, g := range groups {
		for _, v := range combine(g.Key, g.Values) {
			out.add(kvPair{key: g.Key, value: v})
			emitted += int64(len(g.Key) + len(v))
		}
	}
	return out, emitted
}

type reduceResult struct {
	inBytes int64
	groups  int64
	err     error
}

// runReduceTask reduces partition task of every map task that ran.
func runReduceTask(job *Job, task int, maps []mapResult, output Emit) (res reduceResult) {
	var parts [][]kvPair // every map task's blocks, in map task order
	for i := range maps {
		parts = append(parts, maps[i].parts[task]...)
	}
	var groups []Group
	groups, res.inBytes = groupPairs(parts)
	res.groups = int64(len(groups))
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
// reducers. It groups the pairs of the given buffers by key through a hash
// map, then sorts the distinct keys and each group's values, so the delivered
// order — keys ascending, values ascending by bytes — does not depend on
// which map task finished first, while only values of one key are ever
// compared with each other. The buffers are read in place. The second result
// is the key+value byte volume of all pairs.
func groupPairs(parts [][]kvPair) ([]Group, int64) {
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if total == 0 {
		return nil, 0
	}
	// First pass: number the distinct keys in arrival order and count their
	// values, remembering each pair's group so the second pass needs no
	// lookups.
	index := make(map[string]int32)
	groupOf := make([]int32, 0, total)
	var groups []Group
	var counts []int
	var volume int64
	for _, part := range parts {
		for _, kv := range part {
			g, ok := index[kv.key]
			if !ok {
				g = int32(len(groups))
				index[kv.key] = g
				groups = append(groups, Group{Key: kv.key})
				counts = append(counts, 0)
			}
			counts[g]++
			groupOf = append(groupOf, g)
			volume += int64(len(kv.key) + len(kv.value))
		}
	}
	// Second pass: one backing array for every group's values.
	backing := make([][]byte, total)
	for g := range groups {
		groups[g].Values = backing[:0:counts[g]]
		backing = backing[counts[g]:]
	}
	i := 0
	for _, part := range parts {
		for _, kv := range part {
			g := groupOf[i]
			groups[g].Values = append(groups[g].Values, kv.value)
			i++
		}
	}
	slices.SortFunc(groups, func(a, b Group) int { return strings.Compare(a.Key, b.Key) })
	for _, g := range groups {
		slices.SortFunc(g.Values, bytes.Compare)
	}
	return groups, volume
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
