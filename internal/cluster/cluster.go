// Package cluster models the hardware testbed of the DGFIndex paper: a
// 29-node Hadoop/HBase cluster (1 master + 28 workers, 5 map slots and
// 3 reduce slots per worker, 64 MB HDFS blocks).
//
// All experiment code in this repository executes for real, in process, on
// the local machine. What Hive would do for a job — each map task's bytes,
// records and seeks, each reduce task's pairs, bytes and groups, the
// key-value operations of planning and index builds, a join side's bytes —
// is recorded in a Ledger where it is observed (mapreduce.RunContext, the
// query's declared shuffle, dgf.Index.Plan and the index builds), and
// Config.Price is the one place a ledger becomes *simulated cluster
// seconds* under a calibrated cost model. The paper's figures report
// wall-clock seconds on the 29-node cluster; we report the simulated seconds
// next to local wall time, and compare shapes/ratios rather than absolute
// values (see EXPERIMENTS.md).
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Config describes the simulated cluster topology and per-component costs.
// The zero value is not useful; start from Default().
type Config struct {
	// Workers is the number of worker nodes (the paper uses 28).
	Workers int
	// MapSlotsPerWorker is the number of concurrent map tasks per worker
	// (the paper configures up to 5).
	MapSlotsPerWorker int
	// ReduceSlotsPerWorker is the number of concurrent reduce tasks per
	// worker (the paper configures up to 3).
	ReduceSlotsPerWorker int

	// DiskMBps is the aggregate sequential disk bandwidth of one worker in
	// MB/s. Map slots on the same worker share it.
	DiskMBps float64
	// NetMBps is the network bandwidth of one worker in MB/s, used for the
	// shuffle phase and for remote reads.
	NetMBps float64
	// RecordCPUUs is the CPU cost in microseconds for deserialising and
	// processing one record in a map or reduce function.
	RecordCPUUs float64

	// TaskStartupSec is the fixed overhead of launching one map or reduce
	// task (JVM reuse disabled in Hadoop 1.x; about a second).
	TaskStartupSec float64
	// JobStartupSec is the fixed overhead of one MapReduce job: HiveQL
	// parsing, plan generation and job submission. The paper's "read index
	// and other" bar is dominated by this.
	JobStartupSec float64

	// SeekMs is the cost of one random seek on a worker disk, paid when the
	// slice-skipping record reader jumps between Slices inside a split.
	SeekMs float64

	// KVBatchRTTMs is the round-trip latency of one batched request to the
	// key-value store (HBase in the paper).
	KVBatchRTTMs float64
	// KVPerOpUs is the incremental per-key cost within a batch.
	KVPerOpUs float64
	// KVBatchSize is how many keys one round trip carries.
	KVBatchSize int

	// ScaleFactor treats the in-process dataset as a 1/ScaleFactor sample
	// of the modelled deployment's data: job input/shuffle/output volumes
	// are multiplied by it before costing, and map tasks are re-derived as
	// SimBlockMB-sized units. Grid-cell and key-value op counts are NOT
	// scaled — DGFIndex's index size depends on the splitting policy, not
	// the data volume, which is exactly the paper's point. 1 (or 0) means
	// no scaling; unit tests use 1, the experiment harness sets it to
	// paper-bytes / generated-bytes.
	ScaleFactor float64
	// SimBlockMB is the modelled HDFS block (and so map-task input) size
	// used when ScaleFactor rescales task counts. Default 64, the paper's.
	SimBlockMB float64
}

// Default returns the paper-calibrated cluster model: 28 workers with
// 8 virtual cores and a shared virtualised disk. Effective per-mapper scan
// throughput is calibrated so that a full scan of the 1 TB meter table costs
// about 1950 simulated seconds, matching Section 5.3.2.
func Default() *Config {
	return &Config{
		Workers:              28,
		MapSlotsPerWorker:    5,
		ReduceSlotsPerWorker: 3,
		DiskMBps:             24, // virtualised disk shared by 5 map slots
		NetMBps:              40,
		RecordCPUUs:          1.5,
		TaskStartupSec:       1.0,
		JobStartupSec:        10.0,
		SeekMs:               8.0,
		KVBatchRTTMs:         2.0,
		KVPerOpUs:            40,
		KVBatchSize:          1000,
		ScaleFactor:          1,
		SimBlockMB:           64,
	}
}

// Scaled returns a copy of the configuration with the given data-volume
// scale factor.
func (c *Config) Scaled(factor float64) *Config {
	out := *c
	if factor < 1 {
		factor = 1
	}
	out.ScaleFactor = factor
	return &out
}

// Validate reports whether the configuration is internally consistent.
func (c *Config) Validate() error {
	switch {
	case c.Workers <= 0:
		return fmt.Errorf("cluster: Workers must be positive, got %d", c.Workers)
	case c.MapSlotsPerWorker <= 0:
		return fmt.Errorf("cluster: MapSlotsPerWorker must be positive, got %d", c.MapSlotsPerWorker)
	case c.ReduceSlotsPerWorker <= 0:
		return fmt.Errorf("cluster: ReduceSlotsPerWorker must be positive, got %d", c.ReduceSlotsPerWorker)
	case c.DiskMBps <= 0 || c.NetMBps <= 0:
		return fmt.Errorf("cluster: bandwidths must be positive")
	case c.KVBatchSize <= 0:
		return fmt.Errorf("cluster: KVBatchSize must be positive, got %d", c.KVBatchSize)
	}
	return nil
}

// MapSlots returns the cluster-wide number of concurrent map tasks.
func (c *Config) MapSlots() int { return c.Workers * c.MapSlotsPerWorker }

// ReduceSlots returns the cluster-wide number of concurrent reduce tasks.
func (c *Config) ReduceSlots() int { return c.Workers * c.ReduceSlotsPerWorker }

// MapTask is what one map task reads: its input bytes and records, and the
// random seeks between the slices it reads.
type MapTask struct{ Bytes, Records, Seeks int64 }

// ReduceTask is what one reduce task is handed: its pairs, their key+value
// bytes, and its distinct keys, the groups it reduces.
type ReduceTask struct{ Pairs, Bytes, Groups int64 }

// KVOps counts operations on the key-value store: point gets and puts, and
// prefix scans with the keys they returned.
type KVOps struct{ Gets, Puts, Scans, ScannedKeys int64 }

// Ledger is the work Hive would do for one job, with what its caller does
// around it: the jobs launched, each map task's reads, each reduce task's
// input (an empty task included), the key-value operations of planning or
// of an index build, and the bytes of a map-side join's broadcast side.
// Code records an entry where it observes the volume; Price alone turns
// entries into seconds. A ledger lives no longer than its job or query.
type Ledger struct {
	Jobs      int
	Maps      []MapTask
	Reduces   []ReduceTask
	KV        KVOps
	SideBytes int64
}

// Bill is a priced ledger: simulated seconds per phase.
type Bill struct {
	Startup, Map, Shuffle, Reduce float64
	KV, Side                      float64
}

// Price charges the ledger under the model. Each job pays JobStartupSec.
// A task pays TaskStartupSec, its bytes at its share of its worker's disk,
// its records' CPU and its seeks. Map tasks run in waves on the map slots and
// reduce tasks on the reduce slots (LPT makespan). The shuffle moves the
// reduce input over every worker's network. Key-value operations travel
// KVBatchSize keys a round trip, a scan one trip. A join side is read once,
// at one map task's bandwidth.
func (c *Config) Price(l *Ledger) Bill {
	mapMBps := c.DiskMBps / float64(c.MapSlotsPerWorker)
	reduceMBps := c.DiskMBps / float64(c.ReduceSlotsPerWorker)
	b := Bill{
		Startup: float64(l.Jobs) * c.JobStartupSec,
		KV: c.kvSeconds(l.KV.Gets) + c.kvSeconds(l.KV.Puts) +
			float64(l.KV.Scans)*c.KVBatchRTTMs/1e3 + float64(l.KV.ScannedKeys)*c.KVPerOpUs/1e6,
		Side: float64(l.SideBytes) / (mapMBps * (1 << 20)),
	}
	var read MapTask
	mapTimes := make([]float64, len(l.Maps))
	for i, m := range l.Maps {
		read.Bytes, read.Records, read.Seeks = read.Bytes+m.Bytes, read.Records+m.Records, read.Seeks+m.Seeks
		mapTimes[i] = c.taskSeconds(float64(m.Bytes), float64(m.Records), float64(m.Seeks), mapMBps)
	}
	var in ReduceTask
	reduceTimes := make([]float64, len(l.Reduces))
	for i, r := range l.Reduces {
		in.Bytes, in.Groups = in.Bytes+r.Bytes, in.Groups+r.Groups
		reduceTimes[i] = c.taskSeconds(float64(r.Bytes), float64(r.Groups), 0, reduceMBps)
	}
	sf := max(c.ScaleFactor, 1) // 0 is no scaling, as Scaled has it
	b.Shuffle = float64(int64(float64(in.Bytes)*sf)) / (1 << 20) / (c.NetMBps * float64(c.Workers))
	if sf <= 1 {
		b.Map, b.Reduce = makespan(mapTimes, c.MapSlots()), makespan(reduceTimes, c.ReduceSlots())
		return b
	}
	// The in-process data is a sample of the modelled deployment's: the
	// scaled map input is cut into SimBlockMB tasks and the scaled reduce
	// input spread over the same reduce tasks, each phase run in waves.
	// Seek counts do NOT scale: the Slices a query touches are the grid
	// cells it overlaps, which the splitting policy sets, not the data
	// volume (at full scale the Slices are larger, not more numerous).
	if read.Bytes != 0 || read.Records != 0 {
		bytes := float64(read.Bytes) * sf
		n := max(bytes/(c.SimBlockMB*(1<<20)), 1)
		b.Map = max(n/float64(c.MapSlots()), 1) *
			c.taskSeconds(bytes/n, float64(read.Records)*sf/n, float64(read.Seeks)/n, mapMBps)
	}
	if n := float64(len(l.Reduces)); n > 0 {
		b.Reduce = max(n/float64(c.ReduceSlots()), 1) *
			c.taskSeconds(float64(in.Bytes)*sf/n, float64(in.Groups)*sf/n, 0, reduceMBps)
	}
	return b
}

// taskSeconds models one task: its startup, its bytes read or written at
// mbps, its records' CPU and its random seeks.
func (c *Config) taskSeconds(bytes, records, seeks, mbps float64) float64 {
	return c.TaskStartupSec + bytes/(1<<20)/mbps + records*c.RecordCPUUs/1e6 + seeks*c.SeekMs/1e3
}

// kvSeconds models nOps point operations against the key-value store,
// batched KVBatchSize keys per round trip.
func (c *Config) kvSeconds(nOps int64) float64 {
	if nOps <= 0 {
		return 0
	}
	batches := (nOps + int64(c.KVBatchSize) - 1) / int64(c.KVBatchSize)
	return float64(batches)*c.KVBatchRTTMs/1e3 + float64(nOps)*c.KVPerOpUs/1e6
}

// makespan computes the completion time of a set of independent tasks
// scheduled greedily (longest processing time first) onto slots parallel
// slots. This is the classic LPT approximation of the optimal makespan and
// models Hadoop's wave-based task scheduling.
func makespan(taskSeconds []float64, slots int) float64 {
	if len(taskSeconds) == 0 {
		return 0
	}
	if slots <= 0 {
		slots = 1
	}
	if slots >= len(taskSeconds) {
		return slices.Max(taskSeconds)
	}
	sorted := slices.Clone(taskSeconds)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	loads := make([]float64, slots)
	for _, t := range sorted {
		// Assign to the least-loaded slot. For the task counts in this
		// repository (thousands), the linear scan is cheap and avoids a heap.
		min := 0
		for i := 1; i < slots; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += t
	}
	return slices.Max(loads)
}
