// Package cluster models the hardware testbed of the DGFIndex paper: a
// 29-node Hadoop/HBase cluster (1 master + 28 workers, 5 map slots and
// 3 reduce slots per worker, 64 MB HDFS blocks).
//
// All experiment code in this repository executes for real, in process, on
// the local machine; package cluster converts the observed work (bytes read,
// records processed, tasks launched, shuffle volume, key-value round trips)
// into *simulated cluster seconds* using a calibrated cost model. The paper's
// figures report wall-clock seconds on the 29-node cluster; we report the
// simulated seconds next to local wall time, and compare shapes/ratios rather
// than absolute values (see EXPERIMENTS.md).
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

// PhaseVolumes aggregates one job phase's work for analytic costing.
type PhaseVolumes struct {
	Bytes, Records, Seeks int64
}

// ScaledMapSeconds prices a map phase analytically from aggregate volumes:
// the scaled input is chopped into SimBlockMB tasks scheduled in waves onto
// the map slots. Used when ScaleFactor > 1; at factor 1 the per-task LPT
// model is preferred.
func (c *Config) ScaledMapSeconds(v PhaseVolumes) float64 {
	sf := c.ScaleFactor
	bytes := float64(v.Bytes) * sf
	records := float64(v.Records) * sf
	// Seek counts do NOT scale: the number of Slices a query touches equals
	// the number of grid cells it overlaps, which depends on the splitting
	// policy rather than the data volume (at full scale the Slices are
	// larger, not more numerous).
	seeks := float64(v.Seeks)
	if bytes == 0 && records == 0 {
		return 0
	}
	blockBytes := c.SimBlockMB * (1 << 20)
	nTasks := bytes / blockBytes
	if nTasks < 1 {
		nTasks = 1
	}
	waves := nTasks / float64(c.MapSlots())
	if waves < 1 {
		waves = 1
	}
	taskSec := c.TaskStartupSec +
		(bytes/nTasks)/(c.MapperMBps()*(1<<20)) +
		(records/nTasks)*c.RecordCPUUs/1e6 +
		(seeks/nTasks)*c.SeekMs/1e3
	return waves * taskSec
}

// ScaledShuffleSeconds prices the shuffle of scaled intermediate bytes.
func (c *Config) ScaledShuffleSeconds(bytes int64) float64 {
	return c.ShuffleSeconds(int64(float64(bytes) * c.ScaleFactor))
}

// ScaledReduceSeconds prices a reduce phase: scaled volume spread over
// nReducers tasks scheduled in waves onto the reduce slots.
func (c *Config) ScaledReduceSeconds(bytes, records int64, nReducers int) float64 {
	if nReducers <= 0 {
		return 0
	}
	sf := c.ScaleFactor
	b := float64(bytes) * sf
	r := float64(records) * sf
	waves := float64(nReducers) / float64(c.ReduceSlots())
	if waves < 1 {
		waves = 1
	}
	taskSec := c.TaskStartupSec +
		(b/float64(nReducers))/(c.ReducerMBps()*(1<<20)) +
		(r/float64(nReducers))*c.RecordCPUUs/1e6
	return waves * taskSec
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

// MapperMBps is the effective sequential read bandwidth available to a single
// map task when all map slots of its worker are busy.
func (c *Config) MapperMBps() float64 {
	return c.DiskMBps / float64(c.MapSlotsPerWorker)
}

// ReducerMBps is the effective disk bandwidth available to a single reduce
// task when all reduce slots of its worker are busy.
func (c *Config) ReducerMBps() float64 {
	return c.DiskMBps / float64(c.ReduceSlotsPerWorker)
}

// ScanTaskSeconds models one map task that sequentially reads bytes of input
// containing records records, with nSeeks random seeks interleaved (the
// slice-skipping reader). It includes the per-task startup overhead.
func (c *Config) ScanTaskSeconds(bytes, records, nSeeks int64) float64 {
	mb := float64(bytes) / (1 << 20)
	return c.TaskStartupSec +
		mb/c.MapperMBps() +
		float64(records)*c.RecordCPUUs/1e6 +
		float64(nSeeks)*c.SeekMs/1e3
}

// ShuffleSeconds models moving bytes of intermediate data across the network
// during the shuffle, overlapped across all workers.
func (c *Config) ShuffleSeconds(bytes int64) float64 {
	mb := float64(bytes) / (1 << 20)
	return mb / (c.NetMBps * float64(c.Workers))
}

// ReduceTaskSeconds models one reduce task that materialises bytes of output
// after processing records grouped records.
func (c *Config) ReduceTaskSeconds(bytes, records int64) float64 {
	mb := float64(bytes) / (1 << 20)
	return c.TaskStartupSec +
		mb/c.ReducerMBps() +
		float64(records)*c.RecordCPUUs/1e6
}

// KVSeconds models nOps point operations against the key-value store,
// batched KVBatchSize keys per round trip.
func (c *Config) KVSeconds(nOps int64) float64 {
	if nOps <= 0 {
		return 0
	}
	batches := (nOps + int64(c.KVBatchSize) - 1) / int64(c.KVBatchSize)
	return float64(batches)*c.KVBatchRTTMs/1e3 + float64(nOps)*c.KVPerOpUs/1e6
}

// Makespan computes the completion time of a set of independent tasks
// scheduled greedily (longest processing time first) onto slots parallel
// slots. This is the classic LPT approximation of the optimal makespan and
// models Hadoop's wave-based task scheduling.
func Makespan(taskSeconds []float64, slots int) float64 {
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
