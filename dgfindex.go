// Package dgfindex is an in-process reproduction of "DGFIndex for Smart
// Grid: Enhancing Hive with a Cost-Effective Multidimensional Range Index"
// (Liu et al., PVLDB 7(13), 2014).
//
// It bundles a model Hadoop stack — an HDFS-style filesystem, a MapReduce
// engine with a calibrated cluster cost model, a HiveQL-subset warehouse,
// and an HBase-style key-value store — with the paper's contribution: the
// distributed grid file index (DGFIndex), plus the Compact/Aggregate/Bitmap
// index and HadoopDB baselines the paper evaluates against.
//
// Quick start — every statement is HiveQL through ExecContext, the one
// entry point, and a ctx that expires mid-scan aborts the MapReduce job
// within one split boundary:
//
//	w := dgfindex.New()
//	ctx := context.Background()
//	w.ExecContext(ctx, `CREATE TABLE meterdata (userId bigint, regionId bigint,
//	        ts timestamp, powerConsumed double)`, dgfindex.ExecOptions{})
//	w.LoadRowsByName("meterdata", rows)
//	w.ExecContext(ctx, `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
//	        AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_1000',
//	        'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed)')`, dgfindex.ExecOptions{})
//
//	qctx, cancel := context.WithTimeout(ctx, 2*time.Second)
//	defer cancel()
//	res, _ := w.ExecContext(qctx, `SELECT sum(powerConsumed) FROM meterdata
//	        WHERE userId>=100 AND userId<=5000 AND regionId=3
//	        AND ts>='2012-12-05' AND ts<'2012-12-12'`, dgfindex.ExecOptions{})
//
//	// EXPLAIN reports the access path and exact read volume the execution
//	// would have; cursors stream rows as splits complete and stop a LIMIT
//	// scan early. SelectCursor returns a planning error (unknown table or
//	// column) itself; later errors arrive through cur.Err, and
//	// cur.Stats().RowsOut counts the rows Next delivered.
//	plan, _ := w.ExecContext(ctx, `EXPLAIN SELECT * FROM meterdata WHERE userId=42`, dgfindex.ExecOptions{})
//	stmt, _ := dgfindex.ParseSQL(`SELECT * FROM meterdata LIMIT 10`)
//	cur, err := w.SelectCursor(ctx, stmt.(*dgfindex.SelectStmt), dgfindex.ExecOptions{})
//	if err == nil {
//		for cur.Next() { _ = cur.Row() }
//		_ = cur.Close()
//	}
//
// Every query reports both its result rows and a QueryStats breakdown in
// the terms of the paper's figures: simulated cluster seconds split into
// "read index and other" versus "read data and process", records read,
// bytes read, splits and seeks.
//
// A DGFIndex's IDXPROPERTIES take one splitting policy per index column and
// an optional 'precompute'; any other key fails the CREATE INDEX. Row groups
// of RCFile data are pruned by their zone maps (per-column min/max) alone.
package dgfindex

import (
	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/server"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// Core warehouse types.
type (
	// Warehouse is the catalog and query engine (Hive in the paper).
	Warehouse = hive.Warehouse
	// Result is the outcome of one statement.
	Result = hive.Result
	// QueryStats is the per-query cost breakdown.
	QueryStats = hive.QueryStats
	// ExecOptions carries per-statement options (index ablations).
	ExecOptions = hive.ExecOptions
	// SelectStmt is a parsed SELECT, the statement cursors accept.
	SelectStmt = hive.SelectStmt
	// TraceStmt is a parsed TRACE SELECT: it executes the wrapped SELECT and
	// returns its span tree instead of its rows (EXPLAIN's runtime twin).
	TraceStmt = hive.TraceStmt
)

// ParseSQL parses one HiveQL statement for reuse across executions (the
// parse-once half of ExecParsedContext and SelectCursor).
var ParseSQL = hive.Parse

// Row is one record: a slice of dynamically typed cells.
type Row = storage.Row

// KindFloat64 is the kind of a double cell.
const KindFloat64 = storage.KindFloat64

// Cell constructors.
var (
	Int64   = storage.Int64
	Float64 = storage.Float64
	Time    = storage.Time
)

// ClusterConfig is the simulated testbed (the paper's 29-node cluster).
type ClusterConfig = cluster.Config

// DefaultCluster returns the paper-calibrated 28-worker cluster model.
func DefaultCluster() *ClusterConfig { return cluster.Default() }

// Index machinery, exposed for direct (non-SQL) use.
type (
	// AdvisorConfig bounds SuggestPolicy, the splitting-policy advisor
	// implementing the paper's stated future work.
	AdvisorConfig = dgf.AdvisorConfig
	// DGFAggSpec names one pre-computed aggregation (e.g. sum(power)).
	DGFAggSpec = dgf.AggSpec
	// GridRange is one per-column range constraint, used for query
	// histories and direct planner calls.
	GridRange = gridfile.Range
)

// AggMin is the pre-computable min aggregate.
const AggMin = dgf.AggMin

// SuggestPolicy recommends a DGFIndex splitting policy from a data sample
// and a query history (the paper's Section 8 future work).
var SuggestPolicy = dgf.SuggestPolicy

// TPCHConfig generates TPC-H lineitem rows (the paper's second dataset).
type TPCHConfig = workload.TPCHConfig

// Workload generators (the paper's evaluation datasets).
var (
	DefaultMeterConfig = workload.DefaultMeterConfig
	DefaultTPCHConfig  = workload.DefaultTPCHConfig
	MeterSchema        = workload.MeterSchema
	LineitemSchema     = workload.LineitemSchema
)

// Serving layer (DGFServe): a concurrent query service over a shard router
// with admission control, plan/result caching, per-session metrics, and an
// HTTP front-end. See cmd/dgfserver.
type (
	// Server is the concurrent query-serving front-end.
	Server = server.Server
	// ServerConfig tunes worker pool, caches, timeouts and the write-ahead
	// log.
	ServerConfig = server.Config
	// QueryRequest is one query submission to a Server.
	QueryRequest = server.Request
	// ServerSnapshot is the full /stats payload.
	ServerSnapshot = server.Snapshot
	// TraceSpan is one node of a query's span tree (Server.SlowTraces,
	// a traced query's response); offsets and walls are milliseconds from
	// the root.
	TraceSpan = trace.SpanSnapshot
)

// NewServerWithBackend wraps a ShardRouter in a concurrent query service.
var NewServerWithBackend = server.NewWithBackend

// Sharding layer: a router that partitions tables across N independent
// warehouses and executes SELECTs by scatter-gather over mergeable partial
// aggregates; a 1x1 router passes statements through bit-identically. Every
// load commits to the router's engine — one LSN sequence per shard, one log
// and one applier per replica — and background appliers write the
// warehouses in micro-batches. Given a directory (ServerConfig.WALDir) the
// logs are files: loads survive restarts, ack once logged on every live
// replica, and a revived replica catches up by replaying what it missed.
// Without one an ack means applied. See internal/shard and internal/wal.
type (
	// ShardRouter fans statements out across shard warehouses.
	ShardRouter = shard.Router
	// ShardConfig sets shard count, replicas per shard, routing key, and
	// strategy.
	ShardConfig = shard.Config
)

// Shard routing strategies.
const (
	ShardByHash  = shard.HashKey
	ShardByRange = shard.RangeKey
)

// ParseShardStrategy reads "hash" or "range" (CLI flags).
var ParseShardStrategy = shard.ParseStrategy

// NewSharded creates a shard router over cfg.Shards shards of cfg.Replicas
// fresh in-memory warehouses each, every one with the default cluster model
// and block size (the sharded sibling of New).
func NewSharded(cfg ShardConfig) (*ShardRouter, error) {
	return shard.New(cfg, func(int, int) *Warehouse { return New() })
}

// NewShardedWithConfig creates a shard router whose warehouses share a
// cluster model and block size (the sharded sibling of NewWithConfig). Each
// shard — and each replica of each shard — still gets its own filesystem:
// they are independent stores.
func NewShardedWithConfig(cfg ShardConfig, cc *ClusterConfig, blockSize int64) (*ShardRouter, error) {
	return shard.New(cfg, func(int, int) *Warehouse {
		return hive.NewWarehouse(dfs.New(blockSize), cc, "/warehouse")
	})
}

// New creates a warehouse on a fresh in-memory filesystem with the default
// cluster model and a 2 MB block size (scaled to the in-process datasets the
// examples use; pass your own via NewWithConfig for other geometries).
func New() *Warehouse {
	return hive.NewWarehouse(dfs.New(2<<20), cluster.Default(), "/warehouse")
}

// NewWithConfig creates a warehouse with an explicit cluster model and block
// size.
func NewWithConfig(cfg *ClusterConfig, blockSize int64) *Warehouse {
	return hive.NewWarehouse(dfs.New(blockSize), cfg, "/warehouse")
}
