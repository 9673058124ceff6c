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
// Quick start:
//
//	w := dgfindex.New()
//	w.Exec(`CREATE TABLE meterdata (userId bigint, regionId bigint,
//	        ts timestamp, powerConsumed double)`)
//	t, _ := w.Table("meterdata")
//	w.LoadRows(t, rows)
//	w.Exec(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
//	        AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_1000',
//	        'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed)')`)
//
//	// Queries are context-first: a ctx that expires mid-scan aborts the
//	// MapReduce job within one split boundary (Exec is the
//	// context.Background() shorthand).
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	res, _ := w.ExecContext(ctx, `SELECT sum(powerConsumed) FROM meterdata
//	        WHERE userId>=100 AND userId<=5000 AND regionId=3
//	        AND ts>='2012-12-05' AND ts<'2012-12-12'`, dgfindex.ExecOptions{})
//
//	// EXPLAIN reports the access path and exact read volume the execution
//	// would have; cursors stream rows as splits complete and stop a LIMIT
//	// scan early.
//	plan, _ := w.Exec(`EXPLAIN SELECT * FROM meterdata WHERE userId=42`)
//	stmt, _ := dgfindex.ParseSQL(`SELECT * FROM meterdata LIMIT 10`)
//	cur, _ := w.SelectCursor(ctx, stmt.(*dgfindex.SelectStmt), dgfindex.ExecOptions{})
//	for cur.Next() { _ = cur.Row() }
//	_ = cur.Close()
//
// Every query reports both its result rows and a QueryStats breakdown in
// the terms of the paper's figures: simulated cluster seconds split into
// "read index and other" versus "read data and process", records read,
// bytes read, splits and seeks.
package dgfindex

import (
	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/hiveindex"
	"github.com/smartgrid-oss/dgfindex/internal/server"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// Core warehouse types.
type (
	// Warehouse is the catalog and query engine (Hive in the paper).
	Warehouse = hive.Warehouse
	// Table is one catalog entry.
	Table = hive.Table
	// Result is the outcome of one statement.
	Result = hive.Result
	// QueryStats is the per-query cost breakdown.
	QueryStats = hive.QueryStats
	// ExecOptions carries per-statement options (index ablations).
	ExecOptions = hive.ExecOptions
	// Cursor is an incremental SELECT result: rows stream as splits
	// complete, LIMIT stops the scan early, Close aborts it. Obtained from
	// Warehouse.SelectCursor or ShardRouter.SelectCursor.
	Cursor = hive.Cursor
	// ExplainPlan is the structured EXPLAIN outcome: access path, projected
	// columns and exact read bytes, GFU slice counts, shard target set.
	ExplainPlan = hive.ExplainPlan
	// Stmt is one parsed HiveQL statement (see ParseSQL).
	Stmt = hive.Stmt
	// SelectStmt is a parsed SELECT, the statement cursors accept.
	SelectStmt = hive.SelectStmt
	// TraceStmt is a parsed TRACE SELECT: it executes the wrapped SELECT and
	// returns its span tree instead of its rows (EXPLAIN's runtime twin).
	TraceStmt = hive.TraceStmt
)

// ParseSQL parses one HiveQL statement for reuse across executions (the
// parse-once half of ExecParsedContext and SelectCursor).
var ParseSQL = hive.Parse

// Record model.
type (
	// Row is one record.
	Row = storage.Row
	// Value is one dynamically typed cell.
	Value = storage.Value
	// Schema is an ordered list of named, typed columns.
	Schema = storage.Schema
	// Column is one schema entry.
	Column = storage.Column
	// Kind enumerates column types.
	Kind = storage.Kind
)

// Column kinds.
const (
	KindInt64   = storage.KindInt64
	KindFloat64 = storage.KindFloat64
	KindString  = storage.KindString
	KindTime    = storage.KindTime
)

// Value constructors.
var (
	Int64     = storage.Int64
	Float64   = storage.Float64
	Str       = storage.Str
	Time      = storage.Time
	TimeUnix  = storage.TimeUnix
	NewSchema = storage.NewSchema
)

// Cluster model.
type (
	// ClusterConfig is the simulated testbed (the paper's 29-node cluster).
	ClusterConfig = cluster.Config
	// FS is the model distributed filesystem.
	FS = dfs.FS
)

// DefaultCluster returns the paper-calibrated 28-worker cluster model.
func DefaultCluster() *ClusterConfig { return cluster.Default() }

// Index machinery, exposed for direct (non-SQL) use.
type (
	// DGFIndex is the paper's contribution, usable without the SQL layer.
	DGFIndex = dgf.Index
	// DGFSpec describes a DGFIndex to build.
	DGFSpec = dgf.Spec
	// DGFPlanOptions carries the planner ablation flags.
	DGFPlanOptions = dgf.PlanOptions
	// HiveIndexKind selects Compact, Aggregate or Bitmap.
	HiveIndexKind = hiveindex.Kind
	// Format selects TextFile or RCFile storage (the canonical enum of the
	// storage layer's segment abstraction).
	Format = storage.Format
	// DGFSource describes the base-table records a direct (non-SQL)
	// DGFIndex build reads: location, storage format, row-group sizing.
	DGFSource = dgf.Source
	// AdvisorConfig bounds SuggestPolicy, the splitting-policy advisor
	// implementing the paper's stated future work.
	AdvisorConfig = dgf.AdvisorConfig
	// Advice is a suggested splitting policy with projected properties.
	Advice = dgf.Advice
	// DGFAggSpec names one pre-computed aggregation (e.g. sum(power)).
	DGFAggSpec = dgf.AggSpec
	// GridRange is one per-column range constraint, used for query
	// histories and direct planner calls.
	GridRange = gridfile.Range
)

// Pre-computable aggregate functions.
const (
	AggSum   = dgf.AggSum
	AggCount = dgf.AggCount
	AggMin   = dgf.AggMin
	AggMax   = dgf.AggMax
)

// SuggestPolicy recommends a DGFIndex splitting policy from a data sample
// and a query history (the paper's Section 8 future work).
var SuggestPolicy = dgf.SuggestPolicy

// Index kinds and formats.
const (
	Compact   = hiveindex.Compact
	Aggregate = hiveindex.Aggregate
	Bitmap    = hiveindex.Bitmap
	TextFile  = storage.TextFile
	RCFile    = storage.RCFile
)

// ParseFormat reads a format name ("textfile" or "rcfile").
var ParseFormat = storage.ParseFormat

// Workload generators (the paper's evaluation datasets).
type (
	// MeterConfig generates smart-grid meter data.
	MeterConfig = workload.MeterConfig
	// TPCHConfig generates TPC-H lineitem rows.
	TPCHConfig = workload.TPCHConfig
	// MeterQuery is a parameterised multidimensional range query.
	MeterQuery = workload.MeterQuery
)

// Workload helpers.
var (
	DefaultMeterConfig = workload.DefaultMeterConfig
	DefaultTPCHConfig  = workload.DefaultTPCHConfig
	MeterSchema        = workload.MeterSchema
	UserInfoSchema     = workload.UserInfoSchema
	LineitemSchema     = workload.LineitemSchema
)

// Serving layer (DGFServe): a concurrent query service over a shard router
// (one Warehouse is the 1x1 fleet), with admission control, plan/result
// caching, per-session metrics, and an HTTP front-end. See cmd/dgfserver and
// examples/concurrent.
type (
	// Server is the concurrent query-serving front-end.
	Server = server.Server
	// ServerConfig tunes worker pool, caches, timeouts, and pacing.
	ServerConfig = server.Config
	// QueryRequest is one query submission to a Server.
	QueryRequest = server.Request
	// QueryResponse is the outcome of one served query.
	QueryResponse = server.Response
	// ServerStream is one in-flight streaming query: a Cursor holding its
	// worker slot until Close (see Server.QueryStream).
	ServerStream = server.Stream
	// ServerSession carries per-session serving metrics.
	ServerSession = server.Session
	// ServerSnapshot is the full /stats payload.
	ServerSnapshot = server.Snapshot
	// ServerMetrics is one metric scope (server-wide or per-session).
	ServerMetrics = server.MetricsSnapshot
	// ServerCacheStats reports one cache's hit/miss/eviction counters.
	ServerCacheStats = server.CacheStats
	// TableInfo is a read-only catalog snapshot entry.
	TableInfo = hive.TableInfo
	// TraceSpan is one node of a query's span tree (QueryResponse.Trace,
	// Server.SlowTraces); offsets and walls are milliseconds from the root.
	TraceSpan = trace.SpanSnapshot
	// TraceRecord is one flight-recorder entry: a slow or errored query with
	// its full span tree (Server.SlowTraces, GET /debug/slow).
	TraceRecord = trace.Record
)

// Serving-layer constructors and sentinel errors.
var (
	// NewServer wraps one Warehouse in a concurrent query service, as a
	// single-shard, single-replica fleet.
	NewServer = server.New
	// NewServerWithBackend wraps a ShardRouter in a concurrent query service.
	NewServerWithBackend = server.NewWithBackend
	// ErrServerOverloaded: admission queue full, back off and retry.
	ErrServerOverloaded = server.ErrOverloaded
	// ErrServerClosed: the server is draining or closed.
	ErrServerClosed = server.ErrClosed
	// ErrQueryTimeout: the query exceeded its deadline.
	ErrQueryTimeout = server.ErrQueryTimeout
)

// Sharding layer: a router that partitions tables across N independent
// warehouses and executes SELECTs by scatter-gather over mergeable partial
// aggregates. Every Server fronts one: NewServer builds the 1x1 router
// around a single warehouse, which passes statements through bit-identically.
// See internal/shard.
type (
	// Backend is the method set of *ShardRouter a Server calls (an interface
	// so tests can decorate a router; *ShardRouter is the implementation).
	Backend = server.Backend
	// ShardRouter fans statements out across shard warehouses.
	ShardRouter = shard.Router
	// ShardConfig sets shard count, replicas per shard, routing key, and
	// strategy.
	ShardConfig = shard.Config
	// ShardStrategy selects hash or range routing.
	ShardStrategy = shard.Strategy
	// ShardSetHealth is one shard's replica-set health (Router.Health,
	// /stats, /healthz).
	ShardSetHealth = shard.SetHealth
	// ShardReplicaHealth is one replica's health record.
	ShardReplicaHealth = shard.ReplicaHealth
)

// ErrReplicaDown marks a request that failed because its chosen shard
// replica is down; the router retries it on the shard's other replicas.
var ErrReplicaDown = shard.ErrReplicaDown

// Shard routing strategies.
const (
	ShardByHash  = shard.HashKey
	ShardByRange = shard.RangeKey
)

// ParseShardStrategy reads "hash" or "range" (CLI flags).
var ParseShardStrategy = shard.ParseStrategy

// The write path: every load commits to the router's engine — one LSN
// sequence per shard, one log and one applier per replica — and background
// appliers write the warehouses in micro-batches. Given a directory
// (ServerConfig.WALDir behind any Server; ShardRouter.EnableWAL, which takes
// the engine's own options, for a router used directly) the logs are files:
// loads survive restarts, ack once logged on every live replica, and a
// revived replica catches up by replaying the records it missed. Without one
// the logs store nothing: an ack means applied, and a shard with a replica
// down refuses loads.
type (
	// LoadAck describes one acknowledged load (ShardRouter.LoadRowsDurable).
	LoadAck = shard.LoadAck
	// LoadResult is the serving-layer load acknowledgement
	// (Server.LoadRowsCtx).
	LoadResult = server.LoadResult
	// WALFsyncPolicy selects append durability (always/interval/off).
	WALFsyncPolicy = wal.Policy
	// WALShardStats is one shard's log state (/stats "wal" section).
	WALShardStats = wal.ShardStats
	// WALReplicaStats is one replica's log positions and backlog.
	WALReplicaStats = wal.ReplicaStats
)

// WAL fsync policies.
const (
	// FsyncAlways syncs the log on every append (strongest durability).
	FsyncAlways = wal.PolicyAlways
	// FsyncInterval syncs on a short timer (default; bounded loss window).
	FsyncInterval = wal.PolicyInterval
	// FsyncOff never syncs explicitly (tests and bulk restores).
	FsyncOff = wal.PolicyOff
)

// ParseFsyncPolicy reads "always", "interval", or "off" (CLI flags).
var ParseFsyncPolicy = wal.ParsePolicy

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

// NormalizeSQL canonicalizes a statement the way the server's caches key it.
var NormalizeSQL = hive.Normalize

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
