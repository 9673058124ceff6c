package trace

// Metric registry: the fixed universe of Prometheus families and label
// names this process may expose. Family and Label are structs with
// unexported fields, so code outside this package cannot make one: the
// values below are the only ones a PromWriter can be given, and a family
// or label name that is not declared here does not compile. The size of
// /metrics stays bounded by this file, never by traffic. Histogram "le"
// and the "_bucket"/"_sum"/"_count" suffixes are minted by PromWriter
// itself and are not call-site inputs.

// Family is one registered metric family: its name, its type and its help
// text. The zero Family is refused by PromWriter.
type Family struct {
	name, typ, help string
}

// Label is one registered label name. The zero Label is refused by
// PromWriter.
type Label struct {
	name string
}

func counter(name, help string) Family   { return Family{name, "counter", help} }
func gauge(name, help string) Family     { return Family{name, "gauge", help} }
func histogram(name, help string) Family { return Family{name, "histogram", help} }

// Families, in the order /metrics writes them.
var (
	MetricUptimeSeconds        = gauge("dgf_uptime_seconds", "Seconds since the server started.")
	MetricDraining             = gauge("dgf_draining", "1 while the server is draining for shutdown.")
	MetricInFlight             = gauge("dgf_in_flight", "Admitted queries not yet finished (queued or executing).")
	MetricAdmissionQueueDepth  = gauge("dgf_admission_queue_depth", "Admitted queries waiting for a worker slot.")
	MetricRejectedTotal        = counter("dgf_rejected_total", "Queries rejected because the admission queue was full.")
	MetricLoadsTotal           = counter("dgf_loads_total", "Row-load requests served.")
	MetricRowsLoadedTotal      = counter("dgf_rows_loaded_total", "Rows ingested by load requests.")
	MetricResultInvalidations  = counter("dgf_result_invalidations_total", "Cached results evicted because a table they read mutated.")
	MetricSlowTracesTotal      = counter("dgf_slow_traces_total", "Slow or errored queries captured by the flight recorder.")
	MetricQueriesTotal         = counter("dgf_queries_total", "Queries observed (successes and errors).")
	MetricQueryErrorsTotal     = counter("dgf_query_errors_total", "Queries that returned an error (timeouts included).")
	MetricQueryTimeoutsTotal   = counter("dgf_query_timeouts_total", "Queries that missed their deadline.")
	MetricCacheHitsTotal       = counter("dgf_cache_hits_total", "Queries served from the result cache.")
	MetricRecordsReadTotal     = counter("dgf_records_read_total", "Records scanned by executed queries (cache hits excluded).")
	MetricBytesReadTotal       = counter("dgf_bytes_read_total", "Bytes read by executed queries (cache hits excluded).")
	MetricShufflePairsTotal    = counter("dgf_shuffle_pairs_total", "Shuffle pairs executed scan jobs were charged for (cache hits excluded).")
	MetricShuffleBytesTotal    = counter("dgf_shuffle_bytes_total", "Key and value bytes of those pairs.")
	MetricRowsOutTotal         = counter("dgf_rows_out_total", "Result rows returned to clients.")
	MetricSimClusterSeconds    = counter("dgf_sim_cluster_seconds_total", "Simulated cluster seconds spent executing queries.")
	MetricQueryLatencyMs       = histogram("dgf_query_latency_ms", "End-to-end query wall latency in milliseconds.")
	MetricAdmissionWaitMs      = histogram("dgf_admission_wait_ms", "Time queries spent waiting for a worker slot, in milliseconds.")
	MetricPathQueriesTotal     = counter("dgf_path_queries_total", "Executed queries by access path.")
	MetricPathRecordsRead      = counter("dgf_path_records_read_total", "Records scanned by access path.")
	MetricPathBytesRead        = counter("dgf_path_bytes_read_total", "Bytes read by access path.")
	MetricPathSimSeconds       = counter("dgf_path_sim_seconds_total", "Simulated cluster seconds by access path.")
	MetricResultCacheEntries   = gauge("dgf_result_cache_entries", "Results currently cached.")
	MetricResultCacheHits      = counter("dgf_result_cache_hits_total", "Result-cache lookups that hit.")
	MetricResultCacheMisses    = counter("dgf_result_cache_misses_total", "Result-cache lookups that missed.")
	MetricResultCacheEvictions = counter("dgf_result_cache_evictions_total", "Results evicted by capacity pressure.")
	MetricShardLiveReplicas    = gauge("dgf_shard_live_replicas", "Live replicas per shard.")
	MetricReplicaLive          = gauge("dgf_replica_live", "1 when the replica is live (not killed).")
	MetricReplicaInflight      = gauge("dgf_replica_inflight", "Requests currently executing on the replica.")
	MetricWALRowsApplied       = counter("dgf_wal_rows_applied_total", "Rows the load engine's appliers wrote into the shards' warehouses.")
	MetricWALReplayedRows      = counter("dgf_wal_replayed_rows_total", "Rows replayed into the warehouses from the logs at recovery.")
	MetricWALPendingRecords    = gauge("dgf_wal_pending_records", "Committed records not yet applied on the shard (ingest backlog depth).")
	MetricWALLastLSN           = gauge("dgf_wal_last_lsn", "Highest log sequence number appended to the shard's log.")
	MetricWALAppliedLSN        = gauge("dgf_wal_applied_lsn", "Highest log sequence number applied on the shard (lag = last_lsn - applied_lsn).")
)

// Label names. Three labels, all with topology-bounded value sets (shard
// count, replica count, the fixed access-path vocabulary), never
// request-derived.
var (
	LabelShard   = Label{"shard"}
	LabelReplica = Label{"replica"}
	LabelPath    = Label{"path"}
)
