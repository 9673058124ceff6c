package trace

// Metric registry: the fixed universe of Prometheus family and label
// names this process may expose. The promlabels analyzer (cmd/dgflint)
// checks every PromWriter call site against these two const blocks, so
// adding a metric means adding it here first — which is the point: the
// exposition size of /metrics stays bounded by this file, never by
// traffic. Histogram "le" and the terminal "_bucket"/"_sum"/"_count"
// suffixes are minted by PromWriter itself and are not call-site inputs.

// Families every emitter must draw from.
//
//dgflint:metric-registry
const (
	MetricUptimeSeconds        = "dgf_uptime_seconds"
	MetricDraining             = "dgf_draining"
	MetricInFlight             = "dgf_in_flight"
	MetricAdmissionQueueDepth  = "dgf_admission_queue_depth"
	MetricRejectedTotal        = "dgf_rejected_total"
	MetricLoadsTotal           = "dgf_loads_total"
	MetricRowsLoadedTotal      = "dgf_rows_loaded_total"
	MetricResultInvalidations  = "dgf_result_invalidations_total"
	MetricSlowTracesTotal      = "dgf_slow_traces_total"
	MetricQueriesTotal         = "dgf_queries_total"
	MetricQueryErrorsTotal     = "dgf_query_errors_total"
	MetricQueryTimeoutsTotal   = "dgf_query_timeouts_total"
	MetricCacheHitsTotal       = "dgf_cache_hits_total"
	MetricRecordsReadTotal     = "dgf_records_read_total"
	MetricBytesReadTotal       = "dgf_bytes_read_total"
	MetricShufflePairsTotal    = "dgf_shuffle_pairs_total"
	MetricShuffleBytesTotal    = "dgf_shuffle_bytes_total"
	MetricRowsOutTotal         = "dgf_rows_out_total"
	MetricSimClusterSeconds    = "dgf_sim_cluster_seconds_total"
	MetricQueryLatencyMs       = "dgf_query_latency_ms"
	MetricAdmissionWaitMs      = "dgf_admission_wait_ms"
	MetricResultCacheEntries   = "dgf_result_cache_entries"
	MetricResultCacheHits      = "dgf_result_cache_hits_total"
	MetricResultCacheMisses    = "dgf_result_cache_misses_total"
	MetricResultCacheEvictions = "dgf_result_cache_evictions_total"
	MetricShardLiveReplicas    = "dgf_shard_live_replicas"
	MetricReplicaLive          = "dgf_replica_live"
	MetricReplicaInflight      = "dgf_replica_inflight"
	MetricPathQueriesTotal     = "dgf_path_queries_total"
	MetricPathRecordsRead      = "dgf_path_records_read_total"
	MetricPathBytesRead        = "dgf_path_bytes_read_total"
	MetricPathSimSeconds       = "dgf_path_sim_seconds_total"
	MetricWALRowsApplied       = "dgf_wal_rows_applied_total"
	MetricWALReplayedRows      = "dgf_wal_replayed_rows_total"
	MetricWALPendingRecords    = "dgf_wal_pending_records"
	MetricWALLastLSN           = "dgf_wal_last_lsn"
	MetricWALAppliedLSN        = "dgf_wal_applied_lsn"
)

// Label names every emitter must draw from. Three labels, all with
// topology-bounded value sets (shard count, replica count, the fixed
// access-path vocabulary) — never request-derived.
//
//dgflint:metric-labels
const (
	LabelShard   = "shard"
	LabelReplica = "replica"
	LabelPath    = "path"
)
