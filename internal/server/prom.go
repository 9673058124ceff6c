package server

import (
	"io"
	"strconv"

	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// WriteMetrics renders the server's metrics in Prometheus text exposition
// format (the GET /metrics body). It draws from the same Stats() snapshot
// /stats serves, so the two endpoints can never disagree on a counter.
func (s *Server) WriteMetrics(w io.Writer) error {
	snap := s.Stats()
	m := snap.Server
	p := trace.NewPromWriter(w)

	p.Gauge("dgf_uptime_seconds", "Seconds since the server started.", nil, snap.UptimeSeconds)
	p.Gauge("dgf_draining", "1 while the server is draining for shutdown.", nil, boolGauge(snap.Draining))
	p.Gauge("dgf_in_flight", "Admitted queries not yet finished (queued or executing).", nil, float64(snap.InFlight))
	// Executing queries hold worker slots; anything admitted beyond that is
	// waiting in the queue.
	executing := len(s.sem)
	depth := snap.InFlight - executing
	if depth < 0 {
		depth = 0
	}
	p.Gauge("dgf_admission_queue_depth", "Admitted queries waiting for a worker slot.", nil, float64(depth))
	p.Counter("dgf_rejected_total", "Queries rejected because the admission queue was full.", nil, float64(snap.Rejected))
	p.Counter("dgf_loads_total", "Row-load requests served.", nil, float64(snap.Loads))
	p.Counter("dgf_rows_loaded_total", "Rows ingested by load requests.", nil, float64(snap.RowsLoaded))
	p.Counter("dgf_result_invalidations_total", "Cached results evicted because a table they read mutated.", nil, float64(snap.ResultInvalidations))
	p.Counter("dgf_slow_traces_total", "Slow or errored queries captured by the flight recorder.", nil, float64(snap.SlowTraces))

	p.Counter("dgf_queries_total", "Queries observed (successes and errors).", nil, float64(m.Queries))
	p.Counter("dgf_query_errors_total", "Queries that returned an error (timeouts included).", nil, float64(m.Errors))
	p.Counter("dgf_query_timeouts_total", "Queries that missed their deadline.", nil, float64(m.Timeouts))
	p.Counter("dgf_cache_hits_total", "Queries served from the result cache.", nil, float64(m.CacheHits))
	p.Counter("dgf_records_read_total", "Records scanned by executed queries (cache hits excluded).", nil, float64(m.RecordsRead))
	p.Counter("dgf_bytes_read_total", "Bytes read by executed queries (cache hits excluded).", nil, float64(m.BytesRead))
	p.Counter("dgf_shuffle_pairs_total", "Shuffle pairs executed scan jobs were charged for (cache hits excluded).", nil, float64(m.ShufflePairs))
	p.Counter("dgf_shuffle_bytes_total", "Key and value bytes of those pairs.", nil, float64(m.ShuffleBytes))
	p.Counter("dgf_rows_out_total", "Result rows returned to clients.", nil, float64(m.RowsOut))
	p.Counter("dgf_sim_cluster_seconds_total", "Simulated cluster seconds spent executing queries.", nil, m.SimClusterSeconds)

	p.Histogram("dgf_query_latency_ms", "End-to-end query wall latency in milliseconds.",
		latencyBucketsMs, bucketCounts(m.Latency), m.WallSeconds*1e3)
	p.Histogram("dgf_admission_wait_ms", "Time queries spent waiting for a worker slot, in milliseconds.",
		latencyBucketsMs, bucketCounts(m.QueueWait), m.QueueWaitSeconds*1e3)

	writePathVec(p, "dgf_path_queries_total", "Executed queries by access path.", m.Paths, func(ps PathSnapshot) float64 { return float64(ps.Queries) })
	writePathVec(p, "dgf_path_records_read_total", "Records scanned by access path.", m.Paths, func(ps PathSnapshot) float64 { return float64(ps.RecordsRead) })
	writePathVec(p, "dgf_path_bytes_read_total", "Bytes read by access path.", m.Paths, func(ps PathSnapshot) float64 { return float64(ps.BytesRead) })
	writePathVec(p, "dgf_path_sim_seconds_total", "Simulated cluster seconds by access path.", m.Paths, func(ps PathSnapshot) float64 { return ps.SimSeconds })

	p.Gauge("dgf_result_cache_entries", "Results currently cached.", nil, float64(snap.ResultCache.Entries))
	p.Counter("dgf_result_cache_hits_total", "Result-cache lookups that hit.", nil, float64(snap.ResultCache.Hits))
	p.Counter("dgf_result_cache_misses_total", "Result-cache lookups that missed.", nil, float64(snap.ResultCache.Misses))
	p.Counter("dgf_result_cache_evictions_total", "Results evicted by capacity pressure.", nil, float64(snap.ResultCache.Evictions))

	if len(snap.Shards) > 0 {
		p.GaugeHead("dgf_shard_live_replicas", "Live replicas per shard.")
		for _, sh := range snap.Shards {
			p.GaugeRow("dgf_shard_live_replicas", map[string]string{"shard": strconv.Itoa(sh.Shard)}, float64(sh.Live))
		}
		p.GaugeHead("dgf_replica_live", "1 when the replica is live (not killed).")
		for _, sh := range snap.Shards {
			for _, rep := range sh.Detail {
				p.GaugeRow("dgf_replica_live", replicaLabels(sh.Shard, rep.Replica), boolGauge(rep.Live))
			}
		}
		p.GaugeHead("dgf_replica_inflight", "Requests currently executing on the replica.")
		for _, sh := range snap.Shards {
			for _, rep := range sh.Detail {
				p.GaugeRow("dgf_replica_inflight", replicaLabels(sh.Shard, rep.Replica), float64(rep.Inflight))
			}
		}
	}

	p.Counter("dgf_wal_rows_applied_total", "Rows the load engine's appliers wrote into the shards' warehouses.", nil, float64(snap.RowsApplied))
	var replayed float64
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			replayed += float64(rep.ReplayedRows)
		}
	}
	p.Counter("dgf_wal_replayed_rows_total", "Rows replayed into the warehouses from the logs at recovery.", nil, replayed)

	p.GaugeHead("dgf_wal_pending_records", "Committed records not yet applied on the shard (ingest backlog depth).")
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			p.GaugeRow("dgf_wal_pending_records", replicaLabels(sh.Shard, rep.Replica), float64(rep.PendingRecords))
		}
	}
	p.GaugeHead("dgf_wal_last_lsn", "Highest log sequence number appended to the shard's log.")
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			p.GaugeRow("dgf_wal_last_lsn", replicaLabels(sh.Shard, rep.Replica), float64(rep.LastLSN))
		}
	}
	p.GaugeHead("dgf_wal_applied_lsn", "Highest log sequence number applied on the shard (lag = last_lsn - applied_lsn).")
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			p.GaugeRow("dgf_wal_applied_lsn", replicaLabels(sh.Shard, rep.Replica), float64(rep.AppliedLSN))
		}
	}
	return p.Err()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func replicaLabels(shard, replica int) map[string]string {
	return map[string]string{"shard": strconv.Itoa(shard), "replica": strconv.Itoa(replica)}
}

// bucketCounts converts the JSON histogram shape (cumulative-ready buckets
// with LeMs 0 marking +Inf) back to per-slot counts for the exposition
// writer, which expects len(latencyBucketsMs)+1 slots.
func bucketCounts(buckets []LatencyBucket) []int64 {
	counts := make([]int64, len(latencyBucketsMs)+1)
	for i, b := range buckets {
		if i < len(counts) {
			counts[i] = b.Count
		}
	}
	return counts
}

// writePathVec emits one per-access-path counter family.
func writePathVec(p *trace.PromWriter, name, help string, paths []PathSnapshot, val func(PathSnapshot) float64) {
	values := make(map[string]float64, len(paths))
	for _, ps := range paths {
		values[ps.Path] = val(ps)
	}
	p.CounterVec(name, help, "path", values)
}
