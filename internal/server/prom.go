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

	p.Scalar(trace.MetricUptimeSeconds, snap.UptimeSeconds)
	p.Scalar(trace.MetricDraining, boolGauge(snap.Draining))
	p.Scalar(trace.MetricInFlight, float64(snap.InFlight))
	// Executing queries hold worker slots; anything admitted beyond that is
	// waiting in the queue.
	executing := len(s.sem)
	depth := snap.InFlight - executing
	if depth < 0 {
		depth = 0
	}
	p.Scalar(trace.MetricAdmissionQueueDepth, float64(depth))
	p.Scalar(trace.MetricRejectedTotal, float64(snap.Rejected))
	p.Scalar(trace.MetricLoadsTotal, float64(snap.Loads))
	p.Scalar(trace.MetricRowsLoadedTotal, float64(snap.RowsLoaded))
	p.Scalar(trace.MetricResultInvalidations, float64(snap.ResultInvalidations))
	p.Scalar(trace.MetricSlowTracesTotal, float64(snap.SlowTraces))

	p.Scalar(trace.MetricQueriesTotal, float64(m.Queries))
	p.Scalar(trace.MetricQueryErrorsTotal, float64(m.Errors))
	p.Scalar(trace.MetricQueryTimeoutsTotal, float64(m.Timeouts))
	p.Scalar(trace.MetricCacheHitsTotal, float64(m.CacheHits))
	p.Scalar(trace.MetricRecordsReadTotal, float64(m.RecordsRead))
	p.Scalar(trace.MetricBytesReadTotal, float64(m.BytesRead))
	p.Scalar(trace.MetricShufflePairsTotal, float64(m.ShufflePairs))
	p.Scalar(trace.MetricShuffleBytesTotal, float64(m.ShuffleBytes))
	p.Scalar(trace.MetricRowsOutTotal, float64(m.RowsOut))
	p.Scalar(trace.MetricSimClusterSeconds, m.SimClusterSeconds)

	p.Histogram(trace.MetricQueryLatencyMs, latencyBucketsMs, bucketCounts(m.Latency), m.WallSeconds*1e3)
	p.Histogram(trace.MetricAdmissionWaitMs, latencyBucketsMs, bucketCounts(m.QueueWait), m.QueueWaitSeconds*1e3)

	writePathVec(p, trace.MetricPathQueriesTotal, m.Paths, func(ps PathSnapshot) float64 { return float64(ps.Queries) })
	writePathVec(p, trace.MetricPathRecordsRead, m.Paths, func(ps PathSnapshot) float64 { return float64(ps.RecordsRead) })
	writePathVec(p, trace.MetricPathBytesRead, m.Paths, func(ps PathSnapshot) float64 { return float64(ps.BytesRead) })
	writePathVec(p, trace.MetricPathSimSeconds, m.Paths, func(ps PathSnapshot) float64 { return ps.SimSeconds })

	p.Scalar(trace.MetricResultCacheEntries, float64(snap.ResultCache.Entries))
	p.Scalar(trace.MetricResultCacheHits, float64(snap.ResultCache.Hits))
	p.Scalar(trace.MetricResultCacheMisses, float64(snap.ResultCache.Misses))
	p.Scalar(trace.MetricResultCacheEvictions, float64(snap.ResultCache.Evictions))

	if len(snap.Shards) > 0 {
		p.Open(trace.MetricShardLiveReplicas)
		for _, sh := range snap.Shards {
			p.Sample(map[trace.Label]string{trace.LabelShard: strconv.Itoa(sh.Shard)}, float64(sh.Live))
		}
		p.Open(trace.MetricReplicaLive)
		for _, sh := range snap.Shards {
			for _, rep := range sh.Detail {
				p.Sample(replicaLabels(sh.Shard, rep.Replica), boolGauge(rep.Live))
			}
		}
		p.Open(trace.MetricReplicaInflight)
		for _, sh := range snap.Shards {
			for _, rep := range sh.Detail {
				p.Sample(replicaLabels(sh.Shard, rep.Replica), float64(rep.Inflight))
			}
		}
	}

	p.Scalar(trace.MetricWALRowsApplied, float64(snap.RowsApplied))
	var replayed float64
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			replayed += float64(rep.ReplayedRows)
		}
	}
	p.Scalar(trace.MetricWALReplayedRows, replayed)

	p.Open(trace.MetricWALPendingRecords)
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			p.Sample(replicaLabels(sh.Shard, rep.Replica), float64(rep.PendingRecords))
		}
	}
	p.Open(trace.MetricWALLastLSN)
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			p.Sample(replicaLabels(sh.Shard, rep.Replica), float64(rep.LastLSN))
		}
	}
	p.Open(trace.MetricWALAppliedLSN)
	for _, sh := range snap.WAL {
		for _, rep := range sh.Replicas {
			p.Sample(replicaLabels(sh.Shard, rep.Replica), float64(rep.AppliedLSN))
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

func replicaLabels(shard, replica int) map[trace.Label]string {
	return map[trace.Label]string{trace.LabelShard: strconv.Itoa(shard), trace.LabelReplica: strconv.Itoa(replica)}
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

// writePathVec writes one per-access-path counter family. paths come
// sorted by path from the snapshot, so scrapes are deterministic.
func writePathVec(p *trace.PromWriter, fam trace.Family, paths []PathSnapshot, val func(PathSnapshot) float64) {
	p.Open(fam)
	for _, ps := range paths {
		p.Sample(map[trace.Label]string{trace.LabelPath: ps.Path}, val(ps))
	}
}
