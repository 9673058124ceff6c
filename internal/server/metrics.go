package server

import (
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
)

// latencyBucketsMs are the upper bounds (inclusive, milliseconds) of the
// wall-latency histogram; observations above the last bound land in the
// implicit +Inf bucket.
var latencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// pathMetrics accumulates per-access-path volumes: the paper's evaluation
// question — where do bytes and simulated time go, DGFIndex versus scan
// versus a Hive index — asked of the live serving traffic.
type pathMetrics struct {
	queries     int64
	recordsRead int64
	bytesRead   int64
	simSeconds  float64
}

// pathKey folds an access-path label to bounded cardinality for the per-path
// counters: the shard prefix ("sharded(2/4):dgfindex") and per-query detail
// (index names, partition counts) vary per query and would mint a metric
// series each, so they collapse to their family.
func pathKey(path string) string {
	if i := strings.Index(path, "):"); i >= 0 && strings.HasPrefix(path, "sharded(") {
		path = path[i+2:]
	}
	switch {
	case path == "":
		return "unknown"
	case strings.HasPrefix(path, "index:"):
		return "index"
	case strings.HasPrefix(path, "aggindex-rewrite:"):
		return "aggindex-rewrite"
	case strings.HasPrefix(path, "scan("):
		return "scan"
	}
	return path
}

// metricSet accumulates per-scope query metrics (one instance server-wide,
// one per session). A plain mutex is fine: observation cost is trivial next
// to query execution.
type metricSet struct {
	mu          sync.Mutex
	queries     int64
	errors      int64
	timeouts    int64
	cacheHits   int64
	recordsRead int64
	bytesRead   int64
	rowsOut     int64
	// shufflePairs/shuffleBytes sum the shuffle executed scan jobs were
	// charged for; over queries it reads as shuffle pairs per statement.
	shufflePairs int64
	shuffleBytes int64
	simSeconds   float64
	wallSeconds  float64
	// queueSeconds is time spent waiting for a worker-pool slot, recorded
	// separately so admission pressure is not conflated with execution cost
	// (wallSeconds still covers the full request, queue wait included).
	queueSeconds float64
	hist         []int64 // len(latencyBucketsMs)+1, last is +Inf
	queueHist    []int64 // same bucket bounds, over queue wait
	paths        map[string]*pathMetrics
	lastActive   time.Time
}

func newMetricSet() *metricSet {
	return &metricSet{
		hist:      make([]int64, len(latencyBucketsMs)+1),
		queueHist: make([]int64, len(latencyBucketsMs)+1),
		paths:     make(map[string]*pathMetrics),
	}
}

// histSlot returns the bucket index for a millisecond observation.
func histSlot(ms float64) int {
	for i, le := range latencyBucketsMs {
		if ms <= le {
			return i
		}
	}
	return len(latencyBucketsMs)
}

// observe records one finished query. res may be nil (errors, timeouts);
// queued is the time the request waited for a worker-pool slot (zero for
// requests that never reached admission — parse errors, cache hits).
func (m *metricSet) observe(wall, queued time.Duration, res *hive.Result, cached bool, isTimeout bool, isErr bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries++
	m.lastActive = time.Now()
	m.wallSeconds += wall.Seconds()
	m.queueSeconds += queued.Seconds()
	m.hist[histSlot(float64(wall.Microseconds())/1e3)]++
	m.queueHist[histSlot(float64(queued.Microseconds())/1e3)]++
	switch {
	case isTimeout:
		m.timeouts++
		m.errors++
	case isErr:
		m.errors++
	}
	if cached {
		m.cacheHits++
	}
	if res != nil {
		m.rowsOut += int64(res.Stats.RowsOut)
		// Cluster-side work (records, bytes, simulated seconds) happened
		// only when the query actually ran: a cache hit re-serves rows the
		// cluster already paid for, and must not inflate these totals.
		if !cached {
			m.recordsRead += res.Stats.RecordsRead
			m.bytesRead += res.Stats.BytesRead
			m.shufflePairs += res.Stats.ShufflePairs
			m.shuffleBytes += res.Stats.ShuffleBytes
			m.simSeconds += res.Stats.SimTotalSec()
			key := pathKey(res.Stats.AccessPath)
			pm := m.paths[key]
			if pm == nil {
				pm = &pathMetrics{}
				m.paths[key] = pm
			}
			pm.queries++
			pm.recordsRead += res.Stats.RecordsRead
			pm.bytesRead += res.Stats.BytesRead
			pm.simSeconds += res.Stats.SimTotalSec()
		}
	}
}

// LatencyBucket is one cumulative histogram bucket.
type LatencyBucket struct {
	LeMs  float64 `json:"le_ms"` // 0 marks the +Inf bucket
	Count int64   `json:"count"`
}

// PathSnapshot is the per-access-path slice of a metric scope.
type PathSnapshot struct {
	Path        string  `json:"path"`
	Queries     int64   `json:"queries"`
	RecordsRead int64   `json:"records_read"`
	BytesRead   int64   `json:"bytes_read"`
	SimSeconds  float64 `json:"sim_seconds"`
}

// MetricsSnapshot is a point-in-time copy of a metric scope, JSON-ready for
// the /stats endpoint.
type MetricsSnapshot struct {
	Queries     int64 `json:"queries"`
	Errors      int64 `json:"errors"`
	Timeouts    int64 `json:"timeouts"`
	CacheHits   int64 `json:"cache_hits"`
	RecordsRead int64 `json:"records_read"`
	BytesRead   int64 `json:"bytes_read"`
	RowsOut     int64 `json:"rows_out"`
	// ShufflePairs and ShuffleBytes total the map-to-reduce volume the
	// executed scan jobs were charged for (cache hits excluded).
	ShufflePairs int64 `json:"shuffle_pairs"`
	ShuffleBytes int64 `json:"shuffle_bytes"`
	// SimClusterSeconds is the paper's currency: total simulated cluster
	// time spent answering this scope's queries.
	SimClusterSeconds float64 `json:"sim_cluster_seconds"`
	WallSeconds       float64 `json:"wall_seconds"`
	// QueueWaitSeconds is the share of WallSeconds spent waiting for a
	// worker-pool slot: WallSeconds − QueueWaitSeconds is execution wall.
	QueueWaitSeconds float64         `json:"queue_wait_seconds"`
	LatencyP50Ms     float64         `json:"latency_p50_ms"`
	LatencyP95Ms     float64         `json:"latency_p95_ms"`
	LatencyP99Ms     float64         `json:"latency_p99_ms"`
	Latency          []LatencyBucket `json:"latency_histogram"`
	QueueWait        []LatencyBucket `json:"queue_wait_histogram,omitempty"`
	Paths            []PathSnapshot  `json:"paths,omitempty"`
	LastActive       time.Time       `json:"last_active,omitzero"`
}

func bucketsLocked(hist []int64) []LatencyBucket {
	out := make([]LatencyBucket, 0, len(hist))
	for i, n := range hist {
		le := 0.0 // +Inf bucket
		if i < len(latencyBucketsMs) {
			le = latencyBucketsMs[i]
		}
		out = append(out, LatencyBucket{LeMs: le, Count: n})
	}
	return out
}

func (m *metricSet) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		Queries:           m.queries,
		Errors:            m.errors,
		Timeouts:          m.timeouts,
		CacheHits:         m.cacheHits,
		RecordsRead:       m.recordsRead,
		BytesRead:         m.bytesRead,
		RowsOut:           m.rowsOut,
		ShufflePairs:      m.shufflePairs,
		ShuffleBytes:      m.shuffleBytes,
		SimClusterSeconds: m.simSeconds,
		WallSeconds:       m.wallSeconds,
		QueueWaitSeconds:  m.queueSeconds,
		LastActive:        m.lastActive,
	}
	snap.Latency = bucketsLocked(m.hist)
	snap.QueueWait = bucketsLocked(m.queueHist)
	keys := make([]string, 0, len(m.paths))
	for k := range m.paths {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pm := m.paths[k]
		snap.Paths = append(snap.Paths, PathSnapshot{
			Path: k, Queries: pm.queries, RecordsRead: pm.recordsRead,
			BytesRead: pm.bytesRead, SimSeconds: pm.simSeconds,
		})
	}
	snap.LatencyP50Ms = quantileLocked(m.hist, m.queries, 0.50)
	snap.LatencyP95Ms = quantileLocked(m.hist, m.queries, 0.95)
	snap.LatencyP99Ms = quantileLocked(m.hist, m.queries, 0.99)
	return snap
}

// quantileLocked estimates a latency quantile by linear interpolation within
// the bucket that crosses the target rank. The +Inf bucket reports its lower
// bound (the estimate is then a floor, which is the honest direction).
func quantileLocked(hist []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range hist {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latencyBucketsMs[i-1]
		}
		if i >= len(latencyBucketsMs) {
			return lo
		}
		hi := latencyBucketsMs[i]
		frac := (rank - float64(prev)) / float64(n)
		return lo + (hi-lo)*frac
	}
	// total exceeded the histogram's contents (callers may pass a total
	// tracked outside hist), so the rank landed past every bucket. Report
	// the lower bound of the highest populated bucket — the same floor the
	// +Inf branch above reports — rather than the last finite bound, which
	// overstates wildly when every observation sat in a low bucket (or in
	// +Inf, whose lower bound IS the last finite bound, but only then).
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i] == 0 {
			continue
		}
		if i == 0 {
			return 0
		}
		return latencyBucketsMs[i-1]
	}
	return 0
}
