package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/shard"
)

// TestMetricsVocabulary pins the whole /metrics vocabulary of a 2x2 fleet
// behind a log directory: every # HELP and # TYPE line, in order, and every
// sample's name and label-key set, with label values and sample values
// masked. It scrapes after a query, a result-cache hit, an error and a load,
// so every family has its samples. A family, help text or label set that
// moves, appears or disappears fails here.
func TestMetricsVocabulary(t *testing.T) {
	r := testRouter(t, shard.Config{Shards: 2, Replicas: 2, Key: "userId"}, 1<<14)
	s := NewWithBackend(r, Config{WALDir: t.TempDir(), FsyncPolicy: "off"})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	if err := s.WALError(); err != nil {
		t.Fatal(err)
	}
	loadMeterdata(t, r, meterRows(1, 40, 4, 3))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustQuery(t, s, `SELECT count(*) FROM meterdata`)
	if resp := mustQuery(t, s, `SELECT count(*) FROM meterdata`); !resp.Cached {
		t.Fatal("the repeated query was not a result-cache hit")
	}
	if _, err := s.Query(context.Background(), Request{SQL: `SELECT count(*) FROM nosuch`}); err == nil {
		t.Fatal("a query on a missing table succeeded")
	}
	if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(100, 8, 4, 1), true); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := maskMetrics(string(body))
	want := strings.Split(strings.TrimPrefix(wantVocabulary, "\n"), "\n")
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("/metrics differs from the pinned vocabulary at line %d\nmasked scrape:\n%s", i+1, strings.Join(got, "\n"))
		}
	}
}

// labelPair matches one label of a sample line; group 1 is its key.
var labelPair = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// maskMetrics keeps comment lines as they are and reduces each sample line
// to its name and label keys: `name{k1,k2}`, or `name` with no labels.
func maskMetrics(text string) []string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:max(strings.LastIndexByte(line, ' '), 0)]
		name, labels, ok := strings.Cut(series, "{")
		if ok {
			var keys []string
			for _, m := range labelPair.FindAllStringSubmatch(labels, -1) {
				keys = append(keys, m[1])
			}
			name += "{" + strings.Join(keys, ",") + "}"
		}
		lines[i] = name
	}
	return lines
}

const wantVocabulary = `
# HELP dgf_uptime_seconds Seconds since the server started.
# TYPE dgf_uptime_seconds gauge
dgf_uptime_seconds
# HELP dgf_draining 1 while the server is draining for shutdown.
# TYPE dgf_draining gauge
dgf_draining
# HELP dgf_in_flight Admitted queries not yet finished (queued or executing).
# TYPE dgf_in_flight gauge
dgf_in_flight
# HELP dgf_admission_queue_depth Admitted queries waiting for a worker slot.
# TYPE dgf_admission_queue_depth gauge
dgf_admission_queue_depth
# HELP dgf_rejected_total Queries rejected because the admission queue was full.
# TYPE dgf_rejected_total counter
dgf_rejected_total
# HELP dgf_loads_total Row-load requests served.
# TYPE dgf_loads_total counter
dgf_loads_total
# HELP dgf_rows_loaded_total Rows ingested by load requests.
# TYPE dgf_rows_loaded_total counter
dgf_rows_loaded_total
# HELP dgf_result_invalidations_total Cached results evicted because a table they read mutated.
# TYPE dgf_result_invalidations_total counter
dgf_result_invalidations_total
# HELP dgf_slow_traces_total Slow or errored queries captured by the flight recorder.
# TYPE dgf_slow_traces_total counter
dgf_slow_traces_total
# HELP dgf_queries_total Queries observed (successes and errors).
# TYPE dgf_queries_total counter
dgf_queries_total
# HELP dgf_query_errors_total Queries that returned an error (timeouts included).
# TYPE dgf_query_errors_total counter
dgf_query_errors_total
# HELP dgf_query_timeouts_total Queries that missed their deadline.
# TYPE dgf_query_timeouts_total counter
dgf_query_timeouts_total
# HELP dgf_cache_hits_total Queries served from the result cache.
# TYPE dgf_cache_hits_total counter
dgf_cache_hits_total
# HELP dgf_records_read_total Records scanned by executed queries (cache hits excluded).
# TYPE dgf_records_read_total counter
dgf_records_read_total
# HELP dgf_bytes_read_total Bytes read by executed queries (cache hits excluded).
# TYPE dgf_bytes_read_total counter
dgf_bytes_read_total
# HELP dgf_shuffle_pairs_total Shuffle pairs executed scan jobs were charged for (cache hits excluded).
# TYPE dgf_shuffle_pairs_total counter
dgf_shuffle_pairs_total
# HELP dgf_shuffle_bytes_total Key and value bytes of those pairs.
# TYPE dgf_shuffle_bytes_total counter
dgf_shuffle_bytes_total
# HELP dgf_rows_out_total Result rows returned to clients.
# TYPE dgf_rows_out_total counter
dgf_rows_out_total
# HELP dgf_sim_cluster_seconds_total Simulated cluster seconds spent executing queries.
# TYPE dgf_sim_cluster_seconds_total counter
dgf_sim_cluster_seconds_total
# HELP dgf_query_latency_ms End-to-end query wall latency in milliseconds.
# TYPE dgf_query_latency_ms histogram
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_bucket{le}
dgf_query_latency_ms_sum
dgf_query_latency_ms_count
# HELP dgf_admission_wait_ms Time queries spent waiting for a worker slot, in milliseconds.
# TYPE dgf_admission_wait_ms histogram
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_bucket{le}
dgf_admission_wait_ms_sum
dgf_admission_wait_ms_count
# HELP dgf_path_queries_total Executed queries by access path.
# TYPE dgf_path_queries_total counter
dgf_path_queries_total{path}
# HELP dgf_path_records_read_total Records scanned by access path.
# TYPE dgf_path_records_read_total counter
dgf_path_records_read_total{path}
# HELP dgf_path_bytes_read_total Bytes read by access path.
# TYPE dgf_path_bytes_read_total counter
dgf_path_bytes_read_total{path}
# HELP dgf_path_sim_seconds_total Simulated cluster seconds by access path.
# TYPE dgf_path_sim_seconds_total counter
dgf_path_sim_seconds_total{path}
# HELP dgf_result_cache_entries Results currently cached.
# TYPE dgf_result_cache_entries gauge
dgf_result_cache_entries
# HELP dgf_result_cache_hits_total Result-cache lookups that hit.
# TYPE dgf_result_cache_hits_total counter
dgf_result_cache_hits_total
# HELP dgf_result_cache_misses_total Result-cache lookups that missed.
# TYPE dgf_result_cache_misses_total counter
dgf_result_cache_misses_total
# HELP dgf_result_cache_evictions_total Results evicted by capacity pressure.
# TYPE dgf_result_cache_evictions_total counter
dgf_result_cache_evictions_total
# HELP dgf_shard_live_replicas Live replicas per shard.
# TYPE dgf_shard_live_replicas gauge
dgf_shard_live_replicas{shard}
dgf_shard_live_replicas{shard}
# HELP dgf_replica_live 1 when the replica is live (not killed).
# TYPE dgf_replica_live gauge
dgf_replica_live{replica,shard}
dgf_replica_live{replica,shard}
dgf_replica_live{replica,shard}
dgf_replica_live{replica,shard}
# HELP dgf_replica_inflight Requests currently executing on the replica.
# TYPE dgf_replica_inflight gauge
dgf_replica_inflight{replica,shard}
dgf_replica_inflight{replica,shard}
dgf_replica_inflight{replica,shard}
dgf_replica_inflight{replica,shard}
# HELP dgf_wal_rows_applied_total Rows the load engine's appliers wrote into the shards' warehouses.
# TYPE dgf_wal_rows_applied_total counter
dgf_wal_rows_applied_total
# HELP dgf_wal_replayed_rows_total Rows replayed into the warehouses from the logs at recovery.
# TYPE dgf_wal_replayed_rows_total counter
dgf_wal_replayed_rows_total
# HELP dgf_wal_pending_records Committed records not yet applied on the shard (ingest backlog depth).
# TYPE dgf_wal_pending_records gauge
dgf_wal_pending_records{replica,shard}
dgf_wal_pending_records{replica,shard}
# HELP dgf_wal_last_lsn Highest log sequence number appended to the shard's log.
# TYPE dgf_wal_last_lsn gauge
dgf_wal_last_lsn{replica,shard}
dgf_wal_last_lsn{replica,shard}
# HELP dgf_wal_applied_lsn Highest log sequence number applied on the shard (lag = last_lsn - applied_lsn).
# TYPE dgf_wal_applied_lsn gauge
dgf_wal_applied_lsn{replica,shard}
dgf_wal_applied_lsn{replica,shard}`
