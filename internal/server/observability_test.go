package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// TestQuantileFallback pins the two degenerate histogram shapes down:
// observations entirely in the +Inf bucket report that bucket's lower bound
// (the last finite bound), and a total larger than the histogram's contents
// — the fallback path — reports the highest populated bucket's lower bound
// instead of unconditionally claiming the last finite bound.
func TestQuantileFallback(t *testing.T) {
	slots := len(latencyBucketsMs) + 1
	lastBound := latencyBucketsMs[len(latencyBucketsMs)-1]

	// Everything in +Inf: every quantile is "at least lastBound".
	hist := make([]int64, slots)
	hist[slots-1] = 7
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got := quantileLocked(hist, 7, q); got != lastBound {
			t.Fatalf("all-+Inf q%.2f = %v, want %v", q, got, lastBound)
		}
	}

	// Inflated total with observations in a low bucket: the rank lands past
	// every bucket, and the fallback must report the populated bucket's lower
	// bound (1ms for the (1,2] bucket), not 5000ms.
	hist = make([]int64, slots)
	hist[1] = 3
	if got := quantileLocked(hist, 100, 0.99); got != latencyBucketsMs[0] {
		t.Fatalf("inflated-total fallback = %v, want %v", got, latencyBucketsMs[0])
	}
	// Same shape, first bucket: its lower bound is 0.
	hist = make([]int64, slots)
	hist[0] = 3
	if got := quantileLocked(hist, 100, 0.99); got != 0 {
		t.Fatalf("inflated-total first-bucket fallback = %v, want 0", got)
	}
	// Empty histogram (with and without a claimed total) reports 0.
	if got := quantileLocked(make([]int64, slots), 5, 0.5); got != 0 {
		t.Fatalf("empty hist with total = %v, want 0", got)
	}
	if got := quantileLocked(make([]int64, slots), 0, 0.5); got != 0 {
		t.Fatalf("empty hist = %v, want 0", got)
	}
}

// TestAdmissionWaitSeparateFromWall saturates a one-worker pool and checks
// the queue wait lands in QueueWaitSeconds — inside the full wall, but
// reported on its own so admission pressure is distinguishable from slow
// execution.
func TestAdmissionWaitSeparateFromWall(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 1})
	s.sem <- struct{}{} // occupy the only worker slot
	done := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), Request{SQL: `SHOW TABLES`})
		done <- err
	}()
	time.Sleep(60 * time.Millisecond) // the query queues on the saturated pool
	<-s.sem                           // free the slot; the queued query runs
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	m := s.Stats().Server
	if m.QueueWaitSeconds < 0.04 {
		t.Fatalf("QueueWaitSeconds = %v, want >= 0.04 (query waited ~60ms)", m.QueueWaitSeconds)
	}
	if m.WallSeconds < m.QueueWaitSeconds {
		t.Fatalf("wall %v must include queue wait %v", m.WallSeconds, m.QueueWaitSeconds)
	}
	var queueObs int64
	for _, b := range m.QueueWait {
		queueObs += b.Count
	}
	if queueObs != m.Queries {
		t.Fatalf("queue-wait histogram holds %d observations, want %d (one per query)", queueObs, m.Queries)
	}
}

// TestMetricsCoherenceUnderConcurrency hammers Query, QueryStream, and
// Stats from parallel goroutines (run under -race in CI) and checks the
// counters stay coherent: queries == successes + errors as counted by the
// callers, and the latency histogram holds exactly one observation per query.
func TestMetricsCoherenceUnderConcurrency(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 4})
	var ok, errs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := fmt.Sprintf("racer-%d", g)
			for i := 0; i < 12; i++ {
				switch i % 3 {
				case 0: // plain query (cache hits count as queries too)
					if _, err := s.Query(context.Background(), Request{SQL: `SELECT count(*) FROM meterdata`, Session: sess}); err != nil {
						errs.Add(1)
					} else {
						ok.Add(1)
					}
				case 1: // streaming query, drained then closed
					st, err := s.QueryStream(context.Background(), Request{SQL: `SELECT userId FROM meterdata WHERE userId <= 5`, Session: sess})
					if err != nil {
						errs.Add(1)
						continue
					}
					for st.Next() {
					}
					if st.Err() != nil {
						errs.Add(1)
					} else {
						ok.Add(1)
					}
					st.Close()
				case 2: // execution error
					if _, err := s.Query(context.Background(), Request{SQL: `SELECT count(*) FROM nosuch`, Session: sess}); err != nil {
						errs.Add(1)
					} else {
						ok.Add(1)
					}
				}
				if i%4 == 0 {
					s.Stats() // concurrent snapshots must never tear
				}
			}
		}(g)
	}
	wg.Wait()

	m := s.Stats().Server
	if m.Queries != ok.Load()+errs.Load() {
		t.Fatalf("queries = %d, want successes %d + errors %d", m.Queries, ok.Load(), errs.Load())
	}
	if m.Errors != errs.Load() {
		t.Fatalf("errors = %d, want %d", m.Errors, errs.Load())
	}
	var histObs int64
	for _, b := range m.Latency {
		histObs += b.Count
	}
	if histObs != m.Queries {
		t.Fatalf("latency histogram holds %d observations, want %d", histObs, m.Queries)
	}
}

// famValue returns the single sample of a one-sample metric family.
func famValue(t *testing.T, fams map[string]*trace.MetricFamily, name string) float64 {
	t.Helper()
	fam := fams[name]
	if fam == nil {
		t.Fatalf("metric family %s missing", name)
	}
	if len(fam.Samples) != 1 {
		t.Fatalf("family %s has %d samples, want 1", name, len(fam.Samples))
	}
	return fam.Samples[0].Value
}

// TestMetricsEndpointMatchesStats scrapes GET /metrics from a live test
// server, validates the body with the in-repo Prometheus text parser (which
// enforces TYPE lines, label syntax, and histogram invariants), and checks
// the exposed counters agree with the /stats snapshot.
func TestMetricsEndpointMatchesStats(t *testing.T) {
	s, _ := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustQuery(t, s, `SELECT count(*) FROM meterdata`)
	mustQuery(t, s, `SELECT count(*) FROM meterdata`) // result-cache hit
	s.Query(context.Background(), Request{SQL: `SELECT count(*) FROM nosuch`})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := trace.ParseMetrics(string(body))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v\n%s", err, body)
	}

	snap := s.Stats()
	m := snap.Server
	for name, want := range map[string]float64{
		"dgf_queries_total":           float64(m.Queries),
		"dgf_query_errors_total":      float64(m.Errors),
		"dgf_cache_hits_total":        float64(m.CacheHits),
		"dgf_records_read_total":      float64(m.RecordsRead),
		"dgf_bytes_read_total":        float64(m.BytesRead),
		"dgf_shuffle_pairs_total":     float64(m.ShufflePairs),
		"dgf_shuffle_bytes_total":     float64(m.ShuffleBytes),
		"dgf_rows_out_total":          float64(m.RowsOut),
		"dgf_result_cache_hits_total": float64(snap.ResultCache.Hits),
		"dgf_in_flight":               0,
	} {
		if got := famValue(t, fams, name); got != want {
			t.Errorf("%s = %v, /stats says %v", name, got, want)
		}
	}

	// One aggregate ran (the repeat was a cache hit): it was charged one
	// shuffle pair per split.
	if m.ShufflePairs <= 0 || m.ShuffleBytes <= 0 {
		t.Errorf("shuffle totals %d pairs, %d bytes after an executed aggregate", m.ShufflePairs, m.ShuffleBytes)
	}

	// The latency histogram's _count must equal the query counter (the
	// parser already verified buckets are cumulative and _sum is present).
	lat := fams["dgf_query_latency_ms"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("dgf_query_latency_ms missing or not a histogram: %+v", lat)
	}
	for _, sm := range lat.Samples {
		if sm.Name == "dgf_query_latency_ms_count" && sm.Value != float64(m.Queries) {
			t.Errorf("latency _count = %v, want %v", sm.Value, m.Queries)
		}
	}

	// Per-path counters cover exactly the executed, uncached queries.
	paths := fams["dgf_path_queries_total"]
	if paths == nil {
		t.Fatal("dgf_path_queries_total missing")
	}
	var pathTotal float64
	for _, sm := range paths.Samples {
		if sm.Labels["path"] == "" {
			t.Errorf("path sample without path label: %+v", sm)
		}
		pathTotal += sm.Value
	}
	if want := float64(m.Queries - m.CacheHits - m.Errors); pathTotal != want {
		t.Errorf("sum of per-path queries = %v, want %v (executed uncached)", pathTotal, want)
	}
}

// TestFlightRecorderEndpoint: errored queries always land in the recorder;
// GET /debug/slow serves them newest-first with their span trees.
func TestFlightRecorderEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{TraceRingSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mustQuery(t, s, `SELECT count(*) FROM meterdata`) // fast and clean: not recorded
	s.Query(context.Background(), Request{SQL: `SELECT count(*) FROM nosuch`, Session: "ops-2"})

	recs := s.SlowTraces()
	if len(recs) != 1 {
		t.Fatalf("recorder holds %d records, want 1 (the errored query)", len(recs))
	}
	rec := recs[0]
	if rec.Error == "" || rec.Slow || rec.Session != "ops-2" {
		t.Fatalf("bad record: %+v", rec)
	}
	if rec.Trace.Name != "query" || rec.Trace.Find("plan") == nil {
		t.Fatalf("record trace lacks the query/plan spans: %+v", rec.Trace)
	}

	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/slow status %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`FROM nosuch`, `"ring_size":4`, `"name":"query"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/debug/slow missing %s:\n%s", want, body)
		}
	}
}

// shardedServer builds a Server over a 4-shard, 2-replica fleet loaded with
// the meter workload (small blocks, so scans cross many split boundaries and
// a mid-query kill has a window to land in). The server opens the fleet's
// engine before the base data, so its 1,920 rows are in the engine's logs.
func shardedServer(t *testing.T, cfg Config) (*Server, *shard.Router) {
	t.Helper()
	r := testRouter(t, shard.Config{Shards: 4, Replicas: 2, Key: "userId"}, 1<<14)
	s := NewWithBackend(r, cfg)
	loadMeterdata(t, r, meterRows(1, 80, 4, 6))
	return s, r
}

// TestTraceEndToEndSharded is the span-tree acceptance check on a replicated
// fleet: the root's wall equals the response's measured wall, and the
// per-shard child spans' bytes_read attributes sum to the merged query's
// BytesRead exactly.
func TestTraceEndToEndSharded(t *testing.T) {
	s, _ := shardedServer(t, Config{CacheEntries: -1})
	resp, err := s.Query(context.Background(), Request{
		SQL:   `SELECT sum(powerConsumed), count(*) FROM meterdata WHERE userId >= 1 AND userId <= 80`,
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("Trace requested but response carries no span tree")
	}
	root := resp.Trace
	if root.Name != "query" {
		t.Fatalf("root span %q, want query", root.Name)
	}
	respWallMs := float64(resp.Wall.Microseconds()) / 1e3
	if diff := math.Abs(root.WallMs - respWallMs); diff > 1 {
		t.Fatalf("root wall %.3fms vs response wall %.3fms: off by %.3fms", root.WallMs, respWallMs, diff)
	}
	for _, name := range []string{"plan", "admission", "scatter"} {
		if root.Find(name) == nil {
			t.Fatalf("span %q missing from tree", name)
		}
	}

	scatter := root.Find("scatter")
	var sumBytes int64
	shardSpans := 0
	for i := range scatter.Children {
		c := &scatter.Children[i]
		if !strings.HasPrefix(c.Name, "shard ") {
			continue
		}
		shardSpans++
		b, err := strconv.ParseInt(c.Attr("bytes_read"), 10, 64)
		if err != nil {
			t.Fatalf("span %s bytes_read %q: %v", c.Name, c.Attr("bytes_read"), err)
		}
		sumBytes += b
		if c.Attr("replica") == "" || c.Attr("access_path") == "" {
			t.Fatalf("span %s lacks replica/access_path attrs: %+v", c.Name, c.Attrs)
		}
	}
	if shardSpans != 4 {
		t.Fatalf("scatter has %d shard spans, want 4", shardSpans)
	}
	if sumBytes != resp.Result.Stats.BytesRead {
		t.Fatalf("shard spans' bytes sum to %d, query BytesRead is %d", sumBytes, resp.Result.Stats.BytesRead)
	}
}

// TestTraceFailoverEventOnReplicaKill kills a replica while it is executing
// its shard's partial; the query must still succeed (failover to the
// sibling) and the trace must show the retry as a "replica N failed" event.
// The kill is timed by polling replica health for in-flight work, so the
// test retries until a kill actually lands mid-query.
func TestTraceFailoverEventOnReplicaKill(t *testing.T) {
	s, r := shardedServer(t, Config{CacheEntries: -1})
	const sql = `SELECT sum(powerConsumed), count(*) FROM meterdata WHERE userId >= 1 AND userId <= 80`

	for attempt := 0; attempt < 10; attempt++ {
		type out struct {
			resp *Response
			err  error
		}
		ch := make(chan out, 1)
		go func() {
			resp, err := s.Query(context.Background(), Request{SQL: sql, Trace: true})
			ch <- out{resp, err}
		}()

		// Catch any replica with in-flight work and kill it under the query.
		killedShard, killedRep := -1, -1
		deadline := time.Now().Add(2 * time.Second)
	hunt:
		for time.Now().Before(deadline) {
			for _, sh := range r.Health() {
				for _, rep := range sh.Detail {
					if rep.Inflight > 0 {
						killedShard, killedRep = sh.Shard, rep.Replica
						r.Kill(killedShard, killedRep)
						break hunt
					}
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
		res := <-ch
		if killedShard >= 0 {
			r.Revive(killedShard, killedRep)
		}
		if res.err != nil {
			t.Fatalf("query must survive a single-replica kill: %v", res.err)
		}
		if killedShard < 0 {
			continue // the query outran the health poll; try again
		}
		found := false
		res.resp.Trace.Walk(func(sn *trace.SpanSnapshot) {
			for _, e := range sn.Events {
				if strings.Contains(e.Msg, fmt.Sprintf("replica %d failed", killedRep)) {
					found = true
				}
			}
		})
		if found {
			return
		}
		// The kill landed after the replica's partial finished: no failover
		// happened, which is fine — retry for a mid-flight hit.
	}
	t.Fatal("no attempt caught a mid-query replica kill with a failover event")
}

// TestTraceOverHTTP: the trace=1 query parameter returns the span tree in
// the JSON response; without it the field is absent.
func TestTraceOverHTTP(t *testing.T) {
	s, _ := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(q string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d: %s", q, resp.StatusCode, body)
		}
		return string(body)
	}
	url := "/query?q=" + strings.ReplaceAll("SELECT count(*) FROM meterdata", " ", "+")
	if body := get(url + "&trace=1"); !strings.Contains(body, `"trace"`) || !strings.Contains(body, `"name":"query"`) {
		t.Fatalf("traced response lacks the span tree:\n%s", body)
	}
	if body := get(url); strings.Contains(body, `"trace"`) {
		t.Fatalf("untraced response must omit the trace field:\n%s", body)
	}
}
