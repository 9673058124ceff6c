package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// testRouter builds an empty fleet shaped by cfg over warehouses with four
// workers and blockSize-byte blocks.
func testRouter(t *testing.T, cfg shard.Config, blockSize int64) *shard.Router {
	t.Helper()
	cc := cluster.Default()
	cc.Workers = 4
	r, err := shard.New(cfg, func(int) *hive.Warehouse {
		return hive.NewWarehouse(dfs.New(blockSize), cc, "/warehouse")
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// loadMeterdata creates meterdata through r and loads rows into it, applied
// when it returns.
func loadMeterdata(t *testing.T, r *shard.Router, rows []storage.Row) {
	t.Helper()
	if _, err := r.ExecContext(context.Background(), `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, hive.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadRowsDurable(context.Background(), "meterdata", rows, true); err != nil {
		t.Fatal(err)
	}
}

// testServer serves a 1x1 fleet under cfg holding meterdata's 240 base rows.
// The server opens the fleet's engine first, so the base data is in its log.
func testServer(t *testing.T, cfg Config) (*Server, *shard.Router) {
	t.Helper()
	r := testRouter(t, shard.Config{Shards: 1}, 1<<20)
	s := NewWithBackend(r, cfg)
	if err := s.WALError(); err != nil {
		t.Fatal(err)
	}
	loadMeterdata(t, r, meterRows(1, 60, 4, 4))
	return s, r
}

// meterRows builds deterministic readings; user ids start at firstUser.
func meterRows(firstUser, users, regions, days int) []storage.Row {
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(int64(firstUser)))
	var rows []storage.Row
	for d := 0; d < days; d++ {
		for u := firstUser; u < firstUser+users; u++ {
			rows = append(rows, storage.Row{
				storage.Int64(int64(u)),
				storage.Int64(int64(u%regions + 1)),
				storage.Time(base.AddDate(0, 0, d)),
				storage.Float64(math.Round(rng.Float64()*1000) / 100),
			})
		}
	}
	return rows
}

func mustQuery(t *testing.T, s *Server, sql string) *Response {
	t.Helper()
	resp, err := s.Query(context.Background(), Request{SQL: sql})
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return resp
}

// TestConcurrentQueriesWithLoads is the subsystem smoke test: one shared
// Server hammered by parallel SELECTs while LOADs interleave. Row counts
// must always sit on a batch boundary (no torn reads) and the cache must
// never serve a pre-load result after the load.
func TestConcurrentQueriesWithLoads(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 4})
	const perBatch = 60 * 4 // users * days per load batch
	valid := map[int64]bool{}
	for k := 1; k <= 4; k++ {
		valid[int64(k*perBatch)] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				resp, err := s.Query(context.Background(), Request{
					SQL:     `SELECT count(*) FROM meterdata`,
					Session: fmt.Sprintf("client-%d", g),
				})
				if err != nil {
					errs <- err
					return
				}
				n := int64(resp.Result.Rows[0][0].AsFloat())
				if !valid[n] {
					errs <- fmt.Errorf("torn count %d", n)
					return
				}
			}
		}(g)
	}
	for k := 1; k <= 3; k++ {
		if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(1+k*60, 60, 4, 4), false); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	final := mustQuery(t, s, `SELECT count(*) FROM meterdata`)
	if n := int64(final.Result.Rows[0][0].AsFloat()); n != 4*perBatch {
		t.Fatalf("final count %d, want %d", n, 4*perBatch)
	}
	snap := s.Stats()
	if snap.Server.Queries == 0 || len(snap.Sessions) < 6 {
		t.Fatalf("metrics not recorded: %+v", snap.Server)
	}
}

// TestResultCacheHitAndInvalidation: a repeated identical query must hit the
// cache and return identical rows; a LOAD must invalidate so the next run
// reflects the new data.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	s, _ := testServer(t, Config{})
	const q = `SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 10 AND userId <= 50`

	first := mustQuery(t, s, q)
	if first.Cached {
		t.Fatal("first run must miss")
	}
	// Different formatting, same normal form: plan cache + result cache hit.
	second, err := s.Query(context.Background(), Request{
		SQL: "select  SUM(powerconsumed)\nfrom MeterData where userid>=10 and userid <= 50"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second run must hit the result cache")
	}
	if second.Result.Rows[0][0] != first.Result.Rows[0][0] {
		t.Fatal("cached rows differ from computed rows")
	}
	st := s.Stats()
	if st.ResultCache.Hits == 0 {
		t.Fatalf("expected cache hits, got %+v", st.ResultCache)
	}
	// A cache hit re-serves rows without cluster work: sim-seconds and
	// records must reflect one execution, not two.
	if st.Server.SimClusterSeconds != first.Result.Stats.SimTotalSec() {
		t.Fatalf("cache hit inflated sim-seconds: %v != %v",
			st.Server.SimClusterSeconds, first.Result.Stats.SimTotalSec())
	}

	// Invalidating LOAD: users 10..50 gain one more day of readings.
	if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(10, 41, 4, 1), false); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResultCache.Invalidations == 0 {
		t.Fatal("load did not invalidate cached results")
	} else if st.Loads != 1 || st.RowsLoaded != 41 {
		t.Fatalf("load metrics: loads=%d rows=%d, want 1/41", st.Loads, st.RowsLoaded)
	}
	third := mustQuery(t, s, q)
	if third.Cached {
		t.Fatal("post-load run must miss")
	}
	if third.Result.Rows[0][0].AsFloat() <= first.Result.Rows[0][0].AsFloat() {
		t.Fatal("post-load sum should grow (non-negative readings added)")
	}
}

// TestDirectLoadCannotServeStale: a load performed on the warehouse behind
// the server's back bumps table versions, so version-qualified keys make the
// stale entry unreachable even without explicit invalidation.
func TestDirectLoadCannotServeStale(t *testing.T) {
	s, r := testServer(t, Config{})
	w := r.Shard(0)
	const q = `SELECT count(*) FROM meterdata`
	before := mustQuery(t, s, q)
	if err := w.LoadRowsByName("meterdata", meterRows(500, 10, 4, 4)); err != nil {
		t.Fatal(err)
	}
	after := mustQuery(t, s, q)
	if after.Cached {
		t.Fatal("stale cache hit after direct load")
	}
	if after.Result.Rows[0][0].AsFloat() != before.Result.Rows[0][0].AsFloat()+40 {
		t.Fatalf("count %v -> %v, want +40", before.Result.Rows[0][0], after.Result.Rows[0][0])
	}
}

// TestCatalogStatementsNeverCached: SHOW TABLES references no versioned
// table, so a cached copy could go stale across CREATE TABLE. It must bypass
// the result cache and always reflect the live catalog.
func TestCatalogStatementsNeverCached(t *testing.T) {
	s, _ := testServer(t, Config{})
	before := mustQuery(t, s, `SHOW TABLES`)
	if len(before.Result.Rows) != 1 {
		t.Fatalf("want 1 table, got %d", len(before.Result.Rows))
	}
	mustQuery(t, s, `CREATE TABLE audit_log (opId bigint, note string)`)
	after := mustQuery(t, s, `SHOW TABLES`)
	if after.Cached {
		t.Fatal("SHOW TABLES must never be served from cache")
	}
	if len(after.Result.Rows) != 2 {
		t.Fatalf("stale catalog: %d tables after create, want 2", len(after.Result.Rows))
	}
}

func TestAdmissionControl(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	// Occupy the only worker slot and the only queue slot.
	s.sem <- struct{}{}
	if err := s.admit(); err != nil {
		t.Fatal(err)
	}
	if err := s.admit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), Request{SQL: `SHOW TABLES`}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	s.release()
	s.release()
	// Slot still occupied: an admitted query must time out in the queue.
	if _, err := s.Query(context.Background(), Request{SQL: `SHOW TABLES`, Timeout: 20 * time.Millisecond}); !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("want ErrQueryTimeout, got %v", err)
	}
	<-s.sem
	if _, err := s.Query(context.Background(), Request{SQL: `SHOW TABLES`}); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight = %d after quiesce", got)
	}
}

// stalledFleet is a router whose queries never finish on their own: each one
// waits for its ctx to end and returns the ctx's error, as a scan aborted at
// a split boundary does.
type stalledFleet struct{ *shard.Router }

func (stalledFleet) ExecParsedContext(ctx context.Context, _ hive.Stmt, _ hive.ExecOptions) (*hive.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestQueryTimeoutDuringExecution(t *testing.T) {
	// The backend outlives any deadline, so the timeout fires mid-execution
	// deterministically.
	r := testRouter(t, shard.Config{Shards: 1}, 1<<20)
	s := NewWithBackend(stalledFleet{r}, Config{})
	loadMeterdata(t, r, meterRows(1, 60, 4, 4))
	_, err := s.Query(context.Background(), Request{
		SQL:     `SELECT sum(powerConsumed) FROM meterdata`,
		Timeout: 30 * time.Millisecond,
	})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("want ErrQueryTimeout, got %v", err)
	}
	if s.Stats().Server.Timeouts == 0 {
		t.Fatal("timeout not counted")
	}
	// The abandoned worker must still release its slot and admission.
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned query never released admission")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancellationIsNotTimeout: a caller-side cancel (client disconnect)
// must not inflate the timeout counter or map to ErrQueryTimeout.
func TestCancellationIsNotTimeout(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 1})
	s.sem <- struct{}{} // occupy the only slot so the query waits
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Query(ctx, Request{SQL: `SHOW TABLES`})
	<-s.sem
	if err == nil || errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("want cancellation error distinct from timeout, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	st := s.Stats()
	if st.Server.Timeouts != 0 || st.Server.Errors != 1 {
		t.Fatalf("cancel counted wrong: timeouts=%d errors=%d", st.Server.Timeouts, st.Server.Errors)
	}
}

// TestSessionOverflow: untrusted session ids must not grow the session map
// past the cap; the surplus pools into "overflow".
func TestSessionOverflow(t *testing.T) {
	s, _ := testServer(t, Config{})
	for i := 0; i < maxSessions+50; i++ {
		s.Session(fmt.Sprintf("sess-%d", i))
	}
	got := s.Session("one-more")
	if got.ID() != "overflow" {
		t.Fatalf("session past cap = %q, want overflow", got.ID())
	}
	if n := len(s.Stats().Sessions); n > maxSessions+1 {
		t.Fatalf("session map grew to %d, cap is %d+overflow", n, maxSessions)
	}
}

// TestLoadRowsMissingTable: the atomic by-name load surfaces a catalog
// error instead of writing anywhere.
func TestLoadRowsMissingTable(t *testing.T) {
	s, _ := testServer(t, Config{})
	if _, err := s.LoadRowsCtx(context.Background(), "nosuch", meterRows(1, 1, 4, 1), false); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("want missing-table error, got %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mustQuery(t, s, `SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 3`)
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Query(context.Background(), Request{SQL: `SHOW TABLES`}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after drain, got %v", err)
	}
	if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(900, 1, 4, 1), false); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed for load after drain, got %v", err)
	}
}

func TestDDLThroughServerInvalidates(t *testing.T) {
	s, _ := testServer(t, Config{})
	mustQuery(t, s, `SELECT count(*) FROM meterdata`)
	if n := s.Stats().ResultCache.Entries; n != 1 {
		t.Fatalf("cache entries = %d, want 1", n)
	}
	// A DGFIndex build rewrites meterdata: dependent entries must go.
	mustQuery(t, s, `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_20',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed)')`)
	if n := s.Stats().ResultCache.Entries; n != 0 {
		t.Fatalf("cache entries = %d after DDL, want 0", n)
	}
	resp := mustQuery(t, s, `SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 5 AND userId <= 20 AND regionId >= 1 AND regionId <= 4 AND ts >= '2012-12-01' AND ts < '2012-12-03'`)
	if !strings.HasPrefix(resp.Result.Stats.AccessPath, "dgfindex") {
		t.Fatalf("access path %q, want dgfindex", resp.Result.Stats.AccessPath)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, _ := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// POST /query.
	body := `{"sql":"SELECT count(*) FROM meterdata","session":"ops-1"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query status %d", resp.StatusCode)
	}
	var qr struct {
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		RowCount int      `json:"row_count"`
		Session  string   `json:"session"`
		Cached   bool     `json:"cached"`
		Stats    struct {
			AccessPath   string  `json:"access_path"`
			SimTotalSec  float64 `json:"sim_total_sec"`
			RecordsRead  int64   `json:"records_read"`
			Splits       int64   `json:"splits"`
			ShufflePairs int64   `json:"shuffle_pairs"`
			ShuffleBytes int64   `json:"shuffle_bytes"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.RowCount != 1 || qr.Session != "ops-1" || qr.Stats.AccessPath == "" || qr.Stats.SimTotalSec <= 0 {
		t.Fatalf("bad query response: %+v", qr)
	}
	// A scalar aggregate shuffles one pair per split, not one per row.
	if qr.Stats.ShufflePairs != qr.Stats.Splits || qr.Stats.ShuffleBytes <= 0 {
		t.Errorf("shuffle stats %+v, want one pair per split", qr.Stats)
	}
	if n, ok := qr.Rows[0][0].(float64); !ok || n != 240 {
		t.Fatalf("count cell = %v, want 240", qr.Rows[0][0])
	}

	// GET /query repeats from cache.
	resp, err = http.Get(ts.URL + "/query?q=" + strings.ReplaceAll("SELECT count(*) FROM meterdata", " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !qr.Cached {
		t.Fatal("GET repeat should be cached")
	}

	// Bad SQL → 400 with an error payload.
	resp, err = http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"sql":"SELEC nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// /tables.
	resp, err = http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Tables []hive.TableInfo `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tl.Tables) != 1 || tl.Tables[0].Name != "meterdata" || len(tl.Tables[0].Columns) != 4 {
		t.Fatalf("bad /tables: %+v", tl)
	}

	// /stats.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Server.Queries < 2 || snap.Sessions["ops-1"].Queries != 1 {
		t.Fatalf("bad /stats: %+v", snap.Server)
	}

	// /healthz flips to 503 on drain.
	resp, _ = http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.Close(ctx)
	resp, _ = http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after drain %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPAggregatesOverEmptySelection: an average of no rows is NaN, which
// JSON has no number for. The reply carries null in that cell — buffered and
// streamed — instead of a 200 with an empty body, and a grouped aggregate
// over no rows is an empty result.
func TestHTTPAggregatesOverEmptySelection(t *testing.T) {
	s, _ := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(sql, stream string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?no_cache=1" + stream + "&q=" + url.QueryEscape(sql))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%q: status %d, %d-byte body", sql, resp.StatusCode, len(body))
		}
		return string(body)
	}

	const scalar = `SELECT avg(powerConsumed), min(powerConsumed), sum(powerConsumed), count(*) FROM meterdata WHERE userId>=1000`
	const grouped = `SELECT regionId, avg(powerConsumed), min(powerConsumed), sum(powerConsumed) FROM meterdata WHERE userId>=1000 GROUP BY regionId`
	var qr struct {
		Rows     [][]any `json:"rows"`
		RowCount int     `json:"row_count"`
	}
	if err := json.Unmarshal([]byte(get(scalar, "")), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 1 || len(qr.Rows) != 1 || fmt.Sprint(qr.Rows[0]) != "[<nil> 0 0 0]" {
		t.Errorf("scalar aggregates over nothing: %+v, want one row [null 0 0 0]", qr)
	}
	qr.Rows = nil
	if err := json.Unmarshal([]byte(get(grouped, "")), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 0 || len(qr.Rows) != 0 {
		t.Errorf("grouped aggregates over nothing: %+v, want no rows", qr)
	}

	lines := strings.Split(strings.TrimSpace(get(scalar, "&stream=ndjson")), "\n")
	if len(lines) != 3 || lines[1] != "[null,0,0,0]" || !strings.Contains(lines[2], `"done":true`) {
		t.Errorf("streamed scalar aggregates over nothing: %q", lines)
	}
	lines = strings.Split(strings.TrimSpace(get(grouped, "&stream=ndjson")), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"row_count":0`) {
		t.Errorf("streamed grouped aggregates over nothing: %q", lines)
	}
}

// TestWriteJSONEncodeFailureIs500: a value encoding/json refuses must not
// leave the client with a success status and no body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"cell": math.NaN()})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(e.Error, "NaN") {
		t.Errorf("status %d, error %q; want 500 naming the unsupported value", rec.Code, e.Error)
	}
}

// TestResultCacheByteBudget: with MaxResultBytes set, the cache evicts
// LRU-first to stay under the payload budget instead of keeping a fixed
// entry count, and a single result bigger than the whole budget is never
// cached.
func TestResultCacheByteBudget(t *testing.T) {
	s, _ := testServer(t, Config{MaxResultBytes: 2000})
	// Each per-user query returns 4 rows (~750 bytes with key overhead):
	// two fit the budget, more force evictions.
	for u := 1; u <= 6; u++ {
		mustQuery(t, s, fmt.Sprintf(`SELECT userId, powerConsumed FROM meterdata WHERE userId = %d`, u))
	}
	st := s.Stats().ResultCache
	if st.MaxBytes != 2000 {
		t.Fatalf("MaxBytes = %d, want 2000", st.MaxBytes)
	}
	if st.SizeBytes <= 0 || st.SizeBytes > st.MaxBytes {
		t.Fatalf("SizeBytes = %d, want within (0, %d]", st.SizeBytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected byte-budget evictions, got %+v", st)
	}
	if st.Entries >= 6 {
		t.Fatalf("cache kept all %d entries despite the byte budget", st.Entries)
	}

	// A 240-row full-table result exceeds the budget on its own: it must
	// not be cached (a repeat recomputes).
	mustQuery(t, s, `SELECT * FROM meterdata`)
	if again := mustQuery(t, s, `SELECT * FROM meterdata`); again.Cached {
		t.Fatal("oversized result was cached despite exceeding MaxResultBytes")
	}
}

// TestLoadEndpoint: collectors push readings over POST /load as JSON or
// CSV; rows decode against the table schema, route through LoadRows, and
// the response reports the invalidation churn.
func TestLoadEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prime the cache so the load has something to invalidate.
	before := mustQuery(t, s, `SELECT count(*) FROM meterdata`)
	baseCount := before.Result.Rows[0][0].AsFloat()

	// JSON body: numbers for bigint/double, strings for timestamps.
	body := `{"table":"meterdata","rows":[[501,1,"2012-12-20 00:00:00",5.5],[502,2,"2012-12-20 00:15:00",6.25]]}`
	resp, err := http.Post(ts.URL+"/load", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var lr struct {
		Table       string `json:"table"`
		RowsLoaded  int    `json:"rows_loaded"`
		Invalidated int    `json:"invalidated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lr.RowsLoaded != 2 || lr.Table != "meterdata" {
		t.Fatalf("JSON load: status %d, %+v", resp.StatusCode, lr)
	}
	if lr.Invalidated == 0 {
		t.Fatal("load did not report invalidated cache entries")
	}

	// CSV body with the table in the query string.
	resp, err = http.Post(ts.URL+"/load?table=meterdata", "text/csv",
		strings.NewReader("503,3,2012-12-21 00:00:00,7.5\n504,4,2012-12-21 00:15:00,8.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lr.RowsLoaded != 2 {
		t.Fatalf("CSV load: status %d, %+v", resp.StatusCode, lr)
	}

	after := mustQuery(t, s, `SELECT count(*) FROM meterdata`)
	if got := after.Result.Rows[0][0].AsFloat(); got != baseCount+4 {
		t.Fatalf("count %v -> %v, want +4", baseCount, got)
	}
	snap := s.Stats()
	if snap.Loads != 2 || snap.RowsLoaded != 4 || snap.ResultInvalidations == 0 {
		t.Fatalf("load metrics: %+v", snap)
	}

	// Error paths: wrong arity, unknown table, missing rows.
	for _, bad := range []string{
		`{"table":"meterdata","rows":[[1,2]]}`,
		`{"table":"nosuch","rows":[[1,2,"2012-12-20",1.0]]}`,
		`{"table":"meterdata"}`,
	} {
		resp, err := http.Post(ts.URL+"/load", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad load %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
