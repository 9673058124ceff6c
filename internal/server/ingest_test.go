package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// postLoad POSTs a body to /load and returns the status code and decoded
// JSON body (loadResponse fields on success, {"error": ...} on failure).
func postLoad(t *testing.T, url, contentType string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("non-JSON /load response (%d): %s", resp.StatusCode, raw)
	}
	return resp.StatusCode, out
}

// jsonLoadBody renders n meterdata rows as a POST /load JSON body.
func jsonLoadBody(t *testing.T, firstUser, n int) []byte {
	t.Helper()
	rows := meterRows(firstUser, n, 4, 1)
	req := loadRequest{Table: "meterdata"}
	for _, row := range rows {
		req.Rows = append(req.Rows, []any{row[0].I, row[1].I, row[2].I, row[3].F})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// csvLoadBody renders n meterdata rows as CSV lines for ?table=meterdata.
func csvLoadBody(firstUser, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		u := firstUser + i
		fmt.Fprintf(&b, "%d,%d,%d,%g\n", u, u%4+1, 1354320000+i, 3.25)
	}
	return b.Bytes()
}

// TestLoadBodyTooLarge: bodies above Config.MaxLoadBytes are refused with
// 413 and a clear error on both the JSON and CSV paths — never silently
// truncated to a loadable prefix.
func TestLoadBodyTooLarge(t *testing.T) {
	s, _ := testServer(t, Config{MaxLoadBytes: 512})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := jsonLoadBody(t, 1000, 100)
	if int64(len(big)) <= 512 {
		t.Fatalf("test body is only %d bytes, need > 512", len(big))
	}
	code, out := postLoad(t, ts.URL+"/load", "application/json", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON load: status %d, want 413 (%v)", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "512-byte limit") {
		t.Fatalf("413 error should name the limit, got %q", out["error"])
	}

	bigCSV := csvLoadBody(1000, 100)
	if int64(len(bigCSV)) <= 512 {
		t.Fatalf("test CSV body is only %d bytes, need > 512", len(bigCSV))
	}
	code, out = postLoad(t, ts.URL+"/load?table=meterdata", "text/csv", bigCSV)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized CSV load: status %d, want 413 (%v)", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "request body too large") {
		t.Fatalf("CSV 413 error unclear: %q", out["error"])
	}

	// Nothing was loaded by the refused requests.
	if got := s.Stats().RowsLoaded; got != 0 {
		t.Fatalf("refused loads still loaded %d rows", got)
	}

	// A body under the bound passes on both paths.
	small := jsonLoadBody(t, 2000, 2)
	if code, out := postLoad(t, ts.URL+"/load", "application/json", small); code != http.StatusOK {
		t.Fatalf("small JSON load: status %d (%v)", code, out)
	}
	if code, out := postLoad(t, ts.URL+"/load?table=meterdata", "text/csv", csvLoadBody(2100, 2)); code != http.StatusOK {
		t.Fatalf("small CSV load: status %d (%v)", code, out)
	}
	if got := s.Stats().RowsLoaded; got != 4 {
		t.Fatalf("loaded %d rows, want 4", got)
	}
}

// walServer builds a sharded server with durable ingest enabled over a
// temp log dir.
func walServer(t *testing.T, cfg Config) (*Server, *shard.Router) {
	t.Helper()
	cfg.WALDir = t.TempDir()
	if cfg.FsyncPolicy == "" {
		cfg.FsyncPolicy = "off"
	}
	s, r := shardedServer(t, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, r
}

// TestLoadSyncAndAsyncOverHTTP: POST /load on a WAL fleet acks as "logged"
// with an LSN; ?sync=1 acks "applied" and the rows are immediately
// queryable. After draining, every async-acked row is visible too.
func TestLoadSyncAndAsyncOverHTTP(t *testing.T) {
	s, r := walServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := mustQuery(t, s, `SELECT count(*) FROM meterdata`).Result.Rows[0][0].AsFloat()

	code, out := postLoad(t, ts.URL+"/load", "application/json", jsonLoadBody(t, 500, 8))
	if code != http.StatusOK {
		t.Fatalf("async load: status %d (%v)", code, out)
	}
	if out["durability"] != "logged" {
		t.Fatalf("async load durability = %v, want logged", out["durability"])
	}
	if lsn, _ := out["lsn"].(float64); lsn < 1 {
		t.Fatalf("async load lsn = %v, want >= 1", out["lsn"])
	}

	code, out = postLoad(t, ts.URL+"/load?sync=1", "application/json", jsonLoadBody(t, 600, 8))
	if code != http.StatusOK {
		t.Fatalf("sync load: status %d (%v)", code, out)
	}
	if out["durability"] != "applied" {
		t.Fatalf("sync load durability = %v, want applied", out["durability"])
	}

	// The sync-acked batch is queryable now; after a drain both are.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.DrainWAL(ctx); err != nil {
		t.Fatal(err)
	}
	got := mustQuery(t, s, `SELECT count(*) FROM meterdata`).Result.Rows[0][0].AsFloat()
	if want := base + 16; got != want {
		t.Fatalf("count after drain = %v, want %v", got, want)
	}
}

// TestCacheInvalidationAtApplyTime: an async-acked load must not leave a
// stale cached count behind once its rows apply — the OnApply hook evicts
// dependent results when the rows actually land.
func TestCacheInvalidationAtApplyTime(t *testing.T) {
	s, r := walServer(t, Config{})
	base := mustQuery(t, s, `SELECT count(*) FROM meterdata`).Result.Rows[0][0].AsFloat()

	if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(700, 10, 4, 1), false); err != nil {
		t.Fatal(err)
	}
	// Query immediately: may race the appliers and cache a pre-apply count.
	mustQuery(t, s, `SELECT count(*) FROM meterdata`)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.DrainWAL(ctx); err != nil {
		t.Fatal(err)
	}
	// OnApply fires just after the applied watermark advances, so give the
	// eviction a moment; the cached pre-apply count must not survive it.
	want := base + 10
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := mustQuery(t, s, `SELECT count(*) FROM meterdata`).Result.Rows[0][0].AsFloat()
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("count stuck at %v, want %v (stale cache not invalidated at apply time)", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Stats().RowsApplied; got < 10 {
		t.Fatalf("rows_applied = %d, want >= 10 (OnApply hook did not run)", got)
	}
}

// gatedFleet is a real router with two injection points: once gated is
// set, every apply-time hook parks until released (an apply barrier: rows
// have landed on the shard, its invalidation has not fired, and its applier
// cannot take the next batch), and afterExec runs after a query's scatter
// has read the shards but before the server sees the result.
type gatedFleet struct {
	*shard.Router
	gated     atomic.Bool
	entered   chan struct{} // one token per OnApply that parked
	release   chan struct{} // one token (or close) lets a parked OnApply run
	done      chan struct{} // one token per OnApply that finished
	afterExec func()
}

func (g *gatedFleet) EnableWAL(cfg wal.Options) error {
	onApply := cfg.OnApply
	cfg.OnApply = func(table string, rows int) {
		if !g.gated.Load() {
			onApply(table, rows)
			return
		}
		g.entered <- struct{}{}
		<-g.release
		onApply(table, rows)
		g.done <- struct{}{}
	}
	return g.Router.EnableWAL(cfg)
}

func (g *gatedFleet) ExecParsedContext(ctx context.Context, stmt hive.Stmt, opts hive.ExecOptions) (*hive.Result, error) {
	res, err := g.Router.ExecParsedContext(ctx, stmt, opts)
	if f := g.afterExec; f != nil {
		g.afterExec = nil
		f()
	}
	return res, err
}

// TestCacheInvalidationOvertakenPut pins the stale-put race down with an
// apply barrier instead of waiting for it: the cache key is built and the
// query reads the shard with one batch applied and the next one logged, the
// next batch's apply and its invalidation fire while the query is still in
// flight, and only then does the server store the result. The next query
// has to miss and count the new rows: the apply moved the table's version,
// so the stored result sits under a key no later query builds.
func TestCacheInvalidationOvertakenPut(t *testing.T) {
	r := testRouter(t, shard.Config{Shards: 1, Replicas: 2, Key: "userId"}, 1<<14)
	g := &gatedFleet{
		Router:  r,
		entered: make(chan struct{}, 8), // the test sees two applies in all
		release: make(chan struct{}),
		done:    make(chan struct{}, 8),
	}
	s := NewWithBackend(g, Config{WALDir: t.TempDir(), FsyncPolicy: "off"})
	if err := s.WALError(); err != nil {
		t.Fatal(err)
	}
	loadMeterdata(t, r, meterRows(1, 20, 4, 2))
	g.gated.Store(true)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	arrived := func(ch chan struct{}) bool {
		select {
		case <-ch:
			return true
		case <-time.After(10 * time.Second):
			return false
		}
	}
	await := func(ch chan struct{}, what string) {
		t.Helper()
		if !arrived(ch) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	count := func() (float64, bool) {
		t.Helper()
		resp := mustQuery(t, s, `SELECT count(*) FROM meterdata`)
		return resp.Result.Rows[0][0].AsFloat(), resp.Cached
	}
	load := func(firstUser int) {
		t.Helper()
		if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(firstUser, 5, 4, 1), false); err != nil {
			t.Fatal(err)
		}
	}
	base, _ := count()

	// Batch 1 lands; the shard's applier parks in its OnApply.
	load(700)
	await(g.entered, "the applier to apply batch 1")
	// Batch 2 is logged but cannot apply while the applier parks.
	load(800)

	// The query reads batch 1 only; before the server gets the result,
	// every parked hook is released, so batch 1's invalidation runs, batch 2
	// applies and its invalidation runs: two hooks finish in all.
	g.afterExec = func() { // on the server's worker goroutine: no t.Fatal
		close(g.release)
		for i := 0; i < 2; i++ {
			if !arrived(g.done) {
				t.Error("timed out waiting for the apply-time invalidations")
				return
			}
		}
	}
	if got, _ := count(); got != base+5 {
		t.Fatalf("query before batch 2's apply counted %v, want %v (batch 1 only)", got, base+5)
	}
	got, cached := count()
	if cached || got != base+10 {
		t.Fatalf("after the apply: count %v (cached=%v), want %v from a miss: the overtaken put pinned a stale result", got, cached, base+10)
	}
}

// TestBuildHealthz: the pure classifier behind /healthz. A shard with a
// live replica keeps the fleet "ok"; a shard with none is "degraded" (503),
// named in DeadShards.
func TestBuildHealthz(t *testing.T) {
	set := func(shardID, replicas, live int) shard.SetHealth {
		return shard.SetHealth{Shard: shardID, Replicas: replicas, Live: live}
	}
	cases := []struct {
		name   string
		health []shard.SetHealth
		status string
		code   int
		dead   []int
	}{
		{
			name:   "all live",
			health: []shard.SetHealth{set(0, 2, 2), set(1, 2, 2)},
			status: "ok", code: http.StatusOK,
		},
		{
			name:   "one replica down, shard still readable",
			health: []shard.SetHealth{set(0, 2, 1), set(1, 2, 2)},
			status: "ok", code: http.StatusOK,
		},
		{
			name:   "whole shard dead",
			health: []shard.SetHealth{set(0, 2, 0), set(1, 2, 2)},
			status: "degraded", code: http.StatusServiceUnavailable,
			dead: []int{0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, code := buildHealthz(tc.health)
			if resp.Status != tc.status || code != tc.code {
				t.Fatalf("status %q/%d, want %q/%d", resp.Status, code, tc.status, tc.code)
			}
			if fmt.Sprint(resp.DeadShards) != fmt.Sprint(tc.dead) && (len(resp.DeadShards) != 0 || len(tc.dead) != 0) {
				t.Fatalf("DeadShards = %v, want %v", resp.DeadShards, tc.dead)
			}
		})
	}
}

// TestHealthzKillReviveEndToEnd: on a WAL fleet, /healthz stays ok with one
// replica of a shard killed — and a load goes on — is ok again the moment
// the replica is revived, and reports the shard dead, with 503, only while
// both its replicas are down.
func TestHealthzKillReviveEndToEnd(t *testing.T) {
	s, r := walServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (int, healthzResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out healthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	if code, out := get(); code != http.StatusOK || out.Status != "ok" {
		t.Fatalf("healthy fleet: %d %+v", code, out)
	}
	r.Kill(1, 0)
	if code, out := get(); code != http.StatusOK || fmt.Sprint(out.LiveByShard) != "[2 1 2 2]" {
		t.Fatalf("one dead replica of two should stay ok: %d %+v", code, out)
	}
	if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(800, 8, 4, 1), false); err != nil {
		t.Fatalf("load with a dead replica: %v", err)
	}
	r.Kill(1, 1)
	if code, out := get(); code != http.StatusServiceUnavailable || out.Status != "degraded" || fmt.Sprint(out.DeadShards) != "[1]" {
		t.Fatalf("a shard with both replicas down: %d %+v, want 503 degraded naming shard 1", code, out)
	}
	r.Revive(1, 0)
	r.Revive(1, 1)
	if code, out := get(); code != http.StatusOK || out.Status != "ok" {
		t.Fatalf("revived fleet: %d %+v", code, out)
	}
}

// TestStatsAndMetricsExposeWAL: /stats carries the per-replica engine
// positions and /metrics exposes the WAL families in valid exposition
// format, agreeing with the snapshot — with a log directory and without one:
// every server runs the engine, so neither section is conditional.
func TestStatsAndMetricsExposeWAL(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T, Config) (*Server, *shard.Router)
	}{
		{"no directory", shardedServer},
		{"wal", walServer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, r := tc.mk(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(900, 12, 4, 1), true); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := r.DrainWAL(ctx); err != nil {
				t.Fatal(err)
			}
			// Execute one query so the per-path families have samples (the text
			// parser rejects a declared family with none).
			mustQuery(t, s, `SELECT count(*) FROM meterdata`)

			snap := s.Stats()
			if len(snap.WAL) != 4 {
				t.Fatalf("/stats wal section has %d shards, want 4", len(snap.WAL))
			}
			var committed uint64
			for _, sh := range snap.WAL {
				if len(sh.Replicas) != 1 {
					t.Fatalf("shard %d has %d applier entries, want its one", sh.Shard, len(sh.Replicas))
				}
				committed += sh.NextLSN - 1
				for _, rep := range sh.Replicas {
					if rep.AppliedLSN != rep.LastLSN {
						t.Fatalf("drained replica %d/%d lags: applied %d, last %d", sh.Shard, rep.Replica, rep.AppliedLSN, rep.LastLSN)
					}
				}
			}
			if committed == 0 {
				t.Fatal("no shard committed any WAL record")
			}
			// OnApply fires once per shard apply, so each row counts once:
			// shardedServer's 480 base rows, loaded through the engine, and
			// these 12.
			if snap.RowsApplied != 480+12 {
				t.Fatalf("rows_applied = %d, want 492 (each row applied once)", snap.RowsApplied)
			}

			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			fams, err := trace.ParseMetrics(string(body))
			if err != nil {
				t.Fatalf("/metrics is not valid Prometheus exposition: %v\n%s", err, body)
			}
			if got := famValue(t, fams, "dgf_wal_rows_applied_total"); got != float64(snap.RowsApplied) {
				t.Fatalf("dgf_wal_rows_applied_total = %v, /stats says %v", got, snap.RowsApplied)
			}
			for _, name := range []string{"dgf_wal_pending_records", "dgf_wal_last_lsn", "dgf_wal_applied_lsn"} {
				fam := fams[name]
				if fam == nil {
					t.Fatalf("metric family %s missing", name)
				}
				if len(fam.Samples) != 4 {
					t.Fatalf("%s has %d samples, want 4 (one per shard)", name, len(fam.Samples))
				}
				for _, sm := range fam.Samples {
					if sm.Labels["shard"] == "" || sm.Labels["replica"] == "" {
						t.Fatalf("%s sample lacks shard/replica labels: %+v", name, sm)
					}
				}
			}
			// Every replica drained, so pending depth and lag are zero everywhere.
			for _, sm := range fams["dgf_wal_pending_records"].Samples {
				if sm.Value != 0 {
					t.Fatalf("pending records nonzero after drain: %+v", sm)
				}
			}
		})
	}
}

// TestWALBehindWarehouseServer: Config.WALDir works behind a server over
// one warehouse — a 1x1 fleet — so its loads are logged and applied like any
// fleet's, and after Close a server over a fresh warehouse and the same
// directory replays the table, its base rows and every acknowledged load. A
// WAL that cannot be enabled is still a deferred boot error that refuses
// loads.
func TestWALBehindWarehouseServer(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	count := func(s *Server) float64 {
		t.Helper()
		resp, err := s.Query(ctx, Request{SQL: `SELECT count(*) FROM meterdata`, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result.Rows[0][0].AsFloat()
	}

	s, _ := testServer(t, Config{WALDir: dir, FsyncPolicy: "always"})
	if err := s.WALError(); err != nil {
		t.Fatalf("WAL behind a single-warehouse server: %v", err)
	}
	base := count(s)
	synced, err := s.LoadRowsCtx(ctx, "meterdata", meterRows(700, 5, 4, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	if !synced.Durable || !synced.Applied || synced.LSN == 0 {
		t.Fatalf("sync load ack = %+v, want durable, applied, with an LSN", synced)
	}
	if got := count(s); got != base+5 {
		t.Fatalf("count after a sync load = %v, want %v", got, base+5)
	}
	logged, err := s.LoadRowsCtx(ctx, "meterdata", meterRows(800, 3, 4, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if !logged.Durable || logged.LSN <= synced.LSN {
		t.Fatalf("async load ack = %+v, want durable with an LSN past %d", logged, synced.LSN)
	}
	if st := s.WALStats(); len(st) != 1 || len(st[0].Replicas) != 1 {
		t.Fatalf("WALStats = %+v, want one shard with one replica", st)
	}
	if err := s.Close(ctx); err != nil { // drains: the async load is applied
		t.Fatal(err)
	}
	// The closed engine still reports where it stopped: Close drained it.
	if st := s.WALStats(); len(st) != 1 || st[0].Replicas[0].PendingRecords != 0 || st[0].Replicas[0].AppliedLSN != logged.LSN {
		t.Fatalf("WALStats after Close = %+v, want everything through lsn %d applied", st, logged.LSN)
	}

	// Restart over an empty warehouse: the log replays the table, its base
	// rows and both acknowledged loads.
	s2 := NewWithBackend(testRouter(t, shard.Config{Shards: 1}, 1<<20), Config{WALDir: dir, FsyncPolicy: "off"})
	if err := s2.WALError(); err != nil {
		t.Fatal(err)
	}
	if err := s2.b.DrainWAL(ctx); err != nil {
		t.Fatal(err)
	}
	if got := count(s2); got != base+8 {
		t.Fatalf("count after reopen = %v, want %v (5 sync + 3 async rows replayed)", got, base+8)
	}
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// A bad fsync policy is a boot error behind any server, and loads refuse
	// instead of degrading to non-durable.
	s3 := NewWithBackend(testRouter(t, shard.Config{Shards: 1}, 1<<20), Config{WALDir: t.TempDir(), FsyncPolicy: "sometimes"})
	if err := s3.WALError(); err == nil || !strings.Contains(err.Error(), "sometimes") {
		t.Fatalf("WALError = %v, want bad-policy complaint", err)
	}
	if _, err := s3.LoadRowsCtx(ctx, "meterdata", meterRows(1, 1, 4, 1), false); err == nil || !strings.Contains(err.Error(), "durable ingest unavailable") {
		t.Fatalf("load on a mis-configured server = %v, want durable-ingest refusal", err)
	}
}

// TestDeadShardIs503: once every replica of one shard is down, a query that
// must read that shard fails as an availability error — 503, not 400 — with
// and without a WAL, while a load into it still applies: the shard's
// warehouse outlives its replicas.
func TestDeadShardIs503(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T, Config) (*Server, *shard.Router)
	}{
		{"synchronous loads", shardedServer},
		{"wal", walServer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, r := tc.mk(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			r.Kill(2, 0)
			r.Kill(2, 1)

			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"sql":"SELECT count(*) FROM meterdata","no_cache":true}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("/query over a dead shard: status %d, want 503: %s", resp.StatusCode, body)
			}
			// 40 consecutive user ids hash across all four shards.
			code, out := postLoad(t, ts.URL+"/load", "application/json", jsonLoadBody(t, 600, 40))
			if code != http.StatusOK {
				t.Fatalf("/load over a dead shard: status %d, want 200: %v", code, out)
			}
			if _, err := s.LoadRowsCtx(context.Background(), "meterdata", meterRows(700, 40, 4, 1), false); err != nil {
				t.Fatalf("load over a dead shard: %v", err)
			}
			// A bad request is still a 400 on the degraded fleet.
			if code, _ := postLoad(t, ts.URL+"/load", "application/json", []byte(`{"table":"nosuch","rows":[[1]]}`)); code != http.StatusBadRequest {
				t.Fatalf("/load into a missing table: status %d, want 400", code)
			}
		})
	}
}

// TestLoadRejectsCellsTextCannotCarryOverHTTP: POST /load answers 400 — in
// both body formats, with and without a WAL — for a string cell holding a
// newline or a delimiter outside the last column, or a timestamp outside the
// years 0000-9999, instead of accepting a row that fails every later query
// of its table; the table stays readable, and a delimiter in the last column
// and a timestamp at the last second of 9999 load.
func TestLoadRejectsCellsTextCannotCarryOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T, Config) (*Server, *shard.Router)
	}{
		{"synchronous loads", shardedServer},
		{"wal", walServer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, r := tc.mk(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if _, err := r.ExecContext(context.Background(), `CREATE TABLE u (userId bigint, addr string, ts timestamp, note string)`, hive.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			for name, body := range map[string]string{
				"delimiter":  `{"table":"u","rows":[[1,"7 Elm Rd",0,"ok"],[2,"12 Main St, Springfield",0,"x"]]}`,
				"newline":    `{"table":"u","rows":[[1,"7 Elm Rd",0,"ok"],[2,"a",0,"two\nlines"]]}`,
				"year 10000": `{"table":"u","rows":[[1,"7 Elm Rd",0,"ok"],[2,"a",253402300800,"x"]]}`,
			} {
				code, out := postLoad(t, ts.URL+"/load?sync=1", "application/json", []byte(body))
				if code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), "row 2") {
					t.Errorf("%s: status %d %v, want 400 naming row 2", name, code, out)
				}
			}
			for name, body := range map[string]string{
				"delimiter":  "3,\"9 Oak Ave, Shelbyville\",0,x\n",
				"year 10000": "3,a,253402300800,x\n",
			} {
				if code, out := postLoad(t, ts.URL+"/load?table=u&sync=1", "text/csv", []byte(body)); code != http.StatusBadRequest {
					t.Errorf("csv %s: status %d %v, want 400", name, code, out)
				}
			}
			if code, out := postLoad(t, ts.URL+"/load?sync=1", "application/json",
				[]byte(`{"table":"u","rows":[[4,"7 Elm Rd",253402300799,"rear door, ring twice"]]}`)); code != http.StatusOK {
				t.Fatalf("delimiter in the last column: status %d %v, want 200", code, out)
			}
			res, err := s.Query(context.Background(), Request{SQL: `SELECT userId, addr, note FROM u`, NoCache: true})
			if err != nil {
				t.Fatalf("table unreadable after the rejected loads: %v", err)
			}
			if rows := res.Result.Rows; len(rows) != 1 || rows[0][2].S != "rear door, ring twice" {
				t.Errorf("table holds %v, want the one accepted row", res.Result.Rows)
			}
			if _, err := s.Query(context.Background(), Request{SQL: `SELECT ts, count(*) FROM u GROUP BY ts`, NoCache: true}); err != nil {
				t.Errorf("grouping on the timestamp after the rejected loads: %v", err)
			}
		})
	}
}

// TestLoadRejectsGroupKeySeparator: a string cell holding \x01, the byte a
// multi-column GROUP BY key joins its cells with, is refused in any column by
// the router's load and by POST /load, with an error naming the cell. Such a
// cell used to load, and `SELECT name, userId, count(*) ... GROUP BY name,
// userId` over ("a\x01", 7), ("a", 8) and ("b\x019", 5) then answered
// ("a", ""), ("a", 8) and ("b", 9): the key split at the cell's separator.
func TestLoadRejectsGroupKeySeparator(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T, Config) (*Server, *shard.Router)
	}{
		{"synchronous loads", shardedServer},
		{"wal", walServer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, r := tc.mk(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			ctx := context.Background()
			if _, err := r.ExecContext(ctx, `CREATE TABLE u (userId bigint, name string)`, hive.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			good := storage.Row{storage.Int64(8), storage.Str("a")}
			for _, bad := range []storage.Row{
				{storage.Int64(7), storage.Str("a\x01")},
				{storage.Int64(5), storage.Str("b\x019")},
			} {
				_, err := r.LoadRowsDurable(ctx, "u", []storage.Row{good, bad}, true)
				if cell := fmt.Sprintf("%q", bad[1].S); err == nil || !strings.Contains(err.Error(), cell) {
					t.Errorf("router load of %s: error %v, want a rejection naming the cell", cell, err)
				}
			}
			code, out := postLoad(t, ts.URL+"/load?sync=1", "application/json",
				[]byte(`{"table":"u","rows":[[8,"a"],[7,"a\u0001"]]}`))
			if code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), `"a\x01"`) {
				t.Errorf("POST /load: status %d %v, want 400 naming the cell", code, out)
			}
			if _, err := r.LoadRowsDurable(ctx, "u", []storage.Row{good}, true); err != nil {
				t.Fatal(err)
			}
			res, err := s.Query(ctx, Request{SQL: `SELECT name, userId, count(*) FROM u GROUP BY name, userId`, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Result.Rows); got != "[[a 8 1]]" {
				t.Errorf("GROUP BY name, userId answers %s, want [[a 8 1]]", got)
			}
		})
	}
}

// TestLoadJSONNumbersParseExactly: a JSON number in a /load body parses from
// its literal for its column's kind, exactly as a CSV field does: a bigint
// keeps every digit past 2^53, a fraction sent to a bigint column is
// refused, a string column keeps the literal's text, and doubles and
// timestamps round-trip. The benchmark's bodies (integers, Unix-second
// timestamps, two-decimal doubles) decode to the rows its generator builds.
func TestLoadJSONNumbersParseExactly(t *testing.T) {
	s, r := shardedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := r.ExecContext(context.Background(), `CREATE TABLE n (userId bigint, v double, ts timestamp, note string)`, hive.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	body := `{"table":"n","rows":[[9007199254740993,0.1,1354492800,1.50],[-9223372036854775808,1e-7,0,2]]}`
	if code, out := postLoad(t, ts.URL+"/load?sync=1", "application/json", []byte(body)); code != http.StatusOK {
		t.Fatalf("status %d %v", code, out)
	}
	if code, out := postLoad(t, ts.URL+"/load?sync=1", "application/json", []byte(`{"table":"n","rows":[[1.9,0,0,"x"]]}`)); code != http.StatusBadRequest ||
		!strings.Contains(fmt.Sprint(out["error"]), "userId") {
		t.Errorf("1.9 into a bigint: status %d %v, want 400 naming the column", code, out)
	}
	want := map[int64]storage.Row{
		9007199254740993:     {storage.Int64(9007199254740993), storage.Float64(0.1), storage.TimeUnix(1354492800), storage.Str("1.50")},
		-9223372036854775808: {storage.Int64(-9223372036854775808), storage.Float64(1e-7), storage.TimeUnix(0), storage.Str("2")},
	}
	res, err := s.Query(context.Background(), Request{SQL: `SELECT userId, v, ts, note FROM n`, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Result.Rows) != len(want) {
		t.Fatalf("table holds %v, want %d rows", res.Result.Rows, len(want))
	}
	for _, row := range res.Result.Rows {
		if w := want[row[0].I]; fmt.Sprintf("%#v", row) != fmt.Sprintf("%#v", w) {
			t.Errorf("stored %#v, want %#v", row, w)
		}
	}

	// The benchmark's body shape, against the rows it is generated from.
	schema := storage.NewSchema(
		storage.Column{Name: "userId", Kind: storage.KindInt64}, storage.Column{Name: "regionId", Kind: storage.KindInt64},
		storage.Column{Name: "ts", Kind: storage.KindTime}, storage.Column{Name: "powerConsumed", Kind: storage.KindFloat64})
	for cents := int64(0); cents < 100000; cents += 7 {
		gen := storage.Row{storage.Int64(cents), storage.Int64(cents % 11), storage.TimeUnix(1354492800 + cents*86400), storage.Float64(float64(cents) / 100)}
		var cells []any
		dec := json.NewDecoder(strings.NewReader(fmt.Sprintf("[%d,%d,%d,%s]", cents, cents%11, 1354492800+cents*86400,
			strconv.FormatFloat(float64(cents)/100, 'f', 2, 64))))
		dec.UseNumber()
		if err := dec.Decode(&cells); err != nil {
			t.Fatal(err)
		}
		got, err := decodeLoadRow(schema, cells)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", gen) {
			t.Fatalf("body cells %v decode to %#v, want %#v", cells, got, gen)
		}
	}
}
