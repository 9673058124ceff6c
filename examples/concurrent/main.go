// The concurrent example replays the paper's smart-grid meter workload from
// many parallel clients against DGFServe, the serving layer in front of a
// shard router (by default the 1x1 fleet: one shared warehouse). It
// demonstrates what the subsystem adds over the bare library:
//
//   - N clients issue multidimensional range queries over HTTP at once,
//     while a background loader appends the next day's readings;
//   - the worker pool bounds parallelism and sheds overload;
//   - repeated queries hit the result cache until a load invalidates it;
//   - per-session and server-wide metrics come back from /stats.
//
// With -pacing > 0 each query holds its worker slot for its simulated
// cluster time, modelling the remote 29-node cluster; the parallel phase
// then overlaps cluster waits and the printed speedup approaches the worker
// count even on a single local core.
//
// With -shards > 1 the same workload runs against a sharded fleet: the
// meter table partitions across N warehouses by userId hash, every SELECT
// scatter-gathers across the shards, and the per-query simulated cluster
// time drops to the slowest shard's share. With -replicas > 1 each shard is
// R identical copies, and the demo kills one replica mid-traffic to show
// reads failing over while every client keeps getting answers.
//
// With -ingest the demo switches to durable streaming ingest: a 4-shard,
// 2-replica fleet with a write-ahead log accepts a stream of POST /load
// batches that ack at log-durability speed, one replica is killed and
// revived mid-stream (hinted handoff, then catch-up by log replay), and at
// the end every replica's applied log position agrees and a count(*)
// confirms no acknowledged row was lost.
//
// Run: go run ./examples/concurrent [-clients 8] [-queries 40] [-users 1000] [-shards 4] [-replicas 2] [-ingest]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

func main() {
	clients := flag.Int("clients", 8, "parallel client sessions")
	queries := flag.Int("queries", 40, "queries per client")
	users := flag.Int("users", 1000, "users in the generated dataset")
	shards := flag.Int("shards", 1, "warehouse shards behind the server (1 = unsharded)")
	replicas := flag.Int("replicas", 1, "warehouse replicas per shard (sharded mode)")
	pacing := flag.Duration("pacing", 2*time.Millisecond, "wall time per simulated cluster-second")
	ingest := flag.Bool("ingest", false, "run the durable streaming-ingest demo instead (WAL, kill/revive mid-stream)")
	flag.Parse()

	if *ingest {
		runIngestDemo(*users)
		return
	}

	// --- build the fleet: one month of meter data plus a DGFIndex, routed
	// across -shards x -replicas warehouses (1x1 by default) ---
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = *users
	cfg.OtherMetrics = 0
	router := buildFleet(cfg, *shards, *replicas)

	srv := dgfindex.NewServerWithBackend(router, dgfindex.ServerConfig{
		MaxConcurrent: *clients,
		SimPacing:     *pacing,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("DGFServe on %s: %d shard(s) x %d replica(s), %d clients x %d queries, pacing %v per sim-second\n\n",
		ts.URL, *shards, *replicas, *clients, *queries, *pacing)

	// Every client replays the same shuffled mix of point and range
	// queries (the paper's Fig. 8-10 shapes) under its own session.
	queryMix := buildQueryMix(cfg, *queries)

	// --- phase 1: serial baseline (one client) ---
	serialStart := time.Now()
	for i, sql := range queryMix {
		if _, err := httpQuery(ts.URL, sql, "serial", true); err != nil {
			log.Fatalf("serial query %d: %v", i, err)
		}
	}
	serial := time.Since(serialStart)
	fmt.Printf("serial   : %3d queries in %8v (%6.1f q/s)\n",
		len(queryMix), serial.Round(time.Millisecond), rate(len(queryMix), serial))

	// --- phase 2: N parallel clients, loader interleaving. Queries still
	// bypass the result cache, so the printed speedup isolates what the
	// worker pool buys: overlapping the (simulated) cluster waits.
	parallelStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			session := fmt.Sprintf("client-%d", c)
			rng := rand.New(rand.NewSource(int64(c)))
			for _, i := range rng.Perm(len(queryMix)) {
				if _, err := httpQuery(ts.URL, queryMix[i], session, true); err != nil {
					log.Printf("%s: %v", session, err)
					return
				}
			}
		}(c)
	}
	// The next collection day arrives while queries are in flight.
	day31 := cfg
	day31.Days = 1
	day31.Start = cfg.Start.AddDate(0, 0, cfg.Days)
	if _, err := srv.LoadRowsCtx(context.Background(), "meterdata", day31.AllRows(), false); err != nil {
		log.Fatalf("interleaved load: %v", err)
	}
	// With a replicated fleet, one replica dies under the parallel traffic:
	// every read fails over to its shard sibling and no client notices.
	outage := *replicas > 1
	if outage {
		router.Kill(0, 0)
	}
	wg.Wait()
	if outage {
		router.Revive(0, 0)
		fmt.Println("replica outage: shard 0 replica 0 was down mid-phase; reads failed over to its sibling")
	}
	parallel := time.Since(parallelStart)
	total := *clients * len(queryMix)
	fmt.Printf("parallel : %3d queries in %8v (%6.1f q/s) across %d clients\n",
		total, parallel.Round(time.Millisecond), rate(total, parallel), *clients)
	speedup := (float64(total) / parallel.Seconds()) / rate(len(queryMix), serial)
	fmt.Printf("throughput speedup: %.1fx\n\n", speedup)

	// --- phase 3: result cache and load invalidation ---
	probe := queryMix[len(queryMix)-1]
	first, err := httpQuery(ts.URL, probe, "cache-demo", false)
	if err != nil {
		log.Fatal(err)
	}
	again, err := httpQuery(ts.URL, probe, "cache-demo", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeat of an identical query: cached=%v (rows equal: %v)\n",
		again.Cached, fmt.Sprint(first.Rows) == fmt.Sprint(again.Rows))
	day32 := cfg
	day32.Days = 1
	day32.Start = cfg.Start.AddDate(0, 0, cfg.Days+1)
	loaded, err := srv.LoadRowsCtx(context.Background(), "meterdata", day32.AllRows(), false)
	if err != nil {
		log.Fatal(err)
	}
	after, err := httpQuery(ts.URL, probe, "cache-demo", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same query after a LOAD      : cached=%v (%d entries invalidated, recomputed against the new day)\n\n",
		after.Cached, loaded.Invalidated)

	// --- server-side accounting ---
	snap := srv.Stats()
	fmt.Printf("server totals: %d queries, %d errors, %.0f simulated cluster-seconds\n",
		snap.Server.Queries, snap.Server.Errors, snap.Server.SimClusterSeconds)
	fmt.Printf("result cache : %d hits / %d misses (%d invalidated by the load)\n",
		snap.ResultCache.Hits, snap.ResultCache.Misses, snap.ResultCache.Invalidations)
	fmt.Printf("plan cache   : %d hits / %d misses\n", snap.PlanCache.Hits, snap.PlanCache.Misses)
	fmt.Printf("latency      : p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
		snap.Server.LatencyP50Ms, snap.Server.LatencyP95Ms, snap.Server.LatencyP99Ms)
	var sessions []string
	for id := range snap.Sessions {
		sessions = append(sessions, id)
	}
	sort.Strings(sessions)
	for _, id := range sessions {
		m := snap.Sessions[id]
		fmt.Printf("  %-9s: %3d queries, %3d cache hits, %.1f sim-seconds\n",
			id, m.Queries, m.CacheHits, m.SimClusterSeconds)
	}
}

// buildFleet creates the shards x replicas router and loads it with cfg's
// meter readings and a DGFIndex over them.
func buildFleet(cfg dgfindex.MeterConfig, shards, replicas int) *dgfindex.ShardRouter {
	ctx := context.Background()
	router, err := dgfindex.NewSharded(dgfindex.ShardConfig{Shards: shards, Replicas: replicas, Key: "userId"})
	if err != nil {
		log.Fatal(err)
	}
	must(router.ExecContext(ctx, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, dgfindex.ExecOptions{}))
	if _, err := router.LoadRowsDurable(ctx, "meterdata", cfg.AllRows(), false); err != nil {
		log.Fatal(err)
	}
	res := must(router.ExecContext(ctx, fmt.Sprintf(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_%d',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, max(cfg.Users/50, 1)), dgfindex.ExecOptions{}))
	fmt.Println(res.Message)
	return router
}

// runIngestDemo streams durable loads into a 4-shard, 2-replica WAL fleet
// over HTTP while one replica dies and comes back mid-stream.
func runIngestDemo(users int) {
	const shards, replicas, batches = 4, 2, 12
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = users
	cfg.OtherMetrics = 0

	router := buildFleet(cfg, shards, replicas)
	base := int64(cfg.Rows())

	walDir, err := os.MkdirTemp("", "dgf-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	srv := dgfindex.NewServerWithBackend(router, dgfindex.ServerConfig{
		WALDir:      walDir,
		FsyncPolicy: "interval",
	})
	if err := srv.WALError(); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("DGFServe on %s: %d shards x %d replicas, durable ingest (wal-dir %s)\n\n",
		ts.URL, shards, replicas, walDir)

	// Stream one batch per "collection interval"; shard 1 replica 0 dies a
	// third of the way in and revives two thirds in — its shard keeps
	// accepting loads on the surviving replica's log the whole time.
	loaded := int64(0)
	for b := 0; b < batches; b++ {
		switch b {
		case batches / 3:
			router.Kill(1, 0)
			fmt.Println("-- shard 1 replica 0 killed: its loads now hint to the survivor's log")
		case 2 * batches / 3:
			router.Revive(1, 0)
			fmt.Println("-- shard 1 replica 0 revived: catching up by log replay")
		}
		day := cfg
		day.Days = 1
		day.Start = cfg.Start.AddDate(0, 0, cfg.Days+b)
		rows := day.AllRows()
		body, _ := json.Marshal(map[string]any{"table": "meterdata", "rows": jsonRows(rows)})
		resp, err := http.Post(ts.URL+"/load", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var ack struct {
			RowsLoaded int    `json:"rows_loaded"`
			Durability string `json:"durability"`
			LSN        uint64 `json:"lsn"`
			Error      string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("batch %d: HTTP %d: %s", b, resp.StatusCode, ack.Error)
		}
		loaded += int64(ack.RowsLoaded)
		fmt.Printf("batch %2d: %5d rows acked %-7s (lsn %d)\n", b, ack.RowsLoaded, ack.Durability, ack.LSN)
	}

	// Wait for the revived replica to finish replaying, then drain the
	// appliers so every acknowledged row is queryable.
	for deadline := time.Now().Add(30 * time.Second); ; {
		catching := 0
		for _, sh := range router.Health() {
			catching += sh.CatchingUp
		}
		if catching == 0 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("catch-up did not settle")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.DrainWAL(ctx); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nafter catch-up and drain, per-replica log positions agree:")
	replayed := int64(0)
	for _, sh := range srv.WALStats() {
		fmt.Printf("  shard %d:", sh.Shard)
		for _, rep := range sh.Replicas {
			fmt.Printf("  r%d applied=%d/%d", rep.Replica, rep.AppliedLSN, rep.LastLSN)
			replayed += rep.ReplayedRows
			if rep.AppliedLSN != rep.LastLSN || rep.AppliedLSN != sh.NextLSN-1 {
				log.Fatalf("shard %d replica %d lags: applied %d, log tail %d, shard head %d",
					sh.Shard, rep.Replica, rep.AppliedLSN, rep.LastLSN, sh.NextLSN-1)
			}
		}
		fmt.Println()
	}
	res := must(router.ExecContext(context.Background(), `SELECT count(*) FROM meterdata`, dgfindex.ExecOptions{}))
	got := int64(res.Rows[0][0].AsFloat())
	fmt.Printf("\ncount(*) = %d (base %d + %d streamed), %d rows replayed into the revived replica\n",
		got, base, loaded, replayed)
	if got != base+loaded {
		log.Fatalf("acknowledged rows missing: count %d, want %d", got, base+loaded)
	}
	fmt.Println("every acknowledged batch survived the outage")
}

// jsonRows renders storage rows as JSON-encodable cells for POST /load.
func jsonRows(rows []dgfindex.Row) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		cells := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case dgfindex.KindInt64, dgfindex.KindTime:
				cells[j] = v.I
			case dgfindex.KindFloat64:
				cells[j] = v.F
			default:
				cells[j] = v.S
			}
		}
		out[i] = cells
	}
	return out
}

// buildQueryMix renders n meter queries of varied selectivity as HiveQL.
func buildQueryMix(cfg dgfindex.MeterConfig, n int) []string {
	var out []string
	fracs := []float64{0.001, 0.01, 0.05, 0.12}
	for i := 0; i < n; i++ {
		var where string
		if i%4 == 0 {
			where = cfg.Point().WhereClause()
		} else {
			where = cfg.Selective(fracs[i%len(fracs)]).WhereClause()
		}
		out = append(out, "SELECT sum(powerConsumed) FROM meterdata WHERE "+where)
	}
	return out
}

type queryResult struct {
	Rows   [][]any `json:"rows"`
	Cached bool    `json:"cached"`
	Error  string  `json:"error"`
}

func httpQuery(base, sql, session string, noCache bool) (*queryResult, error) {
	body, _ := json.Marshal(map[string]any{
		"sql": sql, "session": session, "no_cache": noCache,
	})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var qr queryResult
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, qr.Error)
	}
	return &qr, nil
}

func rate(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

func must(res *dgfindex.Result, err error) *dgfindex.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
