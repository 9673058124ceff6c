// Server-facing integration tests for the shard router. These live in an
// external test package (shard_test): the serving layer imports
// internal/shard for replica health types, so an internal test importing
// internal/server would be an import cycle.
package shard_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/server"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// The router must satisfy the serving layer's Backend contract.
var _ server.Backend = (*shard.Router)(nil)

func itMeterConfig() workload.MeterConfig {
	cfg := workload.DefaultMeterConfig()
	cfg.Users = 40
	cfg.Regions = 4
	cfg.Days = 8
	cfg.ReadingsPerDay = 2
	cfg.OtherMetrics = 0
	return cfg
}

func itWarehouse(int) *hive.Warehouse {
	cc := cluster.Default()
	cc.Workers = 4
	return hive.NewWarehouse(dfs.New(1<<20), cc, "/warehouse")
}

func itSetup(t *testing.T, r *shard.Router, cfg workload.MeterConfig, withIndex bool) {
	t.Helper()
	if _, err := r.ExecContext(context.Background(), `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, hive.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadRowsDurable(context.Background(), "meterdata", cfg.AllRows(), false); err != nil {
		t.Fatal(err)
	}
	if withIndex {
		if _, err := r.ExecContext(context.Background(), `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
			AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_8',
			'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, hive.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardServerIntegration: DGFServe's caches, invalidation and metrics
// must work unchanged over a sharded backend.
func TestShardServerIntegration(t *testing.T) {
	cfg := itMeterConfig()
	router, err := shard.New(shard.Config{Shards: 4, Key: "userId"}, itWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithBackend(router, server.Config{MaxConcurrent: 4})
	itSetup(t, router, cfg, true)

	const q = `SELECT sum(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=30`
	first, err := srv.Query(context.Background(), server.Request{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first.Result.Stats.AccessPath, "sharded(") {
		t.Fatalf("access path %q, want sharded", first.Result.Stats.AccessPath)
	}
	again, err := srv.Query(context.Background(), server.Request{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeat over sharded backend should hit the result cache")
	}

	day := cfg
	day.Days = 1
	day.Start = cfg.Start.AddDate(0, 0, cfg.Days)
	loaded, err := srv.LoadRowsCtx(context.Background(), "meterdata", day.AllRows(), false)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Invalidated == 0 {
		t.Fatal("routed load did not invalidate the cached result")
	}
	after, err := srv.Query(context.Background(), server.Request{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-load query served stale cache entry")
	}
	if snap := srv.Stats(); snap.ResultInvalidations == 0 || snap.RowsLoaded != int64(day.Rows()) {
		t.Fatalf("snapshot: %+v", snap)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerReplicaHealthSurfaces: a replicated router's health reaches
// /stats (per-shard replica detail) and /healthz (degraded + 503 once a
// shard has no live replica; ok again after revive). A single-warehouse
// server is the 1x1 fleet and reports its one shard the same way.
func TestServerReplicaHealthSurfaces(t *testing.T) {
	cfg := itMeterConfig()
	router, err := shard.New(shard.Config{Shards: 2, Replicas: 2, Key: "userId"}, itWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithBackend(router, server.Config{MaxConcurrent: 2})
	itSetup(t, router, cfg, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	snap := srv.Stats()
	if len(snap.Shards) != 2 {
		t.Fatalf("stats shards = %d, want 2", len(snap.Shards))
	}
	for _, sh := range snap.Shards {
		if sh.Replicas != 2 || sh.Live != 2 {
			t.Fatalf("shard %d health %+v, want 2 live of 2", sh.Shard, sh)
		}
	}

	getHealthz := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := getHealthz(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthy fleet: healthz %d %v", code, body)
	}

	// One replica down: degraded capacity but every shard still answers.
	router.Kill(1, 0)
	if code, body := getHealthz(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("one replica down: healthz %d %v (shard 1 still has a live replica)", code, body)
	}
	if snap := srv.Stats(); snap.Shards[1].Live != 1 {
		t.Fatalf("stats after kill: %+v", snap.Shards[1])
	}

	// Both replicas of shard 1 down: the shard is dead, healthz reports it.
	router.Kill(1, 1)
	code, body := getHealthz()
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("dead shard: healthz %d %v, want 503 degraded", code, body)
	}
	dead, _ := body["dead_shards"].([]any)
	if len(dead) != 1 || dead[0].(float64) != 1 {
		t.Fatalf("dead_shards = %v, want [1]", body["dead_shards"])
	}

	router.Revive(1, 0)
	router.Revive(1, 1)
	if code, body := getHealthz(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("after revive: healthz %d %v", code, body)
	}

	// A single warehouse is one shard with one live replica.
	one, err := shard.New(shard.Config{Shards: 1}, itWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	bare := server.NewWithBackend(one, server.Config{})
	if snap := bare.Stats(); len(snap.Shards) != 1 || snap.Shards[0].Replicas != 1 || snap.Shards[0].Live != 1 {
		t.Fatalf("single-warehouse server shard health = %+v, want one shard, 1 live of 1", snap.Shards)
	}
}
