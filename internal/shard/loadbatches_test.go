package shard

import (
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// TestRouteHashesValueText: hash routing is FNV-1a of the coerced key's
// text, so the shard of every key is what it was with hash/fnv over
// Value.String.
func TestRouteHashesValueText(t *testing.T) {
	r, err := New(Config{Shards: 7, Key: "k"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	keys := []storage.Value{storage.Int64(0), storage.Int64(-5), storage.Int64(math.MaxInt64), storage.Int64(math.MinInt64),
		storage.Float64(12.34), storage.Float64(1e21), storage.Float64(-0.5), storage.Float64(math.NaN()),
		storage.Time(time.Date(2012, 12, 3, 4, 5, 6, 0, time.UTC)), storage.Str(""), storage.Str("meter-0042"),
		storage.Str("a routing key longer than the thirty-two bytes kept on the stack")}
	for u := int64(1); u <= 1000; u++ {
		keys = append(keys, storage.Int64(u))
	}
	for _, k := range keys {
		h := fnv.New64a()
		h.Write([]byte(k.String()))
		if got, want := r.route(k, k.Kind), int(h.Sum64()%7); got != want {
			t.Errorf("route(%v) = %d, want %d", k, got, want)
		}
	}
}

// loadBatchesRouter is a 4x1 router with a meterdata table routed by userId,
// and a day of meter rows to batch.
func loadBatchesRouter(t *testing.T) (*Router, []storage.Row) {
	r, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	mustExec(t, r, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	cfg := testMeterConfig()
	cfg.Users = 500
	return r, cfg.AllRows()
}

// TestLoadBatchesKeepLoadOrder: each shard's batch holds its rows in load
// order, at its exact size.
func TestLoadBatchesKeepLoadOrder(t *testing.T) {
	r, rows := loadBatchesRouter(t)
	batches, err := r.loadBatches("meterdata", rows)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]storage.Row, r.NumShards())
	for _, row := range rows {
		si := r.route(row[0], storage.KindInt64)
		want[si] = append(want[si], row)
	}
	for si, b := range batches {
		if len(b) != len(want[si]) || cap(b) != len(b) {
			t.Fatalf("shard %d: batch of %d rows (cap %d), want %d", si, len(b), cap(b), len(want[si]))
		}
		for i := range b {
			if &b[i][0] != &want[si][i][0] {
				t.Fatalf("shard %d: row %d out of load order", si, i)
			}
		}
	}
}

// TestLoadBatchesAllocs: batching a load costs one allocation per shard
// plus a constant, however many rows it routes.
func TestLoadBatchesAllocs(t *testing.T) {
	r, rows := loadBatchesRouter(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.loadBatches("meterdata", rows); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(r.NumShards() + 3); allocs > limit {
		t.Errorf("loadBatches of %d rows: %.0f allocations, want at most %.0f", len(rows), allocs, limit)
	}
}
