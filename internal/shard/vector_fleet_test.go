package shard

import (
	"context"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// setupVectorFleetTable builds the RCFile meter table with small row groups
// (so zone maps have several groups per file to prune) on every warehouse
// behind the loader, then indexes it. The row-group size must be set on
// each physical warehouse before any data loads.
func setupVectorFleetTable(t *testing.T, l loader, warehouses []*hive.Warehouse, cfg workload.MeterConfig) {
	t.Helper()
	mustExec(t, l, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`)
	for _, w := range warehouses {
		tbl, err := w.Table("meterdata")
		if err != nil {
			t.Fatal(err)
		}
		tbl.RowGroupRows = 16
	}
	if err := loadRows(l, "meterdata", cfg.AllRows()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, l, `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`)
	if err := loadRows(l, "userInfo", cfg.UserInfoRows()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, l, `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_8',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`)
}

// TestShardVectorisedFleetEquivalence is the fleet half of the acceptance
// criterion: on a 4-shard, 2-replica RCFile fleet — with one replica killed
// to force failover — the full meter suite matches a direct warehouse within
// float-merge tolerance, and the merged stats report the batch scans and
// their zone-map skips truthfully.
func TestShardVectorisedFleetEquivalence(t *testing.T) {
	cfg := testMeterConfig()
	router, err := New(Config{Shards: 4, Key: "userId", Replicas: 2}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	var fleet []*hive.Warehouse
	for i := 0; i < router.NumShards(); i++ {
		fleet = append(fleet, router.Shard(i))
	}
	setupVectorFleetTable(t, router, fleet, cfg)

	direct := newShardWarehouse(0)
	setupVectorFleetTable(t, direct, []*hive.Warehouse{direct}, cfg)

	// Scatter must survive a dead replica.
	router.Kill(1, 0)

	ctx := context.Background()
	var sawSkips bool
	for _, q := range meterQuerySuite(cfg) {
		vec, err := router.ExecContext(ctx, q, hive.ExecOptions{})
		if err != nil {
			t.Fatalf("fleet %q: %v", q, err)
		}
		if !vec.Stats.Vectorized {
			t.Errorf("%q: merged Vectorized = false after every shard ran a scan job", q)
		}
		sawSkips = sawSkips || vec.Stats.GroupsSkipped > 0

		want, err := direct.ExecContext(context.Background(), q, hive.ExecOptions{})
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		if err := closeRows(want.Rows, vec.Rows); err != nil {
			t.Fatalf("%q: %v\ndirect: %v\nfleet: %v", q, err, want.Rows, vec.Rows)
		}
	}
	if !sawSkips {
		t.Error("no suite query skipped a row group anywhere in the fleet")
	}
}
