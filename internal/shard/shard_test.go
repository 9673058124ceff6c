package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

func testMeterConfig() workload.MeterConfig {
	cfg := workload.DefaultMeterConfig()
	cfg.Users = 40
	cfg.Regions = 4
	cfg.Days = 8
	cfg.ReadingsPerDay = 2
	cfg.OtherMetrics = 0
	return cfg
}

func newShardWarehouse(int) *hive.Warehouse {
	cc := cluster.Default()
	cc.Workers = 4
	return hive.NewWarehouse(dfs.New(1<<20), cc, "/warehouse")
}

// loader abstracts the direct warehouse and the router so one setup
// function populates both identically.
type loader interface {
	ExecContext(ctx context.Context, sql string, opts hive.ExecOptions) (*hive.Result, error)
}

// exec runs one statement to completion on a warehouse or a router.
func exec(l loader, sql string) (*hive.Result, error) {
	return l.ExecContext(context.Background(), sql, hive.ExecOptions{})
}

// loadRows appends rows through the store's own load call: the router's one
// LoadRowsDurable (acked once applied without a log directory, once logged
// with one), or the bare warehouse's LoadRowsByName.
func loadRows(l loader, table string, rows []storage.Row) error {
	if r, ok := l.(*Router); ok {
		_, err := r.LoadRowsDurable(context.Background(), table, rows, false)
		return err
	}
	return l.(*hive.Warehouse).LoadRowsByName(table, rows)
}

func setupMeter(t testing.TB, l loader, cfg workload.MeterConfig, withIndex bool) {
	t.Helper()
	setupMeterStored(t, l, cfg, withIndex, "TEXTFILE")
}

// setupMeterStored is setupMeter with an explicit meterdata storage format.
func setupMeterStored(t testing.TB, l loader, cfg workload.MeterConfig, withIndex bool, stored string) {
	t.Helper()
	mustExec(t, l, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS `+stored)
	if err := loadRows(l, "meterdata", cfg.AllRows()); err != nil {
		t.Fatal(err)
	}
	mustExec(t, l, `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`)
	if err := loadRows(l, "userInfo", cfg.UserInfoRows()); err != nil {
		t.Fatal(err)
	}
	if withIndex {
		mustExec(t, l, meterIndexSQL)
	}
}

// meterIndexSQL is the DGFIndex every indexed meter setup builds.
const meterIndexSQL = `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
	AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_8',
	'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`

func mustExec(t testing.TB, l loader, sql string) *hive.Result {
	t.Helper()
	res, err := exec(l, sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// meterQuerySuite is the meter workload the equivalence tests replay: every
// aggregate shape (AVG included), GROUP BY, a co-partitioned join, plain
// projections, and predicates that match nothing.
func meterQuerySuite(cfg workload.MeterConfig) []string {
	qs := []string{
		`SELECT count(*) FROM meterdata`,
		`SELECT count(*), sum(powerConsumed), avg(powerConsumed), min(powerConsumed), max(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=30`,
		`SELECT avg(powerConsumed) FROM meterdata WHERE userId>=1000`,
		`SELECT sum(powerConsumed) FROM meterdata WHERE userId=7`,
		`SELECT regionId, avg(powerConsumed), count(*) FROM meterdata WHERE ts>='2012-12-02' AND ts<'2012-12-06' GROUP BY regionId`,
		`SELECT regionId, sum(powerConsumed) FROM meterdata WHERE userId>=3 AND userId<=25 AND regionId>=2 GROUP BY regionId`,
		`SELECT t2.userName, sum(t1.powerConsumed) FROM meterdata t1 JOIN userInfo t2 ON t1.userId=t2.userId WHERE t1.userId>=3 AND t1.userId<=12 GROUP BY t2.userName`,
		`SELECT userId, powerConsumed FROM meterdata WHERE userId=11 AND ts<'2012-12-03'`,
	}
	for _, frac := range []float64{0.01, 0.05, 0.12} {
		qs = append(qs, "SELECT sum(powerConsumed) FROM meterdata WHERE "+cfg.Selective(frac).WhereClause())
	}
	qs = append(qs, "SELECT count(*) FROM meterdata WHERE "+cfg.Point().WhereClause())
	return qs
}

// shardSizes reports each shard's byte size of the named table.
func shardSizes(r *Router, table string) []int64 {
	out := make([]int64, r.NumShards())
	for i := range out {
		if t, err := r.Shard(i).Table(table); err == nil {
			out[i] = r.Shard(i).TableSizeBytes(t)
		}
	}
	return out
}

// renderRows renders result rows exactly (bit-for-bit comparisons).
func renderRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.Kind == storage.KindFloat64 {
				parts[j] = strconv.FormatFloat(v.F, 'b', -1, 64) // exact bits
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// TestShardSingleShardByteIdentical: acceptance criterion — a 1-shard
// router must produce byte-identical output to a bare warehouse for the
// full meter workload, access path and cost model included.
func TestShardSingleShardByteIdentical(t *testing.T) {
	cfg := testMeterConfig()
	direct := newShardWarehouse(0)
	setupMeter(t, direct, cfg, true)
	router, err := New(Config{Shards: 1, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, router, cfg, true)

	for _, q := range meterQuerySuite(cfg) {
		want, err := direct.ExecContext(context.Background(), q, hive.ExecOptions{})
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		got, err := exec(router, q)
		if err != nil {
			t.Fatalf("router %q: %v", q, err)
		}
		if strings.Join(want.Columns, ",") != strings.Join(got.Columns, ",") {
			t.Fatalf("%q: columns %v vs %v", q, want.Columns, got.Columns)
		}
		wr, gr := renderRows(want.Rows), renderRows(got.Rows)
		if strings.Join(wr, "\n") != strings.Join(gr, "\n") {
			t.Fatalf("%q:\ndirect: %v\nrouter: %v", q, wr, gr)
		}
		if want.Stats.AccessPath != got.Stats.AccessPath ||
			want.Stats.RecordsRead != got.Stats.RecordsRead ||
			want.Stats.BytesRead != got.Stats.BytesRead ||
			want.Stats.SimTotalSec() != got.Stats.SimTotalSec() {
			t.Fatalf("%q: stats differ: %+v vs %+v", q, want.Stats, got.Stats)
		}
	}
}

// closeRows compares rows with float tolerance (cross-shard aggregation
// reorders float additions) and NaN treated as equal to NaN.
func closeRows(want, got []storage.Row) error {
	if len(want) != len(got) {
		return fmt.Errorf("row count %d vs %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d: width %d vs %d", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			wv, gv := want[i][j], got[i][j]
			if wv.Kind == storage.KindFloat64 && gv.Kind == storage.KindFloat64 {
				if math.IsNaN(wv.F) && math.IsNaN(gv.F) {
					continue
				}
				diff := math.Abs(wv.F - gv.F)
				if diff > 1e-6+1e-9*math.Abs(wv.F) {
					return fmt.Errorf("row %d col %d: %v vs %v", i, j, wv.F, gv.F)
				}
				continue
			}
			if storage.Compare(wv, gv) != 0 {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, wv, gv)
			}
		}
	}
	return nil
}

// runEquivalence replays the meter suite on a direct warehouse and an
// n-shard router and requires matching results.
func runEquivalence(t *testing.T, cfg workload.MeterConfig, router *Router, withIndex bool) {
	t.Helper()
	direct := newShardWarehouse(0)
	setupMeter(t, direct, cfg, withIndex)
	setupMeter(t, router, cfg, withIndex)

	for _, q := range meterQuerySuite(cfg) {
		want, err := direct.ExecContext(context.Background(), q, hive.ExecOptions{})
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		got, err := exec(router, q)
		if err != nil {
			t.Fatalf("router %q: %v", q, err)
		}
		if strings.Join(want.Columns, ",") != strings.Join(got.Columns, ",") {
			t.Fatalf("%q: columns %v vs %v", q, want.Columns, got.Columns)
		}
		if err := closeRows(want.Rows, got.Rows); err != nil {
			t.Fatalf("%q: %v\ndirect: %v\nrouter: %v", q, err, want.Rows, got.Rows)
		}
		// No stats equality here: shard pruning and per-shard DGF planners
		// (whose inner/boundary split depends on shard-local data extents)
		// legitimately read fewer records than one big warehouse.
	}
}

func TestShardFourWayHashEquivalence(t *testing.T) {
	router, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, testMeterConfig(), router, true)
	// Hash routing spreads 40 users over all 4 shards.
	for i, size := range shardSizes(router, "meterdata") {
		if size == 0 {
			t.Errorf("shard %d holds no meter data", i)
		}
	}
}

func TestShardFourWayRangeEquivalence(t *testing.T) {
	router, err := New(Config{Shards: 4, Key: "userId", Strategy: RangeKey, Bounds: []float64{11, 21, 31}}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, testMeterConfig(), router, true)
}

// TestShardScanEquivalence covers the no-index path (plain table scans per
// shard) so the refactored aggregation pipeline is exercised without the
// DGFIndex planner in front.
func TestShardScanEquivalence(t *testing.T) {
	router, err := New(Config{Shards: 3, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, testMeterConfig(), router, false)
}

// TestShardEmptyShards: with range routing and all keys in the first
// bucket, three shards stay empty; scalar aggregates (AVG included) must
// still come back correct, and empty-matching predicates must yield the
// scalar empty-input row.
func TestShardEmptyShards(t *testing.T) {
	cfg := testMeterConfig()
	cfg.Users = 9 // all users < 10: shards 1..3 hold no meter rows
	router, err := New(Config{Shards: 4, Key: "userId", Strategy: RangeKey, Bounds: []float64{10, 20, 30}}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, cfg, router, false)

	sizes := shardSizes(router, "meterdata")
	if sizes[0] == 0 || sizes[1] != 0 || sizes[2] != 0 || sizes[3] != 0 {
		t.Fatalf("expected only shard 0 populated, got %v", sizes)
	}
	// A query forced across every shard still answers from the one
	// populated shard plus three empty partials.
	res := mustExec(t, router, `SELECT count(*), avg(powerConsumed) FROM meterdata`)
	if n := res.Rows[0][0].AsFloat(); n != float64(cfg.Rows()) {
		t.Fatalf("count over empty shards = %v, want %d", n, cfg.Rows())
	}
	if !strings.HasPrefix(res.Stats.AccessPath, "sharded(4/4)") {
		t.Fatalf("access path %q, want sharded(4/4) fan-out", res.Stats.AccessPath)
	}
}

// TestShardPruning: predicates on the routing key narrow the fan-out —
// equality under hash routing, intervals under range routing.
func TestShardPruning(t *testing.T) {
	cfg := testMeterConfig()
	hash, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, hash, cfg, false)
	res := mustExec(t, hash, `SELECT count(*) FROM meterdata WHERE userId=7`)
	if !strings.HasPrefix(res.Stats.AccessPath, "sharded(1/4)") {
		t.Fatalf("hash equality access path %q, want sharded(1/4)", res.Stats.AccessPath)
	}
	if n := res.Rows[0][0].AsFloat(); n != float64(cfg.Days*cfg.ReadingsPerDay) {
		t.Fatalf("pruned count %v, want %d", n, cfg.Days*cfg.ReadingsPerDay)
	}
	res = mustExec(t, hash, `SELECT count(*) FROM meterdata WHERE userId>=7 AND userId<=8`)
	if !strings.HasPrefix(res.Stats.AccessPath, "sharded(4/4)") {
		t.Fatalf("hash range access path %q, want full fan-out", res.Stats.AccessPath)
	}

	rng, err := New(Config{Shards: 4, Key: "userId", Strategy: RangeKey, Bounds: []float64{11, 21, 31}}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, rng, cfg, false)
	res = mustExec(t, rng, `SELECT count(*) FROM meterdata WHERE userId>=12 AND userId<=20`)
	if !strings.HasPrefix(res.Stats.AccessPath, "sharded(1/4)") {
		t.Fatalf("range access path %q, want sharded(1/4)", res.Stats.AccessPath)
	}
	res = mustExec(t, rng, `SELECT count(*) FROM meterdata WHERE userId>=12 AND userId<=25`)
	if !strings.HasPrefix(res.Stats.AccessPath, "sharded(2/4)") {
		t.Fatalf("range access path %q, want sharded(2/4)", res.Stats.AccessPath)
	}
}

// TestTableInfosReportDgfIndex: /tables reports a DGFIndex's size and pair
// count — the fleet's total for a partitioned table, from each index's running
// totals — and they equal what walking every shard's store finds, before and
// after a load.
func TestTableInfosReportDgfIndex(t *testing.T) {
	cfg := testMeterConfig()
	router, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.CloseWAL() })
	setupMeter(t, router, cfg, true)
	check := func(when string) (entries int64) {
		t.Helper()
		var wantBytes, wantEntries int64
		for si := 0; si < 4; si++ {
			tbl, err := router.Shard(si).Table("meterdata")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tbl.DgfKV.ScanPrefix("g/") {
				wantBytes += int64(len(p.Key) + len(p.Value))
				wantEntries++
			}
		}
		for _, info := range router.TableInfos() {
			if info.Name != "meterdata" {
				if info.DgfIndexBytes != 0 || info.DgfEntries != 0 {
					t.Errorf("%s: %s has no DGFIndex but reports %d bytes, %d entries", when, info.Name, info.DgfIndexBytes, info.DgfEntries)
				}
				continue
			}
			if info.DgfIndexBytes != wantBytes || info.DgfEntries != wantEntries || wantEntries == 0 {
				t.Errorf("%s: /tables reports %d bytes in %d GFU pairs, the stores hold %d in %d", when, info.DgfIndexBytes, info.DgfEntries, wantBytes, wantEntries)
			}
			js, err := json.Marshal(info)
			if err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf(`"dgf_index_bytes":%d,"dgf_entries":%d`, wantBytes, wantEntries); !strings.Contains(string(js), want) {
				t.Errorf("%s: %s lacks %s", when, js, want)
			}
		}
		return wantEntries
	}
	before := check("after CREATE INDEX")
	for _, l := range goldenLoads(cfg)[:2] { // fresh cells on one shard, existing cells on all
		if _, err := router.LoadRowsDurable(context.Background(), l.table, l.rows, true); err != nil {
			t.Fatal(err)
		}
	}
	if after := check("after two loads"); after <= before {
		t.Errorf("the loads into fresh cells left %d GFU pairs, %d before", after, before)
	}
}

// TestShardCatalogAndVersions: DDL broadcasts, catalog snapshots merge, and
// version counters stay monotonic across routed loads.
func TestShardCatalogAndVersions(t *testing.T) {
	cfg := testMeterConfig()
	router, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, router, cfg, false)

	infos := router.TableInfos()
	if len(infos) != 2 || infos[0].Name != "meterdata" {
		t.Fatalf("TableInfos: %+v", infos)
	}
	var total int64
	for _, size := range shardSizes(router, "meterdata") {
		total += size
	}
	if infos[0].SizeBytes != total {
		t.Fatalf("merged size %d != shard sum %d", infos[0].SizeBytes, total)
	}

	v0 := router.TableVersions("meterdata")["meterdata"]
	day := cfg
	day.Days = 1
	day.Start = cfg.Start.AddDate(0, 0, cfg.Days)
	if err := loadRows(router, "meterdata", day.AllRows()); err != nil {
		t.Fatal(err)
	}
	if v1 := router.TableVersions("meterdata")["meterdata"]; v1 <= v0 {
		t.Fatalf("version did not grow: %d -> %d", v0, v1)
	}

	if _, err := exec(router, `DROP TABLE userInfo`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < router.NumShards(); i++ {
		if _, err := router.Shard(i).Table("userInfo"); err == nil {
			t.Fatalf("shard %d still has userInfo after broadcast drop", i)
		}
	}
}

// TestShardJoinGuard: a join on a non-key column against a key-partitioned
// table cannot be answered shard-locally and must be rejected, not answered
// wrong.
func TestShardJoinGuard(t *testing.T) {
	cfg := testMeterConfig()
	router, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, router, cfg, false)
	_, err = exec(router, `SELECT t2.address FROM meterdata t1 JOIN userInfo t2 ON t1.regionId=t2.regionId`)
	if err == nil || !strings.Contains(err.Error(), "shard key") {
		t.Fatalf("want co-partitioning error, got %v", err)
	}
	// INSERT OVERWRITE DIRECTORY writes shard-local files: rejected too.
	_, err = exec(router, `INSERT OVERWRITE DIRECTORY '/tmp/out' SELECT userId FROM meterdata`)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("want insert-dir rejection, got %v", err)
	}
}

// TestShardReplicatedTables: a table without the routing key replicates to
// every shard, and SELECTs on it answer from one shard without fan-out.
func TestShardReplicatedTables(t *testing.T) {
	router, err := New(Config{Shards: 3, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, router, `CREATE TABLE regions (regionId bigint, name string)`)
	rows := []storage.Row{
		{storage.Int64(1), storage.Str("north")},
		{storage.Int64(2), storage.Str("south")},
	}
	if err := loadRows(router, "regions", rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < router.NumShards(); i++ {
		res, err := router.Shard(i).ExecContext(context.Background(), `SELECT count(*) FROM regions`, hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].AsFloat(); n != 2 {
			t.Fatalf("shard %d replica has %v rows, want 2", i, n)
		}
	}
	res := mustExec(t, router, `SELECT count(*) FROM regions`)
	if n := res.Rows[0][0].AsFloat(); n != 2 {
		t.Fatalf("replicated count = %v, want 2 (no double counting)", n)
	}
	// Replicated tables report one copy's catalog numbers, not N copies'.
	for _, info := range router.TableInfos() {
		if info.Name != "regions" {
			continue
		}
		tbl, err := router.Shard(0).Table("regions")
		if err != nil {
			t.Fatal(err)
		}
		if one := router.Shard(0).TableSizeBytes(tbl); info.SizeBytes != one {
			t.Fatalf("replicated /tables size %d, want one copy's %d", info.SizeBytes, one)
		}
	}
}

// TestShardReplicatedJoinShardedTable: a join FROM a replicated table INTO
// the partitioned table must scatter over every shard — answering from
// shard 0 alone would silently drop the other shards' join rows.
func TestShardReplicatedJoinShardedTable(t *testing.T) {
	cfg := testMeterConfig()
	direct := newShardWarehouse(0)
	router, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []loader{direct, router} {
		setupMeter(t, l, cfg, false)
		mustExec(t, l, `CREATE TABLE regions (regionId bigint, name string)`)
		var rows []storage.Row
		for rid := 1; rid <= cfg.Regions; rid++ {
			rows = append(rows, storage.Row{storage.Int64(int64(rid)), storage.Str(fmt.Sprintf("region-%d", rid))})
		}
		if err := loadRows(l, "regions", rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT count(*) FROM regions r JOIN meterdata m ON r.regionId = m.regionId`,
		`SELECT r.name, sum(m.powerConsumed) FROM regions r JOIN meterdata m ON r.regionId = m.regionId GROUP BY r.name`,
	} {
		want, err := direct.ExecContext(context.Background(), q, hive.ExecOptions{})
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		got, err := exec(router, q)
		if err != nil {
			t.Fatalf("router %q: %v", q, err)
		}
		if err := closeRows(want.Rows, got.Rows); err != nil {
			t.Fatalf("%q: %v\ndirect: %v\nrouter: %v", q, err, want.Rows, got.Rows)
		}
		if !strings.HasPrefix(got.Stats.AccessPath, "sharded(4/4)") {
			t.Fatalf("%q: access path %q, want full fan-out", q, got.Stats.AccessPath)
		}
	}
}

// TestShardServerIntegration (DGFServe over a sharded backend) lives in
// integration_test.go (package shard_test): the serving layer now imports
// this package for replica health, so the server-facing tests run from an
// external test package to avoid an import cycle.

// TestShardRCFileEquivalence: the format-agnostic index I/O path composed
// with scatter-gather. The broadcast CREATE INDEX builds a per-shard
// DGFIndex over each shard's RCFile slice; the full meter suite must then
// answer bit-identically to the same 4-shard fleet backed by TextFile (the
// storage format must not change a single result bit) and match the 1-shard
// TextFile answer within float-merge tolerance.
func TestShardRCFileEquivalence(t *testing.T) {
	cfg := testMeterConfig()
	mkRouter := func(stored string) *Router {
		router, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		setupMeterStored(t, router, cfg, true, stored)
		return router
	}
	textRouter := mkRouter("TEXTFILE")
	rcRouter := mkRouter("RCFILE")
	oneShard, err := New(Config{Shards: 1, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeterStored(t, oneShard, cfg, true, "TEXTFILE")

	// Every shard must actually hold an RCFile-backed DGFIndex.
	for i := 0; i < rcRouter.NumShards(); i++ {
		tbl, err := rcRouter.Shard(i).Table("meterdata")
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Dgf == nil {
			t.Fatalf("shard %d has no DGFIndex", i)
		}
		if tbl.Dgf.Format != storage.RCFile {
			t.Fatalf("shard %d index format = %v, want RCFile", i, tbl.Dgf.Format)
		}
	}

	for _, q := range meterQuerySuite(cfg) {
		want, err := exec(textRouter, q)
		if err != nil {
			t.Fatalf("text router %q: %v", q, err)
		}
		got, err := exec(rcRouter, q)
		if err != nil {
			t.Fatalf("rc router %q: %v", q, err)
		}
		if strings.Join(want.Columns, ",") != strings.Join(got.Columns, ",") {
			t.Fatalf("%q: columns %v vs %v", q, want.Columns, got.Columns)
		}
		wr, gr := renderRows(want.Rows), renderRows(got.Rows)
		if strings.Join(wr, "\n") != strings.Join(gr, "\n") {
			t.Fatalf("%q: formats disagree\ntext: %v\nrcfile: %v", q, wr, gr)
		}
		base, err := exec(oneShard, q)
		if err != nil {
			t.Fatalf("1-shard %q: %v", q, err)
		}
		if err := closeRows(base.Rows, got.Rows); err != nil {
			t.Fatalf("%q vs 1-shard TextFile: %v\nwant: %v\ngot: %v", q, err, base.Rows, got.Rows)
		}
	}
}

// TestShardingCutsSimulatedTime: scatter-gather over four shards answers the
// benchmark's scan-heavy meter statements as one shard does (within the
// float-merge tolerance: cross-shard sums reorder additions) in at most
// 1/1.5 of the simulated cluster time. The cluster model is scaled, as
// cmd/dgfserver scales it, so ~90 KB of generated rows model a ~70 GB table
// whose full scan spans ~8 map waves on the 140-slot cluster; four shards
// divide the waves.
func TestShardingCutsSimulatedTime(t *testing.T) {
	cfg := workload.DefaultMeterConfig()
	cfg.Users = 100
	cfg.OtherMetrics = 0
	statements := []string{
		`SELECT sum(powerConsumed) FROM meterdata`,
		`SELECT count(*), avg(powerConsumed) FROM meterdata WHERE regionId >= 2`,
		`SELECT regionId, sum(powerConsumed) FROM meterdata GROUP BY regionId`,
		"SELECT sum(powerConsumed) FROM meterdata WHERE " + cfg.Selective(0.5).WhereClause(),
	}
	cc := cluster.Default().Scaled(800000)
	run := func(shards int) (answers []*hive.Result, simSec float64) {
		r, err := New(Config{Shards: shards, Key: "userId"}, func(int) *hive.Warehouse {
			return hive.NewWarehouse(dfs.New(2<<20), cc, "/warehouse")
		})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, r, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
		if err := loadRows(r, "meterdata", cfg.AllRows()); err != nil {
			t.Fatal(err)
		}
		for _, sql := range statements {
			res := mustExec(t, r, sql)
			answers = append(answers, res)
			simSec += res.Stats.SimTotalSec()
		}
		return answers, simSec
	}
	one, oneSec := run(1)
	four, fourSec := run(4)
	for i, sql := range statements {
		if err := closeRows(one[i].Rows, four[i].Rows); err != nil {
			t.Errorf("%q: 4 shards vs 1: %v", sql, err)
		}
	}
	if fourSec*1.5 > oneSec {
		t.Errorf("4 shards cost %.1f simulated s, 1 shard %.1f s: %.2fx, want >= 1.5x", fourSec, oneSec, oneSec/fourSec)
	}
}

// TestGroupByWithoutAggregateAnswersGroups: a GROUP BY with no aggregate
// answers its distinct groups — on a warehouse and through a 4-shard fleet,
// by exec and by cursor — not one row per input row (nor one group list per
// shard). A column beside it that is neither grouped nor aggregated is
// rejected, as it is next to an aggregate.
func TestGroupByWithoutAggregateAnswersGroups(t *testing.T) {
	cfg := testMeterConfig()
	w := newShardWarehouse(0)
	setupMeter(t, w, cfg, false)
	r := testRouter(t, 4, HashKey, false)

	type store interface {
		loader
		SelectCursor(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (hive.Cursor, error)
	}
	cases := []struct{ sql, ref string }{
		{`SELECT regionId FROM meterdata GROUP BY regionId`,
			`SELECT regionId, count(*) FROM meterdata GROUP BY regionId`},
		{`SELECT regionId, userId FROM meterdata WHERE userId<=9 GROUP BY regionId, userId`,
			`SELECT regionId, userId, count(*) FROM meterdata WHERE userId<=9 GROUP BY regionId, userId`},
	}
	for name, st := range map[string]store{"warehouse": w, "4 shards": r} {
		for _, tc := range cases {
			// The groups an aggregate over the same GROUP BY reports, minus
			// its count column.
			var want []string
			for _, row := range mustExec(t, st, tc.ref).Rows {
				want = append(want, renderRows([]storage.Row{row[:len(row)-1]})[0])
			}
			if got := renderRows(mustExec(t, st, tc.sql).Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s exec %q: %d rows %v, want the %d groups %v", name, tc.sql, len(got), got, len(want), want)
			}
			cur, err := st.SelectCursor(context.Background(), mustParseSelect(t, tc.sql), hive.ExecOptions{})
			if err != nil {
				t.Fatalf("%s cursor %q: %v", name, tc.sql, err)
			}
			var rows []storage.Row
			for cur.Next() {
				rows = append(rows, cur.Row())
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("%s cursor %q: %v", name, tc.sql, err)
			}
			cur.Close()
			if got := renderRows(rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s cursor %q: %d rows %v, want the %d groups %v", name, tc.sql, len(got), got, len(want), want)
			}
		}
		_, err := exec(st, `SELECT regionId, userId FROM meterdata GROUP BY regionId`)
		if err == nil || !strings.Contains(err.Error(), "must appear in GROUP BY or an aggregate") {
			t.Errorf("%s: ungrouped column beside a GROUP BY: err = %v, want rejection", name, err)
		}
	}
}
