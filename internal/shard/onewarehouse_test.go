package shard

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// A shard is one warehouse and its replicas are executors over it, so a
// replicated fleet stores exactly what an unreplicated one stores, every
// build and load runs once per shard, and a replica that was down misses
// nothing. The tests below pin those three properties.

// unindexedRouter builds a Shards x Replicas fleet with the meter workload
// loaded and no index yet.
func unindexedRouter(t testing.TB, shards, replicas int) *Router {
	t.Helper()
	r, err := New(Config{Shards: shards, Replicas: replicas, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	setupMeter(t, r, testMeterConfig(), false)
	return r
}

// lateReadings is one reading of every meter user on a day after the base
// data, so a load of it touches every shard.
func lateReadings(day int) []storage.Row {
	cfg := testMeterConfig()
	ts := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
	rows := make([]storage.Row, 0, cfg.Users)
	for u := 1; u <= cfg.Users; u++ {
		rows = append(rows, storage.Row{storage.Int64(int64(u)), storage.Int64(cfg.RegionOf(int64(u))),
			storage.Time(ts), storage.Float64(float64(u) / 4)})
	}
	return rows
}

// loadTables are the table shapes whose loads write files: plain TEXTFILE
// and RCFILE, a partitioned RCFILE, and DGF-indexed TEXTFILE and RCFILE
// tables (a load stages its rows as a text file for the index append).
var loadTables = []struct{ name, ddl, index string }{
	{name: "tx", ddl: `CREATE TABLE tx (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`},
	{name: "rc", ddl: `CREATE TABLE rc (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`},
	{name: "pm", ddl: `CREATE TABLE pm (userId bigint, regionId bigint, ts timestamp, powerConsumed double) PARTITIONED BY (regionId) STORED AS RCFILE`},
	{name: "dt", ddl: `CREATE TABLE dt (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`,
		index: `CREATE INDEX dtx ON TABLE dt(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1',
			'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`},
	{name: "dr", ddl: `CREATE TABLE dr (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`,
		index: `CREATE INDEX drx ON TABLE dr(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1',
			'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`},
}

// loadTablesDays creates every table of loadTables on each fleet and loads
// days of late readings into each, indexing a table after its first day.
// Synchronous loads are applied when acked; others are acked once logged
// and applied by the drain that follows each load.
func loadTablesDays(t *testing.T, days int, sync bool, fleets ...*Router) {
	t.Helper()
	for day := 0; day < days; day++ {
		for _, tb := range loadTables {
			for _, r := range fleets {
				if day == 0 {
					mustExec(t, r, tb.ddl)
				}
				if _, err := r.LoadRowsDurable(context.Background(), tb.name, lateReadings(day), sync); err != nil {
					t.Fatalf("day %d into %s: %v", day, tb.name, err)
				}
				drainFleet(t, r)
				if day == 0 && tb.index != "" {
					mustExec(t, r, tb.index)
				}
			}
		}
	}
}

// checkStoresAsUnreplicated requires each shard of r to have written and to
// hold what the same shard of want — a fleet with one replica per shard,
// given the same statements — has: the same bytes written, the same files
// with the same bytes, and for every DGF-indexed table the same GFU pairs.
func checkStoresAsUnreplicated(t testing.TB, r, want *Router) {
	t.Helper()
	for s := 0; s < r.NumShards(); s++ {
		got, exp := r.Shard(s), want.Shard(s)
		if g, w := got.FS.BytesWritten(), exp.FS.BytesWritten(); g != w {
			t.Errorf("shard %d wrote %d bytes, the unreplicated shard %d", s, g, w)
		}
		a, b := goldenReplicaTree(t, got), goldenReplicaTree(t, exp)
		if len(a) != len(b) {
			t.Errorf("shard %d holds %d files, the unreplicated shard %d", s, len(a), len(b))
		}
		for p, data := range b {
			if other, ok := a[p]; !ok || !bytes.Equal(data, other) {
				t.Errorf("shard %d: %s differs from the unreplicated shard's", s, p)
			}
		}
		for _, info := range exp.TableInfos() {
			if !info.HasDgfIndex {
				continue
			}
			if g, w := gfuPairs(t, got, info.Name), gfuPairs(t, exp, info.Name); !slices.Equal(g, w) {
				t.Errorf("shard %d: %s holds %d GFU pairs, the unreplicated shard %d, or their bytes differ", s, info.Name, len(g), len(w))
			}
		}
	}
}

// gfuPairs renders every GFU pair of table's DGFIndex on w, in key order.
func gfuPairs(t testing.TB, w *hive.Warehouse, table string) []string {
	t.Helper()
	tbl, err := w.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range tbl.DgfKV.ScanPrefix("g/") {
		out = append(out, fmt.Sprintf("%s=%x", p.Key, p.Value))
	}
	return out
}

// drainFleet applies everything r's engine has logged.
func drainFleet(t testing.TB, r *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.DrainWAL(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestReplicaSetBuildRunsOncePerSet: on a 4x2 fleet each shard's CREATE
// INDEX job and each shard's append of a sync load into the indexed table
// run once: every shard writes the bytes and holds the files and GFU pairs
// of the same shard of a 4x1 fleet.
func TestReplicaSetBuildRunsOncePerSet(t *testing.T) {
	r, single := unindexedRouter(t, 4, 2), unindexedRouter(t, 4, 1)
	for _, f := range []*Router{r, single} {
		mustExec(t, f, meterIndexSQL)
		if _, err := f.LoadRowsDurable(context.Background(), "meterdata", lateReadings(9), true); err != nil {
			t.Fatal(err)
		}
	}
	checkStoresAsUnreplicated(t, r, single)
}

// TestReplicaSetLoadWrittenOncePerSet: on a 4x2 fleet every sync load into a
// TEXTFILE, an RCFILE, a partitioned RCFILE and a DGF-indexed table is
// written once per shard — each shard holds what a 4x1 shard holds — and
// every table answers as on a 1x1 fleet.
func TestReplicaSetLoadWrittenOncePerSet(t *testing.T) {
	var fleets [3]*Router
	for i, shape := range [][2]int{{4, 2}, {4, 1}, {1, 1}} {
		r, err := New(Config{Shards: shape[0], Replicas: shape[1], Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.CloseWAL() })
		fleets[i] = r
	}
	r, single, oracle := fleets[0], fleets[1], fleets[2]
	loadTablesDays(t, 4, true, r, single, oracle)
	checkStoresAsUnreplicated(t, r, single)
	for _, tb := range loadTables {
		for _, q := range []string{
			`SELECT count(*), sum(powerConsumed) FROM ` + tb.name,
			`SELECT regionId, count(*), max(ts), sum(powerConsumed) FROM ` + tb.name + ` WHERE userId>=3 AND userId<=30 GROUP BY regionId`,
		} {
			want, got := mustExec(t, oracle, q), mustExec(t, r, q)
			if err := closeRows(want.Rows, got.Rows); err != nil {
				t.Errorf("%s: %v", q, err)
			}
		}
	}
}

// TestReplicaSetSiblingsShareSealedBytes: on a 4x2 fleet, with loads applied
// before their ack and with loads acked once logged, every replica of a
// shard reads the shard's one filesystem, which holds each file — TEXTFILE
// and RCFILE parts, a partitioned table's parts, a DGFIndex's slice files —
// once: exactly the files and bytes of a 4x1 fleet.
func TestReplicaSetSiblingsShareSealedBytes(t *testing.T) {
	for _, logged := range []bool{false, true} {
		name := "applied"
		if logged {
			name = "logged"
		}
		t.Run(name, func(t *testing.T) {
			var fleets [2]*Router
			for i, replicas := range []int{2, 1} {
				r, err := New(Config{Shards: 4, Replicas: replicas, Key: "userId"}, newShardWarehouse)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.CloseWAL() })
				if logged {
					enableTestWAL(t, r, t.TempDir())
				}
				fleets[i] = r
			}
			loadTablesDays(t, 3, !logged, fleets[0], fleets[1])
			checkStoresAsUnreplicated(t, fleets[0], fleets[1])
		})
	}
}

// TestReplicaSetSiblingsShareGFUPairs: on a 4x2 fleet, with loads applied
// before their ack and with loads acked once logged, a DGFIndex's pairs —
// TEXTFILE or RCFILE — are held once per shard, and are appended whether or
// not the shard's replicas are live: with replica 0 of every shard killed
// for the second day's loads and both replicas of shard 1 killed for the
// third's, each shard holds the pairs of a healthy 4x1 fleet.
func TestReplicaSetSiblingsShareGFUPairs(t *testing.T) {
	for _, logged := range []bool{false, true} {
		name := "applied"
		if logged {
			name = "logged"
		}
		t.Run(name, func(t *testing.T) {
			var fleets [2]*Router
			for i, replicas := range []int{2, 1} {
				r, err := New(Config{Shards: 4, Replicas: replicas, Key: "userId"}, newShardWarehouse)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.CloseWAL() })
				if logged {
					enableTestWAL(t, r, t.TempDir())
				}
				fleets[i] = r
			}
			r := fleets[0]
			for day := 0; day < 3; day++ {
				switch day {
				case 1:
					for s := 0; s < r.NumShards(); s++ {
						r.Kill(s, 0)
					}
				case 2:
					r.Kill(1, 1)
				}
				for _, tb := range loadTables[3:] {
					for _, f := range fleets {
						if day == 0 {
							mustExec(t, f, tb.ddl)
						}
						if _, err := f.LoadRowsDurable(context.Background(), tb.name, lateReadings(day), !logged); err != nil {
							t.Fatalf("day %d into %s: %v", day, tb.name, err)
						}
						drainFleet(t, f)
						if day == 0 {
							mustExec(t, f, tb.index)
						}
					}
				}
			}
			checkStoresAsUnreplicated(t, r, fleets[1])
		})
	}
}

// TestReplicaSetCreateIndexMessageMatchesUnreplicated: a 4x2 fleet's CREATE
// INDEX answers with the message of a 4x1 fleet over the same rows.
func TestReplicaSetCreateIndexMessageMatchesUnreplicated(t *testing.T) {
	var msgs [2]string
	for i, replicas := range []int{1, 2} {
		msgs[i] = mustExec(t, unindexedRouter(t, 4, replicas), meterIndexSQL).Message
	}
	if msgs[0] == "" || msgs[0] != msgs[1] {
		t.Fatalf("CREATE INDEX answered %q on 4x1 and %q on 4x2", msgs[0], msgs[1])
	}
}

// TestReplicaSetRevivedReplicaHoldsItsSiblingsFiles: behind a log directory,
// async loads committed while a replica is down are applied to the shard's
// warehouse regardless, so the replica is live the moment it is revived and,
// with its sibling then killed, answers with the rows and stats of a 1x1
// fleet given the same loads — three loads per table are three part files,
// not one merged file.
func TestReplicaSetRevivedReplicaHoldsItsSiblingsFiles(t *testing.T) {
	const rcDDL = `CREATE TABLE rc (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`
	r := loggedRouter(t, 1, 2, true, wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff})
	t.Cleanup(func() { r.CloseWAL() })
	oracle := replicatedRouter(t, 1, 1, true)
	t.Cleanup(func() { oracle.CloseWAL() })
	for _, f := range []*Router{r, oracle} {
		mustExec(t, f, rcDDL)
	}

	r.Kill(0, 1)
	for _, table := range []string{"meterdata", "rc"} {
		for day := 10; day < 13; day++ {
			for _, f := range []*Router{r, oracle} {
				if _, err := f.LoadRowsDurable(context.Background(), table, lateReadings(day), false); err != nil {
					t.Fatalf("day %d into %s: %v", day, table, err)
				}
				drainFleet(t, f)
			}
		}
	}
	r.Revive(0, 1)
	if h := r.Health()[0]; h.Live != 2 {
		t.Fatalf("a revived replica is not live at once: %+v", h)
	}
	r.Kill(0, 0)

	for _, table := range []string{"meterdata", "rc"} {
		q := `SELECT regionId, sum(powerConsumed), count(*) FROM ` + table + ` WHERE userId>=3 AND userId<=30 GROUP BY regionId`
		want, got := mustExec(t, oracle, q), mustExec(t, r, q)
		if a, b := renderRows(want.Rows), renderRows(got.Rows); !slices.Equal(a, b) {
			t.Errorf("%s: the revived replica answers %v, the 1x1 fleet %v", q, b, a)
		}
		a, b := want.Stats, got.Stats
		if a.Splits != b.Splits || a.RecordsRead != b.RecordsRead || a.BytesRead != b.BytesRead ||
			a.IndexSimSec != b.IndexSimSec || a.DataSimSec != b.DataSimSec {
			t.Errorf("%s: stats differ:\n1x1     %+v\nrevived %+v", q, a, b)
		}
	}
}

// TestReplicaKilledAcrossDDLAnswersAsSibling: a replica killed before a
// CREATE TABLE, a CREATE INDEX and a sync load misses none of them. On 1x2
// and 4x2 fleets, with and without a log directory, the DDL succeeds with
// the replica down; revived, and with its sibling killed so that it must
// answer, it answers as a 1x1 warehouse without a log does, and no applier
// is stalled.
func TestReplicaKilledAcrossDDLAnswersAsSibling(t *testing.T) {
	const (
		ddl   = `CREATE TABLE late (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`
		index = `CREATE INDEX latex ON TABLE late(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1',
			'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`
	)
	queries := []string{
		`SELECT count(*), sum(powerConsumed) FROM late`,
		`SELECT sum(powerConsumed), count(*) FROM late WHERE userId>=3 AND userId<=30 AND ts>='2012-12-02' AND ts<'2012-12-05'`,
		`SELECT regionId, count(*), max(ts), sum(powerConsumed) FROM late WHERE userId>=2 AND userId<=40 GROUP BY regionId`,
	}
	oracle, err := New(Config{Shards: 1, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.CloseWAL() })
	for _, sql := range []string{ddl, index} {
		mustExec(t, oracle, sql)
	}
	for day := 1; day < 5; day++ {
		if _, err := oracle.LoadRowsDurable(context.Background(), "late", lateReadings(day), true); err != nil {
			t.Fatal(err)
		}
	}

	for _, shards := range []int{1, 4} {
		for _, logged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx2/wal=%t", shards, logged), func(t *testing.T) {
				r, err := New(Config{Shards: shards, Replicas: 2, Key: "userId"}, newShardWarehouse)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.CloseWAL() })
				if logged {
					enableTestWAL(t, r, t.TempDir())
				}
				r.Kill(0, 1)
				for _, sql := range []string{ddl, index} {
					if _, err := exec(r, sql); err != nil {
						t.Fatalf("%s with shard 0 replica 1 down: %v", sql, err)
					}
				}
				for day := 1; day < 5; day++ {
					if _, err := r.LoadRowsDurable(context.Background(), "late", lateReadings(day), true); err != nil {
						t.Fatalf("sync load with shard 0 replica 1 down: %v", err)
					}
				}
				r.Revive(0, 1)
				r.Kill(0, 0)
				for _, q := range queries {
					want := mustExec(t, oracle, q)
					got, err := exec(r, q)
					if err != nil {
						t.Fatalf("%s answered by the revived replica: %v", q, err)
					}
					if err := closeRows(want.Rows, got.Rows); err != nil {
						t.Errorf("%s: %v", q, err)
					}
				}
				for _, sh := range r.WALStats() {
					for _, ap := range sh.Replicas {
						if ap.Stalled != "" {
							t.Errorf("shard %d applier stalled: %s", sh.Shard, ap.Stalled)
						}
					}
				}
			})
		}
	}
}
