package shard

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// sharedLoadTables are the table shapes whose loads write files: plain
// TEXTFILE and RCFILE, a partitioned RCFILE, and a DGF-indexed table (a load
// stages its rows as a text file for the index append).
var sharedLoadTables = []struct{ name, ddl, index string }{
	{name: "tx", ddl: `CREATE TABLE tx (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`},
	{name: "rc", ddl: `CREATE TABLE rc (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`},
	{name: "pm", ddl: `CREATE TABLE pm (userId bigint, regionId bigint, ts timestamp, powerConsumed double) PARTITIONED BY (regionId) STORED AS RCFILE`},
	{name: "dg", ddl: `CREATE TABLE dg (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`,
		index: `CREATE INDEX dgx ON TABLE dg(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1',
			'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`},
}

// checkLoadCounts requires shard s's replica set to have written and
// installed the given numbers of loads and to hold no load and no job.
func checkLoadCounts(t testing.TB, r *Router, s, wantWritten, wantInstalled int) {
	t.Helper()
	jobs := r.Replica(s, 0).DgfJobs
	if written, installed := jobs.LoadCounts(); written != wantWritten || installed != wantInstalled {
		t.Errorf("shard %d: %d loads written and %d installed, want %d and %d", s, written, installed, wantWritten, wantInstalled)
	}
	if held, heldJobs := jobs.HeldLoads(), jobs.Held(); held != 0 || heldJobs != 0 {
		t.Errorf("shard %d: the record holds %d loads and %d jobs, want none", s, held, heldJobs)
	}
}

// checkReplicasIdentical requires both replicas of every shard to hold the
// same files with the same bytes.
func checkReplicasIdentical(t *testing.T, r *Router) {
	t.Helper()
	for s := 0; s < r.NumShards(); s++ {
		a, b := goldenReplicaTree(t, r.Replica(s, 0)), goldenReplicaTree(t, r.Replica(s, 1))
		if len(a) != len(b) {
			t.Errorf("shard %d: replicas hold %d and %d files", s, len(a), len(b))
		}
		for p, data := range a {
			if other, ok := b[p]; !ok || !bytes.Equal(data, other) {
				t.Errorf("shard %d: %s differs between the replicas", s, p)
			}
		}
	}
}

// TestReplicaSetLoadWrittenOncePerSet: on a 4x2 fleet every sync load into a
// TEXTFILE, an RCFILE, a partitioned RCFILE and a DGF-indexed table is
// encoded by one replica of each shard and installed by the other; the
// record holds nothing after each load, both replicas' trees are
// byte-identical, and every table answers as on a 1x1 fleet.
func TestReplicaSetLoadWrittenOncePerSet(t *testing.T) {
	r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	oracle, err := New(Config{Shards: 1, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.CloseWAL() })
	loads := 0
	for day := 0; day < 4; day++ {
		for _, tb := range sharedLoadTables {
			for _, f := range []*Router{r, oracle} {
				if day == 0 {
					mustExec(t, f, tb.ddl)
				}
				if _, err := f.LoadRowsDurable(context.Background(), tb.name, lateReadings(day), true); err != nil {
					t.Fatalf("day %d into %s: %v", day, tb.name, err)
				}
				if day == 0 && tb.index != "" {
					mustExec(t, f, tb.index)
				}
			}
			loads++ // a load of lateReadings touches every shard
			for s := 0; s < r.NumShards(); s++ {
				checkLoadCounts(t, r, s, loads, loads)
			}
		}
	}
	for s := 0; s < r.NumShards(); s++ {
		// The index build and its three appends ran once per set too.
		checkJobCounts(t, r, s, 4, 4)
	}
	checkReplicasIdentical(t, r)
	for _, tb := range sharedLoadTables {
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

// TestReplicaSetLoadKilledSiblingHoldsOneLoadPerTable: behind a log
// directory, with replica 0 of shard 1 killed, its sibling publishes the
// first load of each table for it and writes the rest alone, so the record
// holds one load per table. After Revive the killed replica installs that
// load as it catches up from the log, the record empties, both replicas hold
// the same bytes, and the fleet answers as a 1x1 fleet given the same loads.
func TestReplicaSetLoadKilledSiblingHoldsOneLoadPerTable(t *testing.T) {
	const rcDDL = `CREATE TABLE rc (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`
	r := replicatedRouter(t, 4, 2, true)
	t.Cleanup(func() { r.CloseWAL() })
	oracle := replicatedRouter(t, 1, 1, true)
	t.Cleanup(func() { oracle.CloseWAL() })
	for _, f := range []*Router{r, oracle} {
		mustExec(t, f, rcDDL)
	}
	enableTestWAL(t, r, t.TempDir())

	r.Kill(1, 0)
	for day := 10; day < 15; day++ {
		for _, table := range []string{"meterdata", "rc"} {
			for _, f := range []*Router{r, oracle} {
				if _, err := f.LoadRowsDurable(context.Background(), table, lateReadings(day), true); err != nil {
					t.Fatalf("day %d into %s: %v", day, table, err)
				}
			}
		}
	}
	jobs := r.Replica(1, 1).DgfJobs
	if held := jobs.HeldLoads(); held != 2 {
		t.Errorf("with a replica down the record holds %d loads, want one per table (2)", held)
	}
	if held := jobs.Held(); held > 1 {
		t.Errorf("with a replica down the record holds %d index jobs, want at most 1", held)
	}

	r.Revive(1, 0)
	waitFleetSettled(t, r)
	for s := 0; s < r.NumShards(); s++ {
		jobs := r.Replica(s, 0).DgfJobs
		if held, heldJobs := jobs.HeldLoads(), jobs.Held(); held != 0 || heldJobs != 0 {
			t.Errorf("shard %d after catch-up: the record holds %d loads and %d jobs, want none", s, held, heldJobs)
		}
	}
	if _, installed := jobs.LoadCounts(); installed == 0 {
		t.Error("the revived replica installed no load")
	}
	checkReplicasIdentical(t, r)
	queries := append(meterQuerySuite(testMeterConfig()),
		`SELECT count(*), sum(powerConsumed) FROM rc`,
		`SELECT regionId, count(*), max(ts) FROM rc WHERE userId>=3 AND userId<=30 GROUP BY regionId`)
	for _, q := range queries {
		want, got := mustExec(t, oracle, q), mustExec(t, r, q)
		if err := closeRows(want.Rows, got.Rows); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// TestReplicaSetRevivedReplicaHoldsItsSiblingsFiles: a replica revived
// behind a log directory replays the records it missed one load each, as its
// live sibling applied them, so both hold the same files and answer with the
// same stats — three async loads per table committed while it was down
// become three part files on both replicas, not one merged file on it.
func TestReplicaSetRevivedReplicaHoldsItsSiblingsFiles(t *testing.T) {
	r := replicatedRouter(t, 1, 2, true)
	t.Cleanup(func() { r.CloseWAL() })
	mustExec(t, r, `CREATE TABLE rc (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`)
	enableTestWAL(t, r, t.TempDir())

	r.Kill(0, 1)
	for _, table := range []string{"meterdata", "rc"} {
		for day := 10; day < 13; day++ {
			if _, err := r.LoadRowsDurable(context.Background(), table, lateReadings(day), false); err != nil {
				t.Fatalf("day %d into %s: %v", day, table, err)
			}
			// The live replica applies each load before the next one
			// arrives; the killed one is owed all six from the log.
			waitFleetSettled(t, r)
		}
	}
	r.Revive(0, 1)
	waitFleetSettled(t, r)

	checkReplicasIdentical(t, r)
	for _, table := range []string{"meterdata", "rc"} {
		q := `SELECT regionId, sum(powerConsumed), count(*) FROM ` + table + ` WHERE userId>=3 AND userId<=30 GROUP BY regionId`
		var res [2]*hive.Result
		for i := range res {
			var err error
			if res[i], err = r.Replica(0, i).ExecContext(context.Background(), q, hive.ExecOptions{}); err != nil {
				t.Fatalf("replica %d: %q: %v", i, q, err)
			}
		}
		if a, b := renderRows(res[0].Rows), renderRows(res[1].Rows); !slices.Equal(a, b) {
			t.Errorf("%s: replicas answer %v and %v", q, a, b)
		}
		a, b := res[0].Stats, res[1].Stats
		if a.Splits != b.Splits || a.RecordsRead != b.RecordsRead || a.BytesRead != b.BytesRead ||
			a.IndexSimSec != b.IndexSimSec || a.DataSimSec != b.DataSimSec {
			t.Errorf("%s: replica stats differ:\n%+v\n%+v", q, a, b)
		}
	}
}

// BenchmarkReplicaSetLoad is the layer number of the shared loads: 30 sync
// day loads of 4,800 rows into a 4x2 fleet's table (the fleet's creation is
// outside the timer), per storage format. It reports ns/row and
// retained-B/set, the live heap a replica set holds after the loads, and
// fails unless each load was written once and installed once per set and
// each sibling's files hold their publisher's bytes.
func BenchmarkReplicaSetLoad(b *testing.B) {
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		b.Run(stored, func(b *testing.B) {
			cfg := testMeterConfig()
			cfg.Users, cfg.ReadingsPerDay, cfg.Days = 400, 12, 30
			all, perDay := cfg.AllRows(), cfg.Users*cfg.ReadingsPerDay
			days := make([][]storage.Row, cfg.Days)
			for d := range days {
				days[d] = all[d*perDay : (d+1)*perDay]
			}
			b.ReportAllocs()
			b.ResetTimer()
			var retained float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveHeap()
				r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
				if err != nil {
					b.Fatal(err)
				}
				mustExec(b, r, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS `+stored)
				b.StartTimer()
				for d, day := range days {
					if _, err := r.LoadRowsDurable(context.Background(), "meterdata", day, true); err != nil {
						b.Fatalf("day %d: %v", d, err)
					}
				}
				b.StopTimer()
				retained += float64(int64(liveHeap())-int64(before)) / float64(r.NumShards())
				for s := 0; s < r.NumShards(); s++ {
					checkLoadCounts(b, r, s, len(days), len(days))
				}
				checkSiblingsShare(b, r, true)
				if b.Failed() {
					b.FailNow()
				}
				r.CloseWAL()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(all)), "ns/row")
			b.ReportMetric(retained/float64(b.N), "retained-B/set")
		})
	}
}
