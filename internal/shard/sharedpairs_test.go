package shard

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// indexedTables are a TEXTFILE and an RCFILE table, each with a DGFIndex.
var indexedTables = []struct{ name, ddl, index string }{
	{name: "dt", ddl: `CREATE TABLE dt (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`,
		index: `CREATE INDEX dtx ON TABLE dt(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1',
			'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`},
	{name: "dr", ddl: `CREATE TABLE dr (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`,
		index: `CREATE INDEX drx ON TABLE dr(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1',
			'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`},
}

// siblingPairs compares the GFU pairs of table's DGFIndex on warehouses a
// and b, which must hold the same keys and value bytes. It counts the pairs
// whose value on b is the very memory of a's (shared) and those it is not.
func siblingPairs(t testing.TB, a, b *hive.Warehouse, table string) (shared, own int) {
	t.Helper()
	var pairs [2][]string
	var values [2][][]byte
	for i, w := range []*hive.Warehouse{a, b} {
		tbl, err := w.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.DgfKV == nil {
			t.Fatalf("%s has no DGFIndex", table)
		}
		for _, p := range tbl.DgfKV.ScanPrefix("g/") {
			pairs[i] = append(pairs[i], p.Key)
			values[i] = append(values[i], p.Value)
		}
	}
	if len(pairs[0]) != len(pairs[1]) || len(pairs[0]) == 0 {
		t.Fatalf("%s: the replicas hold %d and %d GFU pairs", table, len(pairs[0]), len(pairs[1]))
	}
	for i, k := range pairs[0] {
		va, vb := values[0][i], values[1][i]
		if pairs[1][i] != k || !bytes.Equal(va, vb) {
			t.Fatalf("%s: pair %d is %q on one replica and %q on the other", table, i, k, pairs[1][i])
		}
		if &va[0] == &vb[0] {
			shared++
		} else {
			own++
		}
	}
	return shared, own
}

// checkSiblingsSharePairs requires every GFU pair of table's DGFIndex on each
// shard's other replicas to be the bytes replica 0 holds, not a copy.
func checkSiblingsSharePairs(t testing.TB, r *Router, table string) {
	t.Helper()
	for s := 0; s < r.NumShards(); s++ {
		for j := 1; j < r.NumReplicas(); j++ {
			if shared, own := siblingPairs(t, r.Replica(s, 0), r.Replica(s, j), table); own != 0 {
				t.Errorf("shard %d replica %d: %s holds %d GFU pairs of its own beside %d shared", s, j, table, own, shared)
			}
		}
	}
}

// TestReplicaSetSiblingsShareGFUPairs: on a 4x2 fleet, with and without a
// log directory, a sibling's key-value store holds no copy of a DGFIndex's
// pairs — TEXTFILE or RCFILE — after CREATE INDEX and after each load
// appended through the log: every pair is its publisher's bytes.
func TestReplicaSetSiblingsShareGFUPairs(t *testing.T) {
	for _, logged := range []bool{false, true} {
		name := "applied"
		if logged {
			name = "logged"
		}
		t.Run(name, func(t *testing.T) {
			r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.CloseWAL() })
			if logged {
				enableTestWAL(t, r, t.TempDir())
			}
			for day := 0; day < 3; day++ {
				for _, tb := range indexedTables {
					if day == 0 {
						mustExec(t, r, tb.ddl)
					}
					if _, err := r.LoadRowsDurable(context.Background(), tb.name, lateReadings(day), true); err != nil {
						t.Fatalf("day %d into %s: %v", day, tb.name, err)
					}
					if day == 0 {
						mustExec(t, r, tb.index)
					}
					checkSiblingsSharePairs(t, r, tb.name)
				}
			}
			for s := 0; s < r.NumShards(); s++ {
				checkJobCounts(t, r, s, 3*len(indexedTables), 3*len(indexedTables))
			}
			checkReplicasIdentical(t, r)
		})
	}
}

// TestReplicaSetSiblingTwoLoadsBehindInstallsEach: one replica applies two
// loads — each a load and an append of a DGF-indexed table, and a load of an
// RCFILE table — before its sibling applies either, as an applier that runs
// ahead does while its sibling's applier has the four records queued. The
// record holds every one of them for the sibling, which installs them all:
// each load and each append is written once, both replicas end with the
// same files and shared GFU pairs, and the record ends empty.
func TestReplicaSetSiblingTwoLoadsBehindInstallsEach(t *testing.T) {
	queued := make([]int, 2) // each replica's queue of logged records, as its applier counts it
	jobs := dgf.NewSharedJobs(2, func(j int) int { return queued[j] })
	ws := []*hive.Warehouse{newShardWarehouse(0, 0), newShardWarehouse(0, 1)}
	for j, w := range ws {
		w.DgfJobs = jobs[j]
	}
	for _, w := range ws {
		setupMeter(t, w, testMeterConfig(), true)
		mustExec(t, w, sharedLoadTables[1].ddl)
	}
	written, loadsInstalled := jobs[0].LoadCounts()
	ran, installed := jobs[0].Counts()
	if written != loadsInstalled || ran != 1 || installed != 1 {
		t.Fatalf("set-up wrote %d loads and installed %d, ran %d jobs and installed %d", written, loadsInstalled, ran, installed)
	}

	queued[0], queued[1] = 4, 4
	for j, w := range ws {
		for day := 20; day < 22; day++ {
			for _, table := range []string{"meterdata", "rc"} {
				if err := w.LoadRowsByName(table, lateReadings(day)); err != nil {
					t.Fatalf("day %d into %s: %v", day, table, err)
				}
				queued[j]--
			}
		}
	}
	w2, i2 := jobs[0].LoadCounts()
	if w2-written != 4 || i2-loadsInstalled != 4 {
		t.Errorf("the loads were written %d times and installed %d times, want 4 and 4", w2-written, i2-loadsInstalled)
	}
	if r2, in2 := jobs[0].Counts(); r2-ran != 2 || in2-installed != 2 {
		t.Errorf("the appends ran %d times and were installed %d times, want 2 and 2", r2-ran, in2-installed)
	}
	if held, heldLoads := jobs[0].Held(), jobs[0].HeldLoads(); held != 0 || heldLoads != 0 {
		t.Errorf("the record holds %d jobs and %d loads, want none", held, heldLoads)
	}
	a, b := goldenReplicaTree(t, ws[0]), goldenReplicaTree(t, ws[1])
	if len(a) != len(b) {
		t.Errorf("the replicas hold %d and %d files", len(a), len(b))
	}
	for p, data := range a {
		if other, ok := b[p]; !ok || !bytes.Equal(data, other) {
			t.Errorf("%s differs between the replicas", p)
		}
	}
	if shared, own := siblingPairs(t, ws[0], ws[1], "meterdata"); own != 0 {
		t.Errorf("the sibling holds %d GFU pairs of its own beside %d shared", own, shared)
	}
}

// TestReplicaSetParkedApplierInstallsEachLoad: on a 1x2 fleet behind a log
// directory, the applier that applies the first of ten logged loads first
// parks after it, so its sibling applies the other nine — five into the
// RCFILE table, four into the DGF-indexed meterdata, each with its append —
// while the nine records wait in the parked applier's queue. The record
// holds all nine loads and four appends for the parked replica, as many as
// its queue says it will start; once released it installs each: every load
// and every append is written once, the replicas hold the same files, the
// sibling's GFU pairs are the publisher's, and the record ends empty.
func TestReplicaSetParkedApplierInstallsEachLoad(t *testing.T) {
	r := replicatedRouter(t, 1, 2, true)
	t.Cleanup(func() { r.CloseWAL() })
	mustExec(t, r, sharedLoadTables[1].ddl)
	jobs := r.Replica(0, 0).DgfJobs
	written, loadsInstalled := jobs.LoadCounts()
	ran, installed := jobs.Counts()

	gate := make(chan struct{})
	var parked atomic.Bool
	park := func(string, int) {
		if parked.CompareAndSwap(false, true) {
			<-gate
		}
	}
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff, OnApply: park}); err != nil {
		t.Fatal(err)
	}
	var released atomic.Bool
	release := func() {
		if released.CompareAndSwap(false, true) {
			close(gate)
		}
	}
	t.Cleanup(release) // runs before CloseWAL, which waits for the parked applier

	for day := 20; day < 25; day++ {
		for _, table := range []string{"meterdata", "rc"} {
			if _, err := r.LoadRowsDurable(context.Background(), table, lateReadings(day), false); err != nil {
				t.Fatalf("day %d into %s: %v", day, table, err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for jobs.HeldLoads() != 9 || jobs.Held() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("with one applier parked after the first of ten loads the record holds %d loads and %d appends, want 9 and 4",
				jobs.HeldLoads(), jobs.Held())
		}
		time.Sleep(time.Millisecond)
	}
	release()
	waitFleetSettled(t, r)
	if w, i := jobs.LoadCounts(); w-written != 10 || i-loadsInstalled != 10 {
		t.Errorf("the loads were written %d times and installed %d times, want 10 and 10", w-written, i-loadsInstalled)
	}
	if n, in := jobs.Counts(); n-ran != 5 || in-installed != 5 {
		t.Errorf("the appends ran %d times and were installed %d times, want 5 and 5", n-ran, in-installed)
	}
	if held, heldLoads := jobs.Held(), jobs.HeldLoads(); held != 0 || heldLoads != 0 {
		t.Errorf("the record holds %d jobs and %d loads, want none", held, heldLoads)
	}
	checkReplicasIdentical(t, r)
	checkSiblingsSharePairs(t, r, "meterdata")
}
