package shard

import (
	"context"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
)

// sealedFile returns file p of w's filesystem as a sealed value.
func sealedFile(t testing.TB, w *hive.Warehouse, p string) dfs.SealedFile {
	t.Helper()
	f, err := w.FS.Sealed(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkSiblingsShare requires every non-empty file of each shard's replica 0
// to hold the same payloads as the file at its path on the shard's other
// replicas (want true), or none to (want false).
func checkSiblingsShare(t testing.TB, r *Router, want bool) {
	t.Helper()
	for s := 0; s < r.NumShards(); s++ {
		pub := r.Replica(s, 0)
		files := 0
		for p, data := range goldenReplicaTree(t, pub) {
			if len(data) == 0 {
				continue
			}
			files++
			f := sealedFile(t, pub, p)
			for j := 1; j < r.NumReplicas(); j++ {
				if got := f.Shares(sealedFile(t, r.Replica(s, j), p)); got != want {
					t.Errorf("shard %d: %s shared with replica %d: %v, want %v", s, p, j, got, want)
				}
			}
		}
		if files == 0 {
			t.Errorf("shard %d: replica 0 holds no file", s)
		}
	}
}

// loadSharedTables creates every table of sharedLoadTables on r and loads
// days of late readings into each, synchronously.
func loadSharedTables(t *testing.T, r *Router, days int) {
	t.Helper()
	for day := 0; day < days; day++ {
		for _, tb := range sharedLoadTables {
			if day == 0 {
				mustExec(t, r, tb.ddl)
			}
			if _, err := r.LoadRowsDurable(context.Background(), tb.name, lateReadings(day), true); err != nil {
				t.Fatalf("day %d into %s: %v", day, tb.name, err)
			}
			if day == 0 && tb.index != "" {
				mustExec(t, r, tb.index)
			}
		}
	}
}

// TestReplicaSetSiblingsShareSealedBytes: on a 4x2 fleet, with and without a
// log directory, every file a sync load or an index job leaves on a sibling
// — TEXTFILE and RCFILE parts, a partitioned table's parts, a DGFIndex's
// slice files — holds its publisher's payloads, and both replicas' trees are
// byte-identical.
func TestReplicaSetSiblingsShareSealedBytes(t *testing.T) {
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
			loadSharedTables(t, r, 3)
			for s := 0; s < r.NumShards(); s++ {
				checkLoadCounts(t, r, s, 3*len(sharedLoadTables), 3*len(sharedLoadTables))
			}
			checkReplicasIdentical(t, r)
			checkSiblingsShare(t, r, true)
		})
	}
}

// TestReplicaSetSiblingWithOtherBlockSizeOwnsItsBytes: a sibling whose
// filesystem cuts other blocks still installs its publisher's loads, but
// holds its own copy of their bytes, cut at its own block size.
func TestReplicaSetSiblingWithOtherBlockSizeOwnsItsBytes(t *testing.T) {
	r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, func(s, j int) *hive.Warehouse {
		cc := cluster.Default()
		cc.Workers = 4
		return hive.NewWarehouse(dfs.New(int64(1<<20)>>j), cc, "/warehouse")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	loadSharedTables(t, r, 2)
	for s := 0; s < r.NumShards(); s++ {
		checkLoadCounts(t, r, s, 2*len(sharedLoadTables), 2*len(sharedLoadTables))
	}
	checkReplicasIdentical(t, r)
	checkSiblingsShare(t, r, false)
}

// TestReplicaSetHeldLoadPinsOnlyPublisherBytes: behind a log directory, with
// replica 0 of shard 1 killed, the loads its sibling publishes for it are
// held as the sibling's own sealed files, not as copies; after Revive the
// revived replica installs them and shares its sibling's bytes. (The loads
// past the first of each table, which no record holds, it writes itself.)
func TestReplicaSetHeldLoadPinsOnlyPublisherBytes(t *testing.T) {
	r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	tables := sharedLoadTables[:3] // their files outlive the load, unlike a DGF table's staging file
	for _, tb := range tables {
		mustExec(t, r, tb.ddl)
	}
	enableTestWAL(t, r, t.TempDir())

	r.Kill(1, 0)
	for day := 0; day < 3; day++ {
		for _, tb := range tables {
			if _, err := r.LoadRowsDurable(context.Background(), tb.name, lateReadings(day), true); err != nil {
				t.Fatalf("day %d into %s: %v", day, tb.name, err)
			}
		}
	}
	pub := r.Replica(1, 1)
	if held := pub.DgfJobs.HeldLoads(); held != len(tables) {
		t.Fatalf("with a replica down the record holds %d loads, want one per table (%d)", held, len(tables))
	}
	held := pub.DgfJobs.HeldFiles()
	if len(held) == 0 {
		t.Fatal("the record holds no file")
	}
	for p, f := range held {
		if !f.Shares(sealedFile(t, pub, p)) {
			t.Errorf("held %s is a copy of the publisher's file", p)
		}
	}

	r.Revive(1, 0)
	waitFleetSettled(t, r)
	if n := len(pub.DgfJobs.HeldFiles()); n != 0 {
		t.Errorf("after catch-up the record holds %d files", n)
	}
	checkReplicasIdentical(t, r)
	revived := r.Replica(1, 0)
	for p, f := range held {
		if !f.Shares(sealedFile(t, revived, p)) {
			t.Errorf("the revived replica's %s is a copy of the publisher's file", p)
		}
	}
}
