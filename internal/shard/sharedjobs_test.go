package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

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

// checkJobCounts requires shard s's replica set to have run and installed
// the given numbers of reorganisation jobs and to hold no result.
func checkJobCounts(t *testing.T, r *Router, s, wantRan, wantInstalled int) {
	t.Helper()
	jobs := r.Replica(s, 0).DgfJobs
	if ran, installed := jobs.Counts(); ran != wantRan || installed != wantInstalled {
		t.Errorf("shard %d: %d jobs ran and %d were installed, want %d and %d", s, ran, installed, wantRan, wantInstalled)
	}
	if held := jobs.Held(); held != 0 {
		t.Errorf("shard %d: the record holds %d results, want none", s, held)
	}
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

// TestReplicaSetBuildRunsOncePerSet: on a 4x2 fleet each shard's CREATE
// INDEX job runs on one replica and its sibling installs the output, and so
// does each shard's share of a sync load into the indexed table — after
// which the record holds nothing. An Index.Append on replica 0 alone (the
// benchmark's append probe) leaves at most the one result it published.
func TestReplicaSetBuildRunsOncePerSet(t *testing.T) {
	r := unindexedRouter(t, 4, 2)
	mustExec(t, r, meterIndexSQL)
	for s := 0; s < 4; s++ {
		checkJobCounts(t, r, s, 1, 1)
	}
	if _, err := r.LoadRowsDurable(context.Background(), "meterdata", lateReadings(9), true); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		checkJobCounts(t, r, s, 2, 2)
	}

	w := r.Replica(0, 0)
	tbl, err := w.Table("meterdata")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		staged := fmt.Sprintf("/probe/append-%d", i)
		if err := storage.WriteTextRows(w.FS, staged, lateReadings(10+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Dgf.Append(w.Cluster, []string{staged}); err != nil {
			t.Fatal(err)
		}
		if held := w.DgfJobs.Held(); held != 1 {
			t.Fatalf("after %d appends on replica 0 alone the record holds %d results, want 1", i+1, held)
		}
	}
}

// TestReplicaSetSiblingWithOtherBaseRunsItsOwnJob: a replica whose base
// files differ from its sibling's — one extra batch loaded straight into it
// — does not install the sibling's build: it runs its own, and both replicas
// answer the meter suite as a scan of their own data does.
func TestReplicaSetSiblingWithOtherBaseRunsItsOwnJob(t *testing.T) {
	const s = 2
	r := unindexedRouter(t, 4, 2)
	extra := lateReadings(3)[:5]
	if err := r.Replica(s, 1).LoadRowsByName("meterdata", extra); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, meterIndexSQL)
	for sh := 0; sh < 4; sh++ {
		if sh == s {
			checkJobCounts(t, r, sh, 2, 0)
		} else {
			checkJobCounts(t, r, sh, 1, 1)
		}
	}
	var counts [2]float64
	for j := 0; j < 2; j++ {
		w := r.Replica(s, j)
		indexed := 0
		for _, q := range meterQuerySuite(testMeterConfig()) {
			got, err := w.ExecContext(context.Background(), q, hive.ExecOptions{})
			if err != nil {
				t.Fatalf("replica %d %q: %v", j, q, err)
			}
			want, err := w.ExecContext(context.Background(), q, hive.ExecOptions{DisableIndexes: true})
			if err != nil {
				t.Fatalf("replica %d %q without indexes: %v", j, q, err)
			}
			if err := closeRows(want.Rows, got.Rows); err != nil {
				t.Errorf("replica %d %q: %v", j, q, err)
			}
			if strings.HasPrefix(got.Stats.AccessPath, "dgfindex") {
				indexed++
			}
		}
		if indexed == 0 {
			t.Errorf("replica %d answered no query through its DGFIndex", j)
		}
		res, err := w.ExecContext(context.Background(), "SELECT count(*) FROM meterdata", hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		counts[j] = res.Rows[0][0].AsFloat()
	}
	if counts[1] != counts[0]+float64(len(extra)) {
		t.Errorf("replica row counts %v, want replica 1 to hold %d more", counts, len(extra))
	}
}

// TestReplicaSetCreateIndexMessageMatchesUnreplicated: a 4x2 fleet's CREATE
// INDEX answers with the message of a 4x1 fleet over the same rows, whichever
// replica of shard 0 ran the job, and only the replicated fleet keeps a
// record of jobs.
func TestReplicaSetCreateIndexMessageMatchesUnreplicated(t *testing.T) {
	var msgs [2]string
	for i, replicas := range []int{1, 2} {
		r := unindexedRouter(t, 4, replicas)
		if jobs := r.Replica(0, 0).DgfJobs; (jobs != nil) != (replicas > 1) {
			t.Fatalf("replicas=%d: record of jobs %v", replicas, jobs)
		}
		msgs[i] = mustExec(t, r, meterIndexSQL).Message
	}
	if msgs[0] == "" || msgs[0] != msgs[1] {
		t.Fatalf("CREATE INDEX answered %q on 4x1 and %q on 4x2", msgs[0], msgs[1])
	}
}

// TestReplicaSetBuildKilledReplicaBuildsAlone: a replica killed before CREATE
// INDEX refuses it, and the broadcast error names exactly that store. Its
// sibling has no job to install and runs the build itself; it then answers
// the meter suite — rows, volumes and both simulated clocks — exactly as the
// same replica of a healthy fleet does.
func TestReplicaSetBuildKilledReplicaBuildsAlone(t *testing.T) {
	healthy := unindexedRouter(t, 4, 2)
	mustExec(t, healthy, meterIndexSQL)

	r := unindexedRouter(t, 4, 2)
	r.Kill(1, 0)
	_, err := exec(r, meterIndexSQL)
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("CREATE INDEX with shard 1 replica 0 killed: %v, want ErrReplicaDown", err)
	}
	if msg := err.Error(); strings.Count(msg, "failed:") != 1 || !strings.Contains(msg, "shard 1/4 replica 0 failed:") {
		t.Fatalf("broadcast error does not name exactly the killed store: %s", msg)
	}
	if ran, installed := r.Replica(1, 1).DgfJobs.Counts(); ran != 1 || installed != 0 {
		t.Errorf("shard 1: %d jobs ran and %d were installed, want the survivor's own run only", ran, installed)
	}
	want := goldenReplicaAnswers(t, healthy.Replica(1, 1), false)
	got := goldenReplicaAnswers(t, r.Replica(1, 1), false)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shard 1 replica 1 answers\n%s\nwant (healthy fleet)\n%s", got[i], want[i])
		}
	}
}

// BenchmarkReplicaSetBuild is the layer number of the shared reorganisation
// jobs: one CREATE INDEX through a 4x2 router over 76,800 meter rows (the
// fleet's creation and loads are outside the timer). It also reports
// retained-B/set, the live heap a replica set holds after the build. It
// fails unless every shard ran the job once and installed it once, and
// unless each sibling's files and GFU pairs are their publisher's bytes.
func BenchmarkReplicaSetBuild(b *testing.B) {
	cfg := testMeterConfig()
	cfg.Users, cfg.ReadingsPerDay = 400, 24
	b.ReportAllocs()
	var retained float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
		if err != nil {
			b.Fatal(err)
		}
		setupMeter(b, r, cfg, false)
		b.StartTimer()
		mustExec(b, r, meterIndexSQL)
		b.StopTimer()
		retained += float64(int64(liveHeap())-int64(before)) / float64(r.NumShards())
		for s := 0; s < r.NumShards(); s++ {
			if ran, installed := r.Replica(s, 0).DgfJobs.Counts(); ran != 1 || installed != 1 {
				b.Fatalf("shard %d: %d jobs ran and %d were installed, want 1 and 1", s, ran, installed)
			}
		}
		checkSiblingsShare(b, r, true)
		checkSiblingsSharePairs(b, r, "meterdata")
		if b.Failed() {
			b.FailNow()
		}
		r.CloseWAL()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Rows()), "ns/row")
	b.ReportMetric(retained/float64(b.N), "retained-B/set")
}

// liveHeap returns the bytes of heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
