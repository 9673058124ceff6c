package dgf

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// goldenReplica is one replica of a set running the golden sequence.
type goldenReplica struct {
	fs *dfs.FS
	kv *kvstore.Store
	ix *Index
}

// runGoldenStage runs stage i of the golden sequence on every replica at
// once — the build, or one append — and returns each replica's outcome.
func runGoldenStage(t *testing.T, format storage.Format, reps []*goldenReplica, jobs []*SharedJobs, i int) ([]*BuildStats, []error) {
	t.Helper()
	stats := make([]*BuildStats, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for r, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 {
				src := goldenSource(format)
				src.Jobs = jobs[r]
				rep.ix, stats[r], errs[r] = Build(testCfg(), rep.fs, rep.kv, goldenSpec(), goldenSchema(), src, "/tbl_dgf")
				return
			}
			stats[r], errs[r] = rep.ix.Append(testCfg(), []string{goldenAppends[i-1]})
		}()
	}
	wg.Wait()
	return stats, errs
}

// TestSharedJobsRunOncePerReplicaSet: replicas sharing a record run each
// stage of the golden sequence — the build and two appends, every replica
// starting the stage at once — as one job per set. Every replica, whether it
// ran the job or installed a sibling's output, leaves exactly the golden
// files, key-value pairs and BuildStats, and the record holds nothing
// afterwards.
func TestSharedJobsRunOncePerReplicaSet(t *testing.T) {
	for _, format := range []storage.Format{storage.TextFile, storage.RCFile} {
		for _, n := range []int{2, 3} {
			t.Run(fmt.Sprintf("%v/replicas=%d", format, n), func(t *testing.T) {
				jobs := NewSharedJobs(n, nil)
				reps := make([]*goldenReplica, n)
				for r := range reps {
					reps[r] = &goldenReplica{fs: goldenInputs(t, format), kv: kvstore.New()}
				}
				for i, stage := range goldenStages {
					stats, errs := runGoldenStage(t, format, reps, jobs, i)
					for r, rep := range reps {
						if errs[r] != nil {
							t.Fatalf("%s on replica %d: %v", stage, r, errs[r])
						}
						got := goldenStage{files: hashTree(t, rep.fs, "/tbl_dgf"), kv: hashKV(rep.kv.ScanPrefix("")), stats: hashString(renderStats(stats[r]))}
						if want := golden[format][i]; got != want {
							t.Errorf("%s on replica %d: {files, kv, stats} hash to %+v, want %+v\n%s", stage, r, got, want, renderStats(stats[r]))
						}
						checkSliceTiling(t, rep.ix)
					}
					if ran, installed := jobs[0].Counts(); ran != i+1 || installed != (i+1)*(n-1) {
						t.Fatalf("after %s: %d jobs ran and %d were installed, want %d and %d", stage, ran, installed, i+1, (i+1)*(n-1))
					}
					if held := jobs[0].Held(); held != 0 {
						t.Fatalf("after %s the record holds %d results, want none", stage, held)
					}
				}
				for r, rep := range reps {
					lo, hi := rep.ix.Bounds()
					wantLo, wantHi := reps[0].ix.Bounds()
					if fmt.Sprint(lo, hi) != fmt.Sprint(wantLo, wantHi) {
						t.Errorf("replica %d bounds %v..%v, replica 0 %v..%v", r, lo, hi, wantLo, wantHi)
					}
				}
			})
		}
	}
}

// TestSharedJobsFailedRunsStayPerReplica: a job that fails on the replica
// that publishes it leaves its sibling to run the job itself, and a sibling
// whose own store refuses a published pair fails like its own job would —
// with no data file of the run left behind — while the publisher succeeds.
// The healthy replica ends exactly like a replica without siblings, and
// neither leaves a result in the record.
func TestSharedJobsFailedRunsStayPerReplica(t *testing.T) {
	// One reading of user 0 on the first day: it merges into a stored cell.
	late := goldenRows(0, 1, 0, 1)
	inputs := func() *dfs.FS {
		fs := goldenInputs(t, storage.TextFile)
		if err := storage.WriteTextRows(fs, "/staging/late", late); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	ref := &goldenReplica{fs: inputs(), kv: kvstore.New()}
	if _, errs := runGoldenStage(t, storage.TextFile, []*goldenReplica{ref}, []*SharedJobs{nil}, 0); errs[0] != nil {
		t.Fatal(errs[0])
	}
	refStats, err := ref.ix.Append(testCfg(), []string{"/staging/late"})
	if err != nil {
		t.Fatal(err)
	}
	for _, broken := range []int{0, 1} {
		t.Run(fmt.Sprintf("broken=replica%d", broken), func(t *testing.T) {
			jobs := NewSharedJobs(2, nil)
			reps := []*goldenReplica{{fs: inputs(), kv: kvstore.New()}, {fs: inputs(), kv: kvstore.New()}}
			if _, errs := runGoldenStage(t, storage.TextFile, reps, jobs, 0); errs[0] != nil || errs[1] != nil {
				t.Fatal(errs)
			}
			bad := reps[broken]
			bad.kv.Put(gfuPrefix+bad.ix.Spec.Policy.Key(bad.ix.cellsOfRow(late[0], nil)), []byte{0xff})
			// Replica 0 starts first, so it runs and publishes the append.
			stats := make([]*BuildStats, 2)
			errs := make([]error, 2)
			for r, rep := range reps {
				stats[r], errs[r] = rep.ix.Append(testCfg(), []string{"/staging/late"})
			}
			if errs[broken] == nil || !strings.Contains(errs[broken].Error(), "stored GFU") {
				t.Fatalf("append on the replica with a corrupt store: %v, want a stored-GFU error", errs[broken])
			}
			healthy := reps[1-broken]
			if errs[1-broken] != nil {
				t.Fatalf("append on the healthy replica: %v", errs[1-broken])
			}
			if got, want := hashTree(t, healthy.fs, "/tbl_dgf"), hashTree(t, ref.fs, "/tbl_dgf"); got != want {
				t.Errorf("healthy replica's files hash to %s, a replica without siblings' to %s", got, want)
			}
			if got, want := hashKV(healthy.kv.ScanPrefix("")), hashKV(ref.kv.ScanPrefix("")); got != want {
				t.Errorf("healthy replica's pairs hash to %s, a replica without siblings' to %s", got, want)
			}
			if got, want := renderStats(stats[1-broken]), renderStats(refStats); got != want {
				t.Errorf("healthy replica's stats %s, a replica without siblings' %s", got, want)
			}
			files, err := bad.fs.ListFiles("/tbl_dgf")
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if strings.HasPrefix(f.Name, "part-1-") {
					t.Errorf("the failed append left %s behind", f.Path)
				}
			}
			wantRan, wantInstalled := 3, 1 // the build ran once and was installed once
			if broken == 1 {
				wantRan, wantInstalled = 2, 2
			}
			if ran, installed := jobs[0].Counts(); ran != wantRan || installed != wantInstalled {
				t.Errorf("%d jobs ran and %d were installed, want %d and %d", ran, installed, wantRan, wantInstalled)
			}
			if held := jobs[0].Held(); held != 0 {
				t.Errorf("the record holds %d results, want none", held)
			}
		})
	}
}

// TestSharedJobsLoadThreeReplicas: in a set of three replicas applying the
// same loads at once, each load is written once and installed twice, and
// every replica ends with the writer's bytes. A load whose first writer
// fails publishes nothing: the next sibling to start it writes its own and
// publishes that for the last. Loads and reorganisation jobs are counted
// apart, and nothing is held afterwards.
func TestSharedJobsLoadThreeReplicas(t *testing.T) {
	jobs := NewSharedJobs(3, nil)
	fss := []*dfs.FS{dfs.New(1 << 12), dfs.New(1 << 12), dfs.New(1 << 12)}
	rows := goldenRows(0, 2, 0, 3)
	load := func(r, gen int, fail bool) error {
		p := fmt.Sprintf("/tbl/part-%05d", gen)
		return jobs[r].Load(fss[r], "/tbl", gen, p, rows, []string{p}, func() error {
			if err := storage.WriteTextRows(fss[r], p, rows); err != nil {
				return err
			}
			if fail {
				fss[r].RemoveAll(p)
				return fmt.Errorf("replica %d fails its write", r)
			}
			return nil
		})
	}
	for gen := 0; gen < 4; gen++ {
		errs := make([]error, 3)
		var wg sync.WaitGroup
		if gen == 3 {
			// Replica 0 starts first and fails; the others wait for it.
			errs[0] = load(0, gen, true)
		}
		for r := range fss {
			if gen == 3 && r == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = load(r, gen, false)
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if (err != nil) != (gen == 3 && r == 0) {
				t.Fatalf("load %d on replica %d: %v", gen, r, err)
			}
		}
	}
	if written, installed := jobs[0].LoadCounts(); written != 3+2 || installed != 2*3+1 {
		t.Errorf("%d loads written and %d installed, want 5 and 7", written, installed)
	}
	if ran, installed := jobs[0].Counts(); ran != 0 || installed != 0 {
		t.Errorf("loads counted as %d jobs run and %d installed", ran, installed)
	}
	if held := jobs[0].HeldLoads(); held != 0 {
		t.Errorf("the record holds %d loads, want none", held)
	}
	want, err := fss[1].ReadFile("/tbl/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	for r, fs := range fss {
		got, err := fs.ReadFile("/tbl/part-00000")
		if err != nil || string(got) != string(want) {
			t.Errorf("replica %d holds %q (%v), want %q", r, got, err, want)
		}
	}
}
