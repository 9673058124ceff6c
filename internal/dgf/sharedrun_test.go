package dgf

import (
	"fmt"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// sharedValues counts the GFU pairs of b whose value is the very bytes of a's
// pair of the same key, and the pairs that are not. Both stores must hold the
// same keys.
func sharedValues(t *testing.T, a, b *kvstore.Store) (shared, own int) {
	t.Helper()
	pa, pb := a.ScanPrefix(gfuPrefix), b.ScanPrefix(gfuPrefix)
	if len(pa) != len(pb) || len(pa) == 0 {
		t.Fatalf("the stores hold %d and %d GFU pairs", len(pa), len(pb))
	}
	for i, p := range pa {
		if pb[i].Key != p.Key {
			t.Fatalf("pair %d is %q in one store and %q in the other", i, p.Key, pb[i].Key)
		}
		if &pb[i].Value[0] == &p.Value[0] {
			shared++
		} else {
			own++
		}
	}
	return shared, own
}

// TestSharedJobsSiblingsShareRun: through the golden build and both appends,
// on two and three replicas, every GFU pair a sibling holds is its
// publisher's bytes, not a copy, and the metadata stays each store's own.
func TestSharedJobsSiblingsShareRun(t *testing.T) {
	for _, format := range []storage.Format{storage.TextFile, storage.RCFile} {
		for _, n := range []int{2, 3} {
			t.Run(fmt.Sprintf("%v/replicas=%d", format, n), func(t *testing.T) {
				jobs := NewSharedJobs(n, nil)
				reps := make([]*goldenReplica, n)
				for r := range reps {
					reps[r] = &goldenReplica{fs: goldenInputs(t, format), kv: kvstore.New()}
				}
				for i, stage := range goldenStages {
					if _, errs := runGoldenStage(t, format, reps, jobs, i); errs[0] != nil || errs[n-1] != nil {
						t.Fatalf("%s: %v", stage, errs)
					}
					for r := 1; r < n; r++ {
						if shared, own := sharedValues(t, reps[0].kv, reps[r].kv); own != 0 {
							t.Errorf("after %s replica %d holds %d GFU pairs of its own beside %d shared", stage, r, own, shared)
						}
						a, _ := reps[0].kv.Get(metaGen)
						b, _ := reps[r].kv.Get(metaGen)
						if &a[0] == &b[0] {
							t.Errorf("after %s replicas 0 and %d share their metadata", stage, r)
						}
					}
				}
			})
		}
	}
}

// TestSharedJobsSiblingWithOtherPairsKeepsItsOwn: a sibling whose stored pair
// of a cell the append merges into differs from its publisher's — its header
// counts twice what the publisher's does — installs the append's files but
// puts its own merged pairs, not the publisher's run: even the pair it merged
// to the same bytes is its own copy. It ends with the files, pairs, build
// statistics and plans of a replica without siblings whose store differs the
// same way.
func TestSharedJobsSiblingWithOtherPairsKeepsItsOwn(t *testing.T) {
	// One reading in a stored cell of user 0, and one of user 100.
	late := append(goldenRows(0, 1, 0, 1), goldenRows(100, 101, 0, 1)...)
	inputs := func() *dfs.FS {
		fs := goldenInputs(t, storage.TextFile)
		if err := storage.WriteTextRows(fs, "/staging/late", late); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	// doubleHeader rewrites the stored pair of late[0]'s cell with every
	// accumulator merged with itself: a different value that still decodes.
	doubleHeader := func(rep *goldenReplica) {
		key := gfuPrefix + rep.ix.Spec.Policy.Key(rep.ix.cellsOfRow(late[0], nil))
		v, ok := rep.kv.Get(key)
		if !ok {
			t.Fatalf("no stored pair for %s", key)
		}
		h := NewHeader(rep.ix.Spec.Precompute)
		locs, err := readHeader(h, v)
		if err != nil {
			t.Fatal(err)
		}
		h.Merge(append(Header(nil), h...))
		rep.kv.Put(key, append(appendHeader(nil, h), locs...))
	}

	solo := &goldenReplica{fs: inputs(), kv: kvstore.New()}
	jobs := NewSharedJobs(2, nil)
	reps := []*goldenReplica{{fs: inputs(), kv: kvstore.New()}, {fs: inputs(), kv: kvstore.New()}}
	if _, errs := runGoldenStage(t, storage.TextFile, []*goldenReplica{solo}, []*SharedJobs{nil}, 0); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if _, errs := runGoldenStage(t, storage.TextFile, reps, jobs, 0); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	doubleHeader(solo)
	doubleHeader(reps[1])

	// Replica 0 starts first, so it runs and publishes the append.
	stats := make([]*BuildStats, 3)
	for r, rep := range append(reps, solo) {
		var err error
		if stats[r], err = rep.ix.Append(testCfg(), []string{"/staging/late"}); err != nil {
			t.Fatalf("append on replica %d: %v", r, err)
		}
	}
	if ran, installed := jobs[0].Counts(); ran != 2 || installed != 2 {
		t.Errorf("%d jobs ran and %d were installed, want 2 and 2", ran, installed)
	}
	sib := reps[1]
	pub, own := reps[0].kv.ScanPrefix(gfuPrefix), sib.kv.ScanPrefix(gfuPrefix)
	merged := map[string]bool{}
	for _, row := range late {
		merged[gfuPrefix+sib.ix.Spec.Policy.Key(sib.ix.cellsOfRow(row, nil))] = true
	}
	same := 0
	for i, p := range own {
		if !merged[p.Key] {
			continue
		}
		if string(p.Value) == string(pub[i].Value) {
			same++
		}
		if &p.Value[0] == &pub[i].Value[0] {
			t.Errorf("the sibling's merged pair %s is its publisher's bytes", p.Key)
		}
	}
	if len(merged) != 2 || same != 1 {
		t.Fatalf("the append merged %d cells, %d of them to the publisher's bytes; want 2 and 1", len(merged), same)
	}

	if got, want := hashTree(t, sib.fs, "/tbl_dgf"), hashTree(t, solo.fs, "/tbl_dgf"); got != want {
		t.Errorf("the sibling's files hash to %s, a replica without siblings' to %s", got, want)
	}
	if got, want := hashKV(sib.kv.ScanPrefix("")), hashKV(solo.kv.ScanPrefix("")); got != want {
		t.Errorf("the sibling's pairs hash to %s, a replica without siblings' to %s", got, want)
	}
	if got, want := renderStats(stats[1]), renderStats(stats[2]); got != want {
		t.Errorf("the sibling's stats %s, a replica without siblings' %s", got, want)
	}
	ranges := map[string]gridfile.Range{
		"userId": {Lo: storage.Int64(0), Hi: storage.Int64(149)},
		"ts":     {Lo: storage.TimeUnix(goldenDay0), Hi: storage.TimeUnix(goldenDay0 + 2*24*3600), HiOpen: true},
	}
	aggs := []AggSpec{{Func: AggSum, Col: "powerConsumed"}, {Func: AggCount}}
	for _, opts := range []PlanOptions{{}, {GroupBy: []string{"regionId"}}} {
		var plans [2]string
		for i, rep := range []*goldenReplica{sib, solo} {
			p, err := rep.ix.Plan(testCfg(), ranges, aggs, opts)
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = fmt.Sprintf("%+v %v %d", p.PreGroups, p.Slices, p.InnerCells)
		}
		if plans[0] != plans[1] {
			t.Errorf("plan %+v: the sibling's\n%s\na replica without siblings'\n%s", opts, plans[0], plans[1])
		}
	}
}
