package dgf

import (
	"fmt"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// meterRCIndex builds the serving benchmark's DGFIndex — (regionId, userId,
// ts) at 1, 400 and one day, sum and count pre-computed — over days of the
// benchmark shard's meter readings stored as RCFile: 5,000 users reading
// once a day, so a grid cell holds about nine rows and the build cuts a row
// group at every cell.
func meterRCIndex(tb testing.TB, days int) *Index {
	tb.Helper()
	fs := dfs.New(1 << 20)
	rng := splitmix64(7)
	rows := make([]storage.Row, 0, shardUsers)
	for day := 0; day < days; day++ {
		rows = rows[:0]
		for i := 0; i < shardUsers; i++ {
			user := int64(4*i + 1)
			rows = append(rows, storage.Row{
				storage.Int64(user),
				storage.Int64(user%11 + 1),
				storage.TimeUnix(goldenDay0 + int64(day)*24*3600),
				storage.Float64(float64(rng.next()%100000) / 100),
			})
		}
		if _, err := storage.WriteRCRows(fs, fmt.Sprintf("/tbl/day-%02d", day), meterSchema(), rows, 0); err != nil {
			tb.Fatal(err)
		}
	}
	spec, err := ParseIdxProperties("idx", []string{"regionId", "userId", "ts"}, meterSchema(), map[string]string{
		"regionId": "1_1", "userId": "1_400", "ts": "2012-12-01_1d", "precompute": "sum(powerConsumed);count(*)",
	})
	if err != nil {
		tb.Fatal(err)
	}
	ix, _, err := Build(testCfg(), fs, kvstore.New(), spec, meterSchema(), Source{Dir: "/tbl", Format: storage.RCFile}, "/idx")
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestColStatsBytesPerGroup is the side file's layer number: the column
// statistics of a DGF-built meter RCFile cost at most 26 bytes a row group
// (they measure about 23). They measured about 62 while zone bounds were
// stored as text, 50 of them the bounds.
func TestColStatsBytesPerGroup(t *testing.T) {
	ix := meterRCIndex(t, 3)
	entries, err := ix.FS.List("/idx/_colstats")
	if err != nil {
		t.Fatal(err)
	}
	var bytes, groups int
	for _, e := range entries {
		data, err := ix.FS.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := storage.ReadColStats(ix.FS, strings.Replace(e.Path, "/_colstats/", "/", 1))
		if err != nil {
			t.Fatal(err)
		}
		bytes += len(data)
		groups += len(stats)
	}
	if rows := float64(3*shardUsers) / float64(groups); groups == 0 || rows > 12 {
		t.Fatalf("%d groups hold %.1f rows each, want the build's one small group per cell", groups, rows)
	}
	perGroup := float64(bytes) / float64(groups)
	t.Logf("%d bytes of column statistics for %d groups: %.1f a group", bytes, groups, perGroup)
	if perGroup > 26 {
		t.Errorf("column statistics cost %.1f bytes a group, budget 26", perGroup)
	}
}

// BenchmarkPlanReads is row-group pruning's layer number: PlanReads over the
// slices one DGF RCFile holds for a query, its side files already parsed,
// checking every group's zones against a range on each of the four columns;
// the powerConsumed range prunes the groups whose readings all fall below
// it. It reports ns/group over the groups the slices cover (about 450 on
// two cores; 630–770 when each check parsed the bounds' text) and fails
// above its allocs/op budget (25 measured: the skip set and one side-file
// lookup a file, none per zone check).
func BenchmarkPlanReads(b *testing.B) {
	ix := meterRCIndex(b, 2)
	ranges := map[string]gridfile.Range{
		"userId":        {Lo: storage.Int64(1000), Hi: storage.Int64(15000)},
		"regionId":      {Lo: storage.Int64(2), Hi: storage.Int64(9)},
		"ts":            {Lo: storage.TimeUnix(goldenDay0), Hi: storage.TimeUnix(goldenDay0 + 2*24*3600), HiOpen: true},
		"powerConsumed": {Lo: storage.Float64(900), HiUnbounded: true},
	}
	plan, err := ix.Plan(testCfg(), ranges, nil, PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var slices []SliceLoc
	for _, s := range plan.Slices {
		if s.File == plan.Slices[0].File {
			slices = append(slices, s)
		}
	}
	offsets, err := storage.ReadGroupIndex(ix.FS, slices[0].File)
	if err != nil {
		b.Fatal(err)
	}
	groups := 0
	for _, s := range slices {
		for _, off := range offsets {
			if off >= s.Start && off < s.End {
				groups++
			}
		}
	}
	run := func() ReadSet {
		rs, err := PlanReads(ix.FS, storage.RCFile, ix.Schema, slices, nil, ranges, true)
		if err != nil {
			b.Fatal(err)
		}
		return rs
	}
	if rs := run(); rs.GroupsSkipped == 0 || rs.GroupsSkipped >= int64(groups) {
		b.Fatalf("zone maps skipped %d of %d groups, want some but not all", rs.GroupsSkipped, groups)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groups), "ns/group")
	if allocs := testing.AllocsPerRun(5, func() { run() }); allocs > 40 {
		b.Fatalf("%.0f allocs/op, budget 40", allocs)
	}
}

// TestSideFileMismatchNamesTheDataFile: a column statistics side file that
// describes one row group too few or too many does not add up to its data
// file, so FileInput.Open and PlanReads both refuse it, naming the data
// file, rather than read or count a different set of groups.
func TestSideFileMismatchNamesTheDataFile(t *testing.T) {
	const path = "/tbl/data"
	for _, tc := range []struct {
		name  string
		alter func([]storage.GroupStat) []storage.GroupStat
	}{
		{"one group too few", func(g []storage.GroupStat) []storage.GroupStat { return g[:len(g)-1] }},
		{"one group too many", func(g []storage.GroupStat) []storage.GroupStat { return append(g, g[len(g)-1]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.New(1 << 12)
			if _, err := storage.WriteRCRows(fs, path, goldenSchema(), goldenRows(0, 40, 0, 4), 16); err != nil {
				t.Fatal(err)
			}
			fi, err := fs.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			in := &mapreduce.FileInput{FS: fs, Paths: []string{path}, Format: storage.RCFile, Schema: goldenSchema()}
			splits, err := in.Splits()
			if err != nil {
				t.Fatal(err)
			}
			open := func() error {
				_, err := in.Open(splits[0])
				return err
			}
			plan := func() error {
				project := []bool{true, false, false, true, false}
				_, err := PlanReads(fs, storage.RCFile, goldenSchema(), []SliceLoc{{File: path, End: fi.Size}}, project, nil, false)
				return err
			}
			if err := open(); err != nil {
				t.Fatalf("FileInput.Open on the side file as written: %v", err)
			}
			if err := plan(); err != nil {
				t.Fatalf("PlanReads on the side file as written: %v", err)
			}

			stats, err := storage.ReadColStats(fs, path)
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteColStats(fs, path, goldenSchema(), tc.alter(append([]storage.GroupStat(nil), stats...))); err != nil {
				t.Fatal(err)
			}
			for what, err := range map[string]error{"FileInput.Open": open(), "PlanReads": plan()} {
				if err == nil || !strings.Contains(err.Error(), "column stats for "+path+" ") {
					t.Errorf("%s: %v, want the data file %s named", what, err, path)
				}
			}
		})
	}
}
