package hiveindex

import (
	"context"
	"math/rand"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

func testCfg() *cluster.Config {
	c := cluster.Default()
	c.Workers = 4
	return c
}

// indexFiles lists the index table's files, as a query's plan does.
func indexFiles(t testing.TB, ix *Index, fs *dfs.FS) []string {
	t.Helper()
	files, err := ix.Files(fs)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func testSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "userId", Kind: storage.KindInt64},
		storage.Column{Name: "regionId", Kind: storage.KindInt64},
		storage.Column{Name: "power", Kind: storage.KindFloat64},
	)
}

// makeRows generates deterministic rows: userId cycles 0..49, regionId
// 0..4.
func makeRows(n int) []storage.Row {
	rng := rand.New(rand.NewSource(11))
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.Int64(int64(i % 50)),
			storage.Int64(int64(i % 5)),
			storage.Float64(rng.Float64() * 10),
		}
	}
	return rows
}

func setupText(t *testing.T, blockSize int64, n int) (*dfs.FS, []storage.Row) {
	t.Helper()
	fs := dfs.New(blockSize)
	rows := makeRows(n)
	if err := storage.WriteTextRows(fs, "/tbl/part-0", rows); err != nil {
		t.Fatal(err)
	}
	return fs, rows
}

func setupRC(t *testing.T, blockSize int64, n, groupRows int) (*dfs.FS, []storage.Row) {
	t.Helper()
	fs := dfs.New(blockSize)
	rows := makeRows(n)
	if _, err := storage.WriteRCRows(fs, "/tbl/part-0", testSchema(), rows, groupRows); err != nil {
		t.Fatal(err)
	}
	return fs, rows
}

func TestCompactBuildAndFilterText(t *testing.T) {
	fs, rows := setupText(t, 256, 300)
	ix, stats, err := Build(testCfg(), fs, Options{
		Name: "c1", Kind: Compact,
		BaseDir: "/tbl", BaseFormat: TextFile,
		Schema: testSchema(), Cols: []string{"userId", "regionId"},
		IndexDir: "/idx", IndexFormat: TextFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputRecords != 300 {
		t.Errorf("build scanned %d records", stats.InputRecords)
	}
	if ix.SizeBytes(fs) <= 0 {
		t.Error("index table is empty")
	}
	// Filter userId in [10,12].
	ranges := map[string]gridfile.Range{
		"userId": {Lo: storage.Int64(10), Hi: storage.Int64(12)},
	}
	fr, err := ix.Filter(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), ranges)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Entries == 0 {
		t.Fatal("no index entries matched")
	}
	// Run the filtered scan; every matching row must appear.
	input := ix.BaseInput(fs, fr)
	got := countMatching(t, input, ranges)
	want := 0
	for _, r := range rows {
		if r[0].I >= 10 && r[0].I <= 12 {
			want++
		}
	}
	if got != want {
		t.Errorf("filtered scan found %d matches, want %d", got, want)
	}
}

func countMatching(t *testing.T, input mapreduce.InputFormat, ranges map[string]gridfile.Range) int {
	t.Helper()
	schema := testSchema()
	count := 0
	_, err := mapreduce.RunContext(context.Background(), testCfg(), &mapreduce.Job{
		Name:  "probe",
		Input: input,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			b := rec.Batch
		rows:
			for _, ri := range b.Sel() {
				row := b.MaterialiseRow(ri)
				for name, r := range ranges {
					if !r.Contains(row[schema.ColIndex(name)]) {
						continue rows
					}
				}
				emit("1", nil)
			}
			return nil
		},
		Output: func(k string, v []byte) { count++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	return count
}

func TestCompactOnRCFiltersSplitsOnly(t *testing.T) {
	fs, rows := setupRC(t, 512, 400, 16)
	ix, _, err := Build(testCfg(), fs, Options{
		Name: "c2", Kind: Compact,
		BaseDir: "/tbl", BaseFormat: RCFile,
		Schema: testSchema(), Cols: []string{"userId"},
		IndexDir: "/idx", IndexFormat: RCFile, RowGroupRows: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges := map[string]gridfile.Range{
		"userId": {Lo: storage.Int64(7), Hi: storage.Int64(7)},
	}
	fr, err := ix.Filter(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), ranges)
	if err != nil {
		t.Fatal(err)
	}
	input := ix.BaseInput(fs, fr)
	// Correctness: all userId==7 rows found after split filtering.
	got := countMatching(t, input, ranges)
	want := 0
	for _, r := range rows {
		if r[0].I == 7 {
			want++
		}
	}
	if got != want || want == 0 {
		t.Errorf("matches = %d, want %d", got, want)
	}
	// Compact on RC does NOT filter row groups: the scan reads rows beyond
	// the matches (userId 7 appears in every 50-row stripe, i.e. most
	// groups, but the point is whole splits are read).
	stats, err := mapreduce.RunContext(context.Background(), testCfg(), &mapreduce.Job{
		Name:  "volume",
		Input: input,
		Map:   func(rec mapreduce.Record, emit mapreduce.Emit) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.InputRecords <= int64(want) {
		t.Errorf("compact should over-read: %d records for %d matches", stats.InputRecords, want)
	}
}

func TestBitmapFiltersRows(t *testing.T) {
	fs, rows := setupRC(t, 1<<20, 400, 16)
	ix, _, err := Build(testCfg(), fs, Options{
		Name: "b1", Kind: Bitmap,
		BaseDir: "/tbl", BaseFormat: RCFile,
		Schema: testSchema(), Cols: []string{"userId"},
		IndexDir: "/idx", IndexFormat: TextFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges := map[string]gridfile.Range{
		"userId": {Lo: storage.Int64(7), Hi: storage.Int64(7)},
	}
	fr, err := ix.Filter(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), ranges)
	if err != nil {
		t.Fatal(err)
	}
	input := ix.BaseInput(fs, fr)
	// The bitmap reader must deliver exactly the matching rows.
	stats, err := mapreduce.RunContext(context.Background(), testCfg(), &mapreduce.Job{
		Name:  "bitmap-scan",
		Input: input,
		Map:   func(rec mapreduce.Record, emit mapreduce.Emit) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, r := range rows {
		if r[0].I == 7 {
			want++
		}
	}
	if stats.InputRecords != want {
		t.Errorf("bitmap scan read %d records, want exactly %d", stats.InputRecords, want)
	}
}

func TestAggregateIndexRewrite(t *testing.T) {
	fs, rows := setupText(t, 1<<20, 500)
	ix, _, err := Build(testCfg(), fs, Options{
		Name: "a1", Kind: Aggregate,
		BaseDir: "/tbl", BaseFormat: TextFile,
		Schema: testSchema(), Cols: []string{"regionId"},
		IndexDir: "/idx", IndexFormat: TextFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges := map[string]gridfile.Range{
		"regionId": {Lo: storage.Int64(1), Hi: storage.Int64(3)},
	}
	counts, _, err := ix.AggregateCounts(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), ranges, []string{"regionId"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, r := range rows {
		if r[1].I >= 1 && r[1].I <= 3 {
			want[r[1].String()]++
		}
	}
	if len(counts) != len(want) {
		t.Fatalf("groups = %v, want %v", counts, want)
	}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, counts[k], v)
		}
	}
	// Rewrite restrictions: non-indexed GROUP BY column is rejected.
	if _, _, err := ix.AggregateCounts(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), ranges, []string{"power"}); err == nil {
		t.Error("uncovered GROUP BY accepted")
	}
	// Compact index cannot answer it at all.
	cix := &Index{Options: Options{Kind: Compact}}
	if _, _, err := cix.AggregateCounts(context.Background(), testCfg(), fs, indexFiles(t, cix, fs), ranges, nil); err == nil {
		t.Error("compact index answered aggregate rewrite")
	}
}

func TestIndexSizeGrowsWithDims(t *testing.T) {
	// The paper's Section 2.2 limitation 1: more distinct combinations ->
	// bigger index table.
	fs, _ := setupText(t, 1<<20, 1000)
	small, _, err := Build(testCfg(), fs, Options{
		Name: "s", Kind: Compact, BaseDir: "/tbl", BaseFormat: TextFile,
		Schema: testSchema(), Cols: []string{"regionId"},
		IndexDir: "/idx_small", IndexFormat: TextFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := Build(testCfg(), fs, Options{
		Name: "b", Kind: Compact, BaseDir: "/tbl", BaseFormat: TextFile,
		Schema: testSchema(), Cols: []string{"userId", "regionId", "power"},
		IndexDir: "/idx_big", IndexFormat: TextFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.SizeBytes(fs) <= small.SizeBytes(fs) {
		t.Errorf("3-dim index (%d) should exceed 1-dim index (%d)",
			big.SizeBytes(fs), small.SizeBytes(fs))
	}
}

func TestSplitFilterPrunes(t *testing.T) {
	// Rows sorted by userId so matches cluster in few splits: the filter
	// must prune most splits (the favourable case of Section 6).
	fs := dfs.New(512)
	rows := makeRows(2000)
	// Sort by userId (stable by construction: generate directly).
	sorted := make([]storage.Row, 0, len(rows))
	for u := int64(0); u < 50; u++ {
		for _, r := range rows {
			if r[0].I == u {
				sorted = append(sorted, r)
			}
		}
	}
	if err := storage.WriteTextRows(fs, "/tbl/part-0", sorted); err != nil {
		t.Fatal(err)
	}
	ix, _, err := Build(testCfg(), fs, Options{
		Name: "c3", Kind: Compact, BaseDir: "/tbl", BaseFormat: TextFile,
		Schema: testSchema(), Cols: []string{"userId"},
		IndexDir: "/idx", IndexFormat: TextFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := ix.Filter(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), map[string]gridfile.Range{
		"userId": {Lo: storage.Int64(3), Hi: storage.Int64(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	allSplits, _ := fs.DirSplits("/tbl")
	kept := 0
	for _, s := range allSplits {
		if fr.SplitFilter(s) {
			kept++
		}
	}
	if kept == 0 || kept >= len(allSplits) {
		t.Errorf("split filter kept %d of %d", kept, len(allSplits))
	}
}

func TestBitmapOps(t *testing.T) {
	b := newBitmap()
	for _, i := range []int{0, 3, 64, 130} {
		b.set(i)
	}
	for _, i := range []int{0, 3, 64, 130} {
		if !b.get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	for _, i := range []int{1, 63, 129, 1000} {
		if b.get(i) {
			t.Errorf("bit %d spuriously set", i)
		}
	}
	back, err := decodeBitmap(b.encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 3, 64, 130} {
		if !back.get(i) {
			t.Errorf("bit %d lost in round trip", i)
		}
	}
	other := newBitmap()
	other.set(200)
	back.union(other)
	if !back.get(200) || !back.get(0) {
		t.Error("union lost bits")
	}
	if _, err := decodeBitmap("zz;"); err == nil {
		t.Error("bad bitmap accepted")
	}
}

func TestOffsetsCodec(t *testing.T) {
	offs := []int64{0, 9, 1024, 99999}
	back, err := decodeOffsets(encodeOffsets(offs))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(offs) {
		t.Fatalf("len = %d", len(back))
	}
	for i := range offs {
		if back[i] != offs[i] {
			t.Errorf("offset %d: %d != %d", i, back[i], offs[i])
		}
	}
	if got, _ := decodeOffsets(""); got != nil {
		t.Error("empty offsets should decode to nil")
	}
	if _, err := decodeOffsets("1;x"); err == nil {
		t.Error("bad offsets accepted")
	}
}

func TestBuildUnknownColumn(t *testing.T) {
	fs, _ := setupText(t, 1<<20, 10)
	_, _, err := Build(testCfg(), fs, Options{
		Name: "bad", Kind: Compact, BaseDir: "/tbl", BaseFormat: TextFile,
		Schema: testSchema(), Cols: []string{"ghost"},
		IndexDir: "/idx", IndexFormat: TextFile,
	})
	if err == nil {
		t.Error("unknown column accepted")
	}
}
