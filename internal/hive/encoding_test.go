package hive

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// cityRows builds the dictionary/RLE dataset: unique ids, a five-value city
// column (dictionary candidate in every group) and a day-major ts in runs of
// 10 — shorter than the 16-row groups, so boundary groups hold two runs and
// the run kernel (not just the zone map) has rejections to make.
func cityRows(n int) []storage.Row {
	cities := []string{"amsterdam", "berlin", "cairo", "delhi", "essen"}
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.Int64(int64(i + 1)),
			storage.Str(cities[i%len(cities)]),
			storage.Time(base.AddDate(0, 0, i/10)),
			storage.Float64(float64(i) * 0.5),
		}
	}
	return rows
}

func setupCityTable(t *testing.T, w *Warehouse, n int) []storage.Row {
	t.Helper()
	mustExec(t, w, `CREATE TABLE cities (id bigint, city string, ts timestamp, v double) STORED AS RCFILE`)
	rows := cityRows(n)
	tbl, _ := w.Table("cities")
	tbl.RowGroupRows = 16
	if err := w.LoadRowsByName("cities", rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestEncodedKernelsMatchRowPath: every predicate shape over dictionary and
// RLE columns — equality, inequality, ranges, IN, absent values — answers
// bit-identically to the row-at-a-time path, and the stats prove the
// encoding-aware kernels actually ran (dictionary probes, skipped runs).
func TestEncodedKernelsMatchRowPath(t *testing.T) {
	w := testWarehouse(1 << 14)
	setupCityTable(t, w, 400)

	var dictProbes, runsSkipped int64
	queries := []string{
		`SELECT count(*) FROM cities WHERE city='berlin'`,
		`SELECT sum(v) FROM cities WHERE city!='berlin'`,
		`SELECT id FROM cities WHERE city IN ('berlin','cairo') AND id<=40`,
		`SELECT count(*) FROM cities WHERE city IN ('essen')`,
		`SELECT count(*), sum(v) FROM cities WHERE city<'c'`,
		`SELECT count(*) FROM cities WHERE city>='delhi'`,
		`SELECT sum(v) FROM cities WHERE city='nowhere'`,
		`SELECT count(*) FROM cities WHERE city IN ('nowhere','imaginary')`,
		`SELECT count(*) FROM cities WHERE ts>='2012-12-10'`,
		`SELECT sum(v) FROM cities WHERE ts<'2012-12-05' AND city='cairo'`,
		`SELECT sum(v) FROM cities WHERE id IN (3,7,9,311)`,
		`SELECT city, count(*) FROM cities WHERE ts>='2012-12-03' GROUP BY city`,
	}
	for _, sql := range queries {
		vec := mustExec(t, w, sql)
		row := refExec(t, w, sql, ExecOptions{})
		if want, got := sortedExact(row.Rows), sortedExact(vec.Rows); want != got {
			t.Errorf("%q: results differ\nrow path:\n%s\nvectorised:\n%s", sql, want, got)
		}
		dictProbes += vec.Stats.DictProbes
		runsSkipped += vec.Stats.RunsSkipped
	}
	if dictProbes == 0 {
		t.Error("no query probed a dictionary: the dict kernels never ran")
	}
	if runsSkipped == 0 {
		t.Error("no query skipped an RLE run: the run kernels never ran")
	}
}

// TestExplainEncodedColumns: EXPLAIN over an encoded table names the encoded
// columns with their encodings, on both the scan and the DGF path.
func TestExplainEncodedColumns(t *testing.T) {
	w := testWarehouse(1 << 14)
	setupCityTable(t, w, 400)

	plan := explainOf(t, w, `SELECT count(*) FROM cities WHERE city='berlin'`)
	rendered := strings.Join(plan.EncodedColumns, " ")
	if !strings.Contains(rendered, "city(dict") {
		t.Errorf("EncodedColumns = %v, want city(dict...)", plan.EncodedColumns)
	}
	if !strings.Contains(rendered, "ts(") || !strings.Contains(rendered, "rle") {
		t.Errorf("EncodedColumns = %v, want an rle entry for ts", plan.EncodedColumns)
	}

	// The DGF path reports the encodings of the reorganised segments.
	mustExec(t, w, `CREATE INDEX idx_cities ON TABLE cities(id)
		AS 'org.apache.hadoop.hive.ql.index.dgf.DgfIndexHandler'
		IDXPROPERTIES ('id'='1_50', 'bitmap'='city')`)
	plan = explainOf(t, w, `SELECT sum(v) FROM cities WHERE id>=1 AND id<=200`)
	if !strings.HasPrefix(plan.AccessPath, "dgfindex") {
		t.Fatalf("access path %q, want dgfindex", plan.AccessPath)
	}
	if !strings.Contains(strings.Join(plan.EncodedColumns, " "), "city(dict") {
		t.Errorf("DGF EncodedColumns = %v, want city(dict...)", plan.EncodedColumns)
	}

	// An unencoded table reports no encoded columns.
	mustExec(t, w, `CREATE TABLE flat (id bigint, note string) STORED AS RCFILE`)
	var rows []storage.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, storage.Row{storage.Int64(int64(i)), storage.Str(fmt.Sprintf("unique-%d", i))})
	}
	if err := w.LoadRowsByName("flat", rows); err != nil {
		t.Fatal(err)
	}
	if plan := explainOf(t, w, `SELECT count(*) FROM flat`); len(plan.EncodedColumns) != 0 {
		t.Errorf("unencodable table reports EncodedColumns = %v", plan.EncodedColumns)
	}
}

// TestBitmapMembershipPruning: an IN predicate on a bitmap-tracked column
// prunes row groups by OR-ing the member bitsets — groups holding none of the
// probed values never hit the readers — while answering bit-identically to
// the row path.
func TestBitmapMembershipPruning(t *testing.T) {
	w := testWarehouse(1 << 14)
	rows := taggedRows(400, 151, 170)
	setupTaggedTable(t, w, rows)

	const sql = `SELECT sum(v), count(*) FROM tagged WHERE id>=1 AND id<=400 AND tag IN ('x','q')`
	plan := explainOf(t, w, sql)
	if plan.BitmapHits == 0 {
		t.Fatalf("EXPLAIN BitmapHits = 0, want > 0 (GroupsSkipped = %d)", plan.GroupsSkipped)
	}
	res := mustExec(t, w, sql)
	if res.Stats.BitmapHits != plan.BitmapHits || res.Stats.GroupsSkipped != plan.GroupsSkipped {
		t.Errorf("EXPLAIN (hits %d, skips %d) vs execution (hits %d, skips %d)",
			plan.BitmapHits, plan.GroupsSkipped, res.Stats.BitmapHits, res.Stats.GroupsSkipped)
	}
	row := refExec(t, w, sql, ExecOptions{})
	if want, got := renderExact(row.Rows), renderExact(res.Rows); want != got {
		t.Errorf("results differ\nrow path:\n%s\nvectorised:\n%s", want, got)
	}
	// 'q' matches nothing, so the answer is the tag='x' run: ids 151..170.
	var wantSum float64
	for i := 151; i <= 170; i++ {
		wantSum += float64(i) * 1.5
	}
	if res.Rows[0][0].F != wantSum || res.Rows[0][1].F != 20 {
		t.Errorf("sum,count = %v,%v want %v,20", res.Rows[0][0].F, res.Rows[0][1].F, wantSum)
	}

	// A probe set entirely absent from the data prunes every group.
	empty := mustExec(t, w, `SELECT count(*) FROM tagged WHERE id>=1 AND id<=400 AND tag IN ('q','w')`)
	if empty.Rows[0][0].F != 0 {
		t.Errorf("absent IN set counts %v rows, want 0", empty.Rows[0][0].F)
	}
}

// TestInAndNotEqualNeverUsePrecomputedHeaders is the exactness guard: "!="
// and multi-value IN predicates do not survive in the planner's range
// summary, so aggregate answers must come from scanning rows, never from
// pre-computed GFU headers — the vectorised, row, and index-free answers all
// agree bit-identically.
func TestInAndNotEqualNeverUsePrecomputedHeaders(t *testing.T) {
	w := testWarehouse(1 << 14)
	setupMeterTableFormat(t, w, 40, 4, 8, "RCFILE")
	createDgf(t, w)

	queries := []string{
		`SELECT sum(powerConsumed) FROM meterdata WHERE userId!=5`,
		`SELECT sum(powerConsumed), count(*) FROM meterdata WHERE userId>=1 AND userId<=40 AND userId!=17`,
		`SELECT sum(powerConsumed) FROM meterdata WHERE userId IN (3,9,21)`,
		`SELECT count(*) FROM meterdata WHERE userId IN (5,6) AND ts>='2012-12-03'`,
		`SELECT regionId, sum(powerConsumed) FROM meterdata WHERE userId IN (2,4,8,16,32) GROUP BY regionId`,
	}
	for _, sql := range queries {
		idx := mustExec(t, w, sql)
		if strings.Contains(idx.Stats.AccessPath, "precompute") {
			t.Errorf("%q answered from precomputed headers despite a non-range predicate", sql)
		}
		scan, err := w.ExecOpts(sql, ExecOptions{DisableIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		if want, got := sortedExact(scan.Rows), sortedExact(idx.Rows); want != got {
			t.Errorf("%q: index path differs from scan\nscan:\n%s\nindex:\n%s", sql, want, got)
		}
	}
}

// TestBitmapOverflowSurfaced: a bitmap column whose per-file cardinality
// exceeds the cap is dropped at build time, the CREATE INDEX message says so,
// EXPLAIN reports it as bitmap_disabled, and queries stay correct without
// the sidecar.
func TestBitmapOverflowSurfaced(t *testing.T) {
	w := testWarehouse(1 << 18)
	mustExec(t, w, `CREATE TABLE uniq (id bigint, tag string, v double) STORED AS RCFILE`)
	tbl, _ := w.Table("uniq")
	tbl.RowGroupRows = 512
	n := storage.BitmapCardinalityCap + 100
	var rows []storage.Row
	for i := 1; i <= n; i++ {
		rows = append(rows, storage.Row{
			storage.Int64(int64(i)), storage.Str(fmt.Sprintf("tag-%06d", i)), storage.Float64(float64(i)),
		})
	}
	if err := w.LoadRowsByName("uniq", rows); err != nil {
		t.Fatal(err)
	}
	// One coarse cell keeps all rows in a single segment file, so the tag
	// column's distinct count overflows the per-file cap.
	res := mustExec(t, w, fmt.Sprintf(`CREATE INDEX idx_uniq ON TABLE uniq(id)
		AS 'org.apache.hadoop.hive.ql.index.dgf.DgfIndexHandler'
		IDXPROPERTIES ('id'='1_%d', 'bitmap'='tag')`, n+1))
	if !strings.Contains(res.Message, "bitmap sidecars disabled for tag") {
		t.Errorf("CREATE INDEX message %q does not surface the overflow", res.Message)
	}
	plan := explainOf(t, w, `SELECT count(*) FROM uniq WHERE id>=1`)
	if len(plan.BitmapDisabled) != 1 || plan.BitmapDisabled[0] != "tag" {
		t.Errorf("EXPLAIN BitmapDisabled = %v, want [tag]", plan.BitmapDisabled)
	}
	// Equality on the dropped column still answers correctly — just without
	// bitmap pruning.
	got := mustExec(t, w, `SELECT count(*) FROM uniq WHERE id>=1 AND tag='tag-000123'`)
	if got.Rows[0][0].F != 1 {
		t.Errorf("count = %v, want 1", got.Rows[0][0].F)
	}
	if got.Stats.BitmapHits != 0 {
		t.Errorf("dropped sidecar still reports %d bitmap hits", got.Stats.BitmapHits)
	}
}

// TestAdaptiveGroupBytes: a byte-budget table cuts row groups adaptively,
// the budget survives into the DGF index metadata, and appends answer
// exactly like a from-scratch rebuild over the combined data.
func TestAdaptiveGroupBytes(t *testing.T) {
	all := cityRows(400)
	setup := func(rows []storage.Row) *Warehouse {
		w := testWarehouse(1 << 14)
		mustExec(t, w, `CREATE TABLE cities (id bigint, city string, ts timestamp, v double) STORED AS RCFILE`)
		tbl, _ := w.Table("cities")
		tbl.RowGroupBytes = 1 << 10
		if err := w.LoadRowsByName("cities", rows); err != nil {
			t.Fatal(err)
		}
		mustExec(t, w, `CREATE INDEX idx_cities ON TABLE cities(id)
			AS 'org.apache.hadoop.hive.ql.index.dgf.DgfIndexHandler'
			IDXPROPERTIES ('id'='1_100', 'bitmap'='city')`)
		return w
	}
	wA := setup(all[:200])
	tbl, _ := wA.Table("cities")
	if tbl.Dgf.GroupBytes != 1<<10 {
		t.Fatalf("index GroupBytes = %d, want %d", tbl.Dgf.GroupBytes, 1<<10)
	}
	if err := wA.LoadRowsByName("cities", all[200:]); err != nil {
		t.Fatal(err)
	}
	wB := setup(all)

	queries := []string{
		`SELECT sum(v), count(*) FROM cities WHERE id>=1 AND id<=400`,
		`SELECT sum(v) FROM cities WHERE id>=150 AND id<=250 AND city='berlin'`,
		`SELECT city, count(*) FROM cities WHERE id>=90 AND id<=310 GROUP BY city`,
		`SELECT id, v FROM cities WHERE id>=198 AND id<=203`,
		`SELECT count(*) FROM cities WHERE city IN ('cairo','essen') AND id<=400`,
	}
	for _, sql := range queries {
		a, b := mustExec(t, wA, sql), mustExec(t, wB, sql)
		if want, got := sortedExact(b.Rows), sortedExact(a.Rows); want != got {
			t.Errorf("%q: appended differs from rebuild\nrebuild:\n%s\nappended:\n%s", sql, want, got)
		}
		aRow := refExec(t, wA, sql, ExecOptions{})
		if want, got := sortedExact(aRow.Rows), sortedExact(a.Rows); want != got {
			t.Errorf("%q: vectorised differs from row path after append", sql)
		}
	}
}
