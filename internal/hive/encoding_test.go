package hive

import (
	"context"
	"fmt"
	"slices"
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
// bit-identically to the row-at-a-time path, on the full-scan path and on a
// DGF-indexed table whose zone maps cannot rule out the probed string, and
// the stats prove the encoding-aware kernels actually ran (dictionary probes,
// skipped runs).
func TestEncodedKernelsMatchRowPath(t *testing.T) {
	w := testWarehouse(1 << 14)
	setupCityTable(t, w, 400)
	setupTaggedTable(t, w, taggedRows(400, 151, 170))

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
		`SELECT sum(v), count(*) FROM cities WHERE id>=1 AND id<=400`,
		`SELECT sum(v) FROM cities WHERE id>=150 AND id<=250 AND city='berlin'`,
		`SELECT city, count(*) FROM cities WHERE id>=90 AND id<=310 GROUP BY city`,
		`SELECT id, v FROM cities WHERE id>=198 AND id<=203`,
		`SELECT count(*) FROM cities WHERE city IN ('cairo','essen') AND id<=400`,
		`SELECT sum(v), count(*) FROM tagged WHERE id>=1 AND id<=400 AND tag='x'`,
		`SELECT count(*) FROM tagged WHERE id>=1 AND id<=400 AND tag='q'`,
		`SELECT count(*) FROM tagged WHERE tag>='y'`,
		`SELECT sum(v), count(*) FROM tagged WHERE id>=1 AND id<=400 AND tag IN ('x','q')`,
		`SELECT count(*) FROM tagged WHERE id>=1 AND id<=400 AND tag IN ('q','w')`,
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
		IDXPROPERTIES ('id'='1_50')`)
	plan = explainOf(t, w, `SELECT sum(v) FROM cities WHERE id>=1 AND id<=200`)
	if !strings.HasPrefix(plan.AccessPath, "dgfindex") {
		t.Fatalf("access path %q, want dgfindex", plan.AccessPath)
	}
	if !strings.Contains(strings.Join(plan.EncodedColumns, " "), "city(dict") {
		t.Errorf("DGF EncodedColumns = %v, want city(dict...)", plan.EncodedColumns)
	}

	// An unencoded table reports no encoded columns, and one whose bigints
	// pack reports them packed.
	mustExec(t, w, `CREATE TABLE flat (ratio double, note string) STORED AS RCFILE`)
	mustExec(t, w, `CREATE TABLE ids (id bigint, note string) STORED AS RCFILE`)
	var flat, ids []storage.Row
	for i := 0; i < 50; i++ {
		note := storage.Str(fmt.Sprintf("unique-%d", i))
		flat = append(flat, storage.Row{storage.Float64(float64(i+1) / 3), note})
		ids = append(ids, storage.Row{storage.Int64(int64(i)), note})
	}
	if err := w.LoadRowsByName("flat", flat); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRowsByName("ids", ids); err != nil {
		t.Fatal(err)
	}
	if plan := explainOf(t, w, `SELECT count(*) FROM flat`); len(plan.EncodedColumns) != 0 {
		t.Errorf("unencodable table reports EncodedColumns = %v", plan.EncodedColumns)
	}
	if plan := explainOf(t, w, `SELECT count(*) FROM ids`); !slices.Equal(plan.EncodedColumns, []string{"id(packed)"}) {
		t.Errorf("table of bigint ids reports EncodedColumns = %v, want [id(packed)]", plan.EncodedColumns)
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
		scan, err := w.ExecContext(context.Background(), sql, ExecOptions{DisableIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		if want, got := sortedExact(scan.Rows), sortedExact(idx.Rows); want != got {
			t.Errorf("%q: index path differs from scan\nscan:\n%s\nindex:\n%s", sql, want, got)
		}
	}
}
