package hive

import (
	"context"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// TestTraceStatement: TRACE SELECT executes the wrapped SELECT and renders
// its span tree as span/wall_ms/detail rows — the root "query" span first,
// a "warehouse" span beneath it carrying the access-path decision and read
// volumes, and the mapreduce span beneath that — while preserving the
// execution's QueryStats.
func TestTraceStatement(t *testing.T) {
	w := testWarehouse(1 << 14)
	setupMeterTable(t, w, 100, 5, 10)
	createDgf(t, w)

	const sel = `SELECT sum(powerConsumed), count(*) FROM meterdata
		WHERE userId>=3 AND userId<=40 AND ts>='2012-12-02' AND ts<'2012-12-05'`
	base := mustExec(t, w, sel)
	res := mustExec(t, w, "TRACE "+sel)

	if got := strings.Join(res.Columns, ","); got != "span,wall_ms,detail" {
		t.Fatalf("columns %q", got)
	}
	if len(res.Rows) == 0 || res.Rows[0][0].String() != "query" {
		t.Fatalf("first row should be the root query span, got %v", res.Rows)
	}
	// The tree must attribute the work: a warehouse span carrying the same
	// access path the plain execution reported.
	var warehouseDetail string
	for _, row := range res.Rows {
		if strings.TrimSpace(row[0].String()) == "warehouse" {
			warehouseDetail = row[2].String()
		}
	}
	if warehouseDetail == "" {
		t.Fatalf("no warehouse span in trace:\n%s", renderTraceRows(res))
	}
	if !strings.Contains(warehouseDetail, "access_path="+base.Stats.AccessPath) {
		t.Fatalf("warehouse span detail %q missing access_path=%s", warehouseDetail, base.Stats.AccessPath)
	}
	// TRACE reports the traced execution's stats, not the rendering's.
	if res.Stats.AccessPath != base.Stats.AccessPath || res.Stats.RecordsRead != base.Stats.RecordsRead {
		t.Fatalf("TRACE stats %+v diverge from plain execution %+v", res.Stats, base.Stats)
	}
}

// tracedSelect runs sql under a fresh root span and returns the result, the
// names of the mapreduce jobs traced under the warehouse span, and the error.
func tracedSelect(t *testing.T, w *Warehouse, sql string) (*Result, []string, error) {
	t.Helper()
	root := trace.New("query")
	res, err := w.ExecContext(trace.NewContext(context.Background(), root), sql, ExecOptions{})
	root.Finish()
	snap := root.Snapshot()
	wh := snap.Find("warehouse")
	if wh == nil {
		t.Fatalf("%s: no warehouse span", sql)
	}
	var jobs []string
	for _, c := range wh.Children {
		if c.Name == "mapreduce" {
			jobs = append(jobs, c.Attr("job"))
		}
	}
	return res, jobs, err
}

// TestTraceHiveIndexScanUnderWarehouse: a Compact index's table scan is a
// job of the query, so its mapreduce span hangs under the warehouse span,
// ahead of the main job's.
func TestTraceHiveIndexScanUnderWarehouse(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 16, 4, 3)
	mustExec(t, w, `CREATE INDEX cix ON TABLE meterdata(regionId) AS 'compact'`)

	res, jobs, err := tracedSelect(t, w, `SELECT count(*) FROM meterdata WHERE regionId>=2 AND regionId<=3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AccessPath != "index:cix" {
		t.Fatalf("access path %q, want index:cix", res.Stats.AccessPath)
	}
	if got := strings.Join(jobs, ","); got != "hiveindex-scan-cix,query-meterdata" {
		t.Fatalf("jobs under warehouse = %q, want the index scan then the query job", got)
	}
}

// TestAggRewriteErrorIsTheQueryError: a failing aggregate-index scan fails
// the query with its own error; the rewrite EXPLAIN announced is not retried
// as a different access path.
func TestAggRewriteErrorIsTheQueryError(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 16, 4, 3)
	mustExec(t, w, `CREATE INDEX aggx ON TABLE meterdata(regionId) AS 'aggregate'`)
	tbl, err := w.Table("meterdata")
	if err != nil {
		t.Fatal(err)
	}
	// A line whose regionId cell is not a bigint: every index-table scan
	// fails on it.
	if err := w.FS.WriteFile(tbl.HiveIndexes["aggx"].IndexDir+"/corrupt", []byte("x,y,z,w\n")); err != nil {
		t.Fatal(err)
	}

	sql := `SELECT regionId, count(*) FROM meterdata WHERE regionId>=2 AND regionId<=4 GROUP BY regionId`
	if plan := explainOf(t, w, sql); plan.AccessPath != "aggindex-rewrite:aggx" {
		t.Fatalf("EXPLAIN access path %q, want aggindex-rewrite:aggx", plan.AccessPath)
	}
	_, jobs, err := tracedSelect(t, w, sql)
	if err == nil {
		t.Fatal("query over a corrupt aggregate index succeeded")
	}
	if !strings.Contains(err.Error(), "hiveindex-aggscan-aggx") {
		t.Fatalf("error %q does not come from the aggregate scan", err)
	}
	if got := strings.Join(jobs, ","); got != "hiveindex-aggscan-aggx" {
		t.Fatalf("jobs under warehouse = %q, want the one aggregate scan", got)
	}
}

// TestTraceStatementNormalization: TRACE statements are read-only and report
// the tables of the wrapped SELECT (cache keying and invalidation depend on
// both).
func TestTraceStatementNormalization(t *testing.T) {
	stmt, err := Parse(`TRACE SELECT count(*) FROM meterdata`)
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := stmt.(*TraceStmt)
	if !ok {
		t.Fatalf("parsed %T, want *TraceStmt", stmt)
	}
	if ts.Select == nil || ts.Select.From.Table != "meterdata" {
		t.Fatalf("wrapped select not preserved: %+v", ts.Select)
	}
	if !IsReadOnly(stmt) {
		t.Fatal("TRACE SELECT must be read-only")
	}
	if tables := StatementTables(stmt); len(tables) != 1 || tables[0] != "meterdata" {
		t.Fatalf("StatementTables = %v, want [meterdata]", tables)
	}
	if _, err := Parse(`TRACE SHOW TABLES`); err == nil {
		t.Fatal("TRACE must require a SELECT")
	}
}

func renderTraceRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
