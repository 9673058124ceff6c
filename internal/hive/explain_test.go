package hive

import (
	"context"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// explainOf runs Warehouse.Explain on the statement.
func explainOf(t *testing.T, w *Warehouse, sql string) *ExplainPlan {
	t.Helper()
	plan, err := w.Explain(mustParseSelect(t, sql), ExecOptions{})
	if err != nil {
		t.Fatalf("Explain(%q): %v", sql, err)
	}
	return plan
}

// TestExplainTruthful is the acceptance check: for every query in the
// suite, the access path EXPLAIN announces equals the one the immediately
// following execution reports, and — on every path whose read set is known
// at plan time (DGF and full scans) — ProjectedBytes equals the executed
// BytesRead exactly.
func TestExplainTruthful(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 20, 4, 6)
	createDgf(t, w)

	// A second, index-free table exercises the scan path; an RCFile copy
	// exercises projected columnar scan volumes.
	mustExec(t, w, `CREATE TABLE rawmeter (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	mustExec(t, w, `CREATE TABLE rcmeter (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`)
	rows := meterRows(20, 4, 6)
	for _, name := range []string{"rawmeter", "rcmeter"} {
		tbl, _ := w.Table(name)
		// Small row groups give the RCFile copy several zone-map candidates
		// per file, so the suite covers plans that prune groups.
		tbl.RowGroupRows = 16
		if err := w.LoadRowsByName(name, rows); err != nil {
			t.Fatal(err)
		}
	}

	suite := []string{
		// DGF precompute hit.
		`SELECT sum(powerConsumed), count(*) FROM meterdata WHERE userId>=3 AND userId<=15 AND ts>='2012-12-02' AND ts<'2012-12-05'`,
		// DGF slice scan (projection is not precomputable).
		`SELECT userId, powerConsumed FROM meterdata WHERE userId>=3 AND userId<=9`,
		// DGF with GROUP BY (no cell lies wholly inside userId 2-18, so no
		// header answers it; TestExplainTruthfulGroupHeaders has those that do).
		`SELECT regionId, avg(powerConsumed) FROM meterdata WHERE userId>=2 AND userId<=18 GROUP BY regionId`,
		// TextFile full scan.
		`SELECT sum(powerConsumed) FROM rawmeter WHERE userId>=3`,
		// RCFile scan with a projected column subset.
		`SELECT userId FROM rcmeter WHERE userId<=10`,
		// RCFile scan touching every column.
		`SELECT * FROM rcmeter`,
		// RCFile scan whose zone maps prune the early-date row groups: the
		// announced skips and the skipped groups' bytes must both match the
		// execution exactly.
		`SELECT powerConsumed FROM rcmeter WHERE ts>='2012-12-06'`,
	}
	var sawSkips bool
	for _, sql := range suite {
		plan := explainOf(t, w, sql)
		res := mustExec(t, w, sql)
		if plan.AccessPath != res.Stats.AccessPath {
			t.Errorf("%s\n  EXPLAIN access path %q, execution %q", sql, plan.AccessPath, res.Stats.AccessPath)
		}
		if plan.GroupsSkipped != res.Stats.GroupsSkipped {
			t.Errorf("%s\n  EXPLAIN GroupsSkipped %d, execution %d", sql, plan.GroupsSkipped, res.Stats.GroupsSkipped)
		}
		sawSkips = sawSkips || plan.GroupsSkipped > 0
		if plan.ProjectedBytes < 0 {
			t.Errorf("%s\n  ProjectedBytes unknown on a predictable path %q", sql, plan.AccessPath)
			continue
		}
		if plan.ProjectedBytes != res.Stats.BytesRead {
			t.Errorf("%s\n  EXPLAIN ProjectedBytes %d, execution BytesRead %d", sql, plan.ProjectedBytes, res.Stats.BytesRead)
		}
	}
	if !sawSkips {
		t.Error("no suite query skipped a row group; the zone-map case covers nothing")
	}
}

// TestExplainTruthfulGroupHeaders: which GROUP BYs read the pre-computed
// headers is decided once, by the plan, and EXPLAIN reports it. A GROUP BY
// of the unit-interval regionId dimension with pre-computed aggregates does;
// a GROUP BY of the day-wide ts dimension, one with min() (not pre-computed
// by the index), one with a != predicate (its ranges are a superset of the
// WHERE) and one filtering powerConsumed, which is no grid dimension, do not;
// nor does a scalar aggregate with that filter. For each, EXPLAIN's access path and precompute_hit equal the
// executed ones, its volume equals the bytes read, and the answer equals the
// one without pre-computation.
func TestExplainTruthfulGroupHeaders(t *testing.T) {
	w := testWarehouse(1 << 12)
	setupMeterTable(t, w, 40, 4, 6)
	createDgf(t, w)
	const where = `WHERE userId>=1 AND userId<=25 AND ts>='2012-12-02' AND ts<'2012-12-06'`
	for _, c := range []struct {
		sql        string
		precompute bool
	}{
		{`SELECT regionId, sum(powerConsumed), count(*), avg(powerConsumed) FROM meterdata ` + where + ` GROUP BY regionId`, true},
		{`SELECT ts, sum(powerConsumed) FROM meterdata ` + where + ` GROUP BY ts`, false},
		{`SELECT regionId, min(powerConsumed), count(*) FROM meterdata ` + where + ` GROUP BY regionId`, false},
		{`SELECT regionId, count(*) FROM meterdata ` + where + ` AND regionId != 2 GROUP BY regionId`, false},
		{`SELECT regionId, sum(powerConsumed), count(*) FROM meterdata ` + where + ` AND powerConsumed>=5 GROUP BY regionId`, false},
		{`SELECT sum(powerConsumed), count(*) FROM meterdata ` + where + ` AND powerConsumed>=5`, false},
	} {
		plan := explainOf(t, w, c.sql)
		res := mustExec(t, w, c.sql)
		hit := res.Stats.AccessPath == "dgfindex(precompute)"
		if plan.AccessPath != res.Stats.AccessPath || plan.PrecomputeHit != hit {
			t.Errorf("%s\n  EXPLAIN %q precompute_hit=%v, execution %q", c.sql, plan.AccessPath, plan.PrecomputeHit, res.Stats.AccessPath)
		}
		if hit != c.precompute {
			t.Errorf("%s\n  precompute hit %v, want %v", c.sql, hit, c.precompute)
		}
		if plan.ProjectedBytes != res.Stats.BytesRead {
			t.Errorf("%s\n  EXPLAIN ProjectedBytes %d, execution BytesRead %d", c.sql, plan.ProjectedBytes, res.Stats.BytesRead)
		}
		scanned, err := w.ExecContext(context.Background(), c.sql, ExecOptions{DisablePrecompute: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(res.Rows, scanned.Rows) {
			t.Errorf("%s\n  answers %s, without pre-computation %s", c.sql, fmtRows(res.Rows), fmtRows(scanned.Rows))
		}
		if c.precompute && res.Stats.RecordsRead >= scanned.Stats.RecordsRead {
			t.Errorf("%s\n  read %d records, %d without pre-computation", c.sql, res.Stats.RecordsRead, scanned.Stats.RecordsRead)
		}
	}
}

// TestExplainStatement: the EXPLAIN SELECT statement renders the plan as
// plan_item/value rows through the ordinary Exec path, with the access path
// in the first row.
func TestExplainStatement(t *testing.T) {
	w := testWarehouse(1 << 14)
	setupMeterTable(t, w, 100, 5, 10)
	createDgf(t, w)

	res := mustExec(t, w, `EXPLAIN SELECT sum(powerConsumed), count(*) FROM meterdata
		WHERE regionId>=2 AND regionId<=4 AND userId>=15 AND userId<=80
		AND ts>='2012-12-02' AND ts<'2012-12-08'`)
	if len(res.Columns) != 2 || res.Columns[0] != "plan_item" {
		t.Fatalf("columns = %v", res.Columns)
	}
	got := map[string]string{}
	for _, row := range res.Rows {
		got[row[0].String()] = row[1].String()
	}
	if got["access_path"] != "dgfindex(precompute)" {
		t.Fatalf("access_path = %q, want dgfindex(precompute); rows: %v", got["access_path"], got)
	}
	if got["precompute_hit"] != "true" {
		t.Fatalf("precompute_hit = %q", got["precompute_hit"])
	}
	if !strings.Contains(got["projected_columns"], "powerConsumed") {
		t.Fatalf("projected_columns = %q", got["projected_columns"])
	}
	if _, ok := got["gfu_slices"]; !ok {
		t.Fatalf("missing gfu_slices row: %v", got)
	}

	// EXPLAIN of an index-path query reports an honest "unknown" volume.
	mustExec(t, w, `CREATE TABLE ct (a bigint, b double)`)
	var rows []storage.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, storage.Row{storage.Int64(int64(i)), storage.Float64(float64(i))})
	}
	if err := w.LoadRowsByName("ct", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE INDEX cidx ON TABLE ct(a) AS 'compact'`)
	plan := explainOf(t, w, `SELECT b FROM ct WHERE a=7`)
	exec := mustExec(t, w, `SELECT b FROM ct WHERE a=7`)
	if plan.AccessPath != exec.Stats.AccessPath {
		t.Fatalf("index path: EXPLAIN %q vs execution %q", plan.AccessPath, exec.Stats.AccessPath)
	}
	if plan.ProjectedBytes != -1 {
		t.Fatalf("index path ProjectedBytes = %d, want -1 (unknown)", plan.ProjectedBytes)
	}
}

// TestExplainAggRewrite: the announced aggregate-index rewrite matches the
// executed access path, and a filter on a column the index lacks rules the
// rewrite out.
func TestExplainAggRewrite(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 16, 4, 3)
	mustExec(t, w, `CREATE INDEX aggx ON TABLE meterdata(regionId) AS 'aggregate'`)

	sql := `SELECT regionId, count(*) FROM meterdata WHERE regionId>=2 AND regionId<=4 GROUP BY regionId`
	plan := explainOf(t, w, sql)
	res := mustExec(t, w, sql)
	if plan.AccessPath != res.Stats.AccessPath {
		t.Fatalf("EXPLAIN %q vs execution %q", plan.AccessPath, res.Stats.AccessPath)
	}
	if !strings.HasPrefix(plan.AccessPath, "aggindex-rewrite:") {
		t.Fatalf("access path %q, want aggindex-rewrite:*", plan.AccessPath)
	}

	// A filter on a column the index does not hold cannot be applied to its
	// counts, so that query scans and answers what a scan without indexes
	// answers.
	sql = `SELECT regionId, count(*) FROM meterdata WHERE regionId>=2 AND regionId<=4 AND powerConsumed>=5 GROUP BY regionId`
	plan = explainOf(t, w, sql)
	res = mustExec(t, w, sql)
	if plan.AccessPath != res.Stats.AccessPath || strings.HasPrefix(res.Stats.AccessPath, "aggindex-rewrite:") {
		t.Fatalf("EXPLAIN %q, execution %q; want no aggindex rewrite", plan.AccessPath, res.Stats.AccessPath)
	}
	scanned, err := w.ExecContext(context.Background(), sql, ExecOptions{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(res.Rows, scanned.Rows) {
		t.Fatalf("answers %s, without indexes %s", fmtRows(res.Rows), fmtRows(scanned.Rows))
	}
}
