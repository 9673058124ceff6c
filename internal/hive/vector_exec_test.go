package hive

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// sortedExact renders rows bit-exactly and sorts the lines, for comparisons
// where two correct executions may deliver rows in different orders (e.g. an
// appended index layout versus a from-scratch rebuild).
func sortedExact(rows []storage.Row) string {
	lines := strings.Split(strings.TrimRight(renderExact(rows), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// setupVectorWarehouse builds one warehouse with the three table shapes the
// vectorised suite exercises: an RCFile table with a DGF index, a plain
// RCFile table with no index (full-scan path), and a small TextFile table to
// broadcast-join against.
func setupVectorWarehouse(t *testing.T) (*Warehouse, []storage.Row) {
	t.Helper()
	w := testWarehouse(1 << 14)
	rows := setupMeterTableFormat(t, w, 40, 4, 8, "RCFILE")
	createDgf(t, w)

	mustExec(t, w, `CREATE TABLE plainmeter (userId bigint, regionId bigint,
		ts timestamp, powerConsumed double) STORED AS RCFILE`)
	plain, _ := w.Table("plainmeter")
	plain.RowGroupRows = 16
	if err := w.LoadRowsByName("plainmeter", rows); err != nil {
		t.Fatal(err)
	}

	mustExec(t, w, `CREATE TABLE userInfo (userId bigint, userName string)`)
	var userRows []storage.Row
	for u := 1; u <= 40; u++ {
		userRows = append(userRows, storage.Row{
			storage.Int64(int64(u)), storage.Str(fmt.Sprintf("user-%02d", u)),
		})
	}
	if err := w.LoadRowsByName("userInfo", userRows); err != nil {
		t.Fatal(err)
	}
	return w, rows
}

// TestVectorisedMatchesRowPath is the equivalence half of the acceptance
// criterion: for every query shape — scans, aggregates, GROUP BY, joins,
// empty results, SELECT * — the executor answers bit-identically to the
// row-at-a-time reference, and reports that a batch scan ran.
func TestVectorisedMatchesRowPath(t *testing.T) {
	w, _ := setupVectorWarehouse(t)

	queries := []string{
		// Full-scan path over the unindexed RCFile table.
		`SELECT * FROM plainmeter`,
		`SELECT userId, powerConsumed FROM plainmeter WHERE userId>=5 AND userId<=12`,
		`SELECT sum(powerConsumed), count(*) FROM plainmeter WHERE ts>='2012-12-03'`,
		`SELECT regionId, avg(powerConsumed), max(powerConsumed) FROM plainmeter WHERE userId<=30 GROUP BY regionId`,
		`SELECT count(*) FROM plainmeter WHERE powerConsumed < 0`,
		`SELECT userId FROM plainmeter WHERE userId>=1000`,
		`SELECT userId, powerConsumed FROM plainmeter WHERE userId>=3 LIMIT 7`,
		// DGF index path over the indexed RCFile table.
		`SELECT sum(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=30`,
		`SELECT regionId, avg(powerConsumed), count(*) FROM meterdata WHERE ts>='2012-12-02' AND ts<'2012-12-06' GROUP BY regionId`,
		`SELECT userId, powerConsumed FROM meterdata WHERE userId=11 AND ts<'2012-12-03'`,
		`SELECT * FROM meterdata WHERE userId=19 AND ts='2012-12-04'`,
		`SELECT count(*) FROM meterdata WHERE userId>=1000`,
		// Broadcast joins probe with the materialised survivors.
		`SELECT t2.userName, t1.powerConsumed FROM meterdata t1 JOIN userInfo t2
			ON t1.userId=t2.userId WHERE t1.userId>=5 AND t1.userId<=8`,
		`SELECT t2.userName, sum(t1.powerConsumed) FROM plainmeter t1 JOIN userInfo t2
			ON t1.userId=t2.userId WHERE t1.regionId!=2 AND t2.userName>='user-07' AND t2.userName IN ('user-08','user-11','user-30')
			GROUP BY t2.userName`,
	}
	for _, sql := range queries {
		vec := mustExec(t, w, sql)
		row := refExec(t, w, sql, ExecOptions{})
		if !vec.Stats.Vectorized {
			t.Errorf("%q: Vectorized = false after a scan job ran", sql)
		}
		if strings.Contains(sql, "LIMIT") {
			// LIMIT queries may satisfy the limit from different splits on
			// the two paths; compare cardinality and membership instead.
			if len(vec.Rows) != len(row.Rows) {
				t.Errorf("%q: %d rows vectorised vs %d row-path", sql, len(vec.Rows), len(row.Rows))
			}
			full := mustExec(t, w, strings.Split(sql, " LIMIT")[0])
			members := map[string]int{}
			for _, r := range full.Rows {
				members[renderExact([]storage.Row{r})]++
			}
			for _, r := range vec.Rows {
				key := renderExact([]storage.Row{r})
				if members[key] == 0 {
					t.Errorf("%q: vectorised LIMIT row %s not in the full result", sql, key)
				}
				members[key]--
			}
			continue
		}
		if want, got := renderExact(row.Rows), renderExact(vec.Rows); want != got {
			t.Errorf("%q: results differ\nrow path:\n%s\nvectorised:\n%s", sql, want, got)
		}
	}
}

// TestVectorisedCursorLimit: a streaming cursor with LIMIT delivers exactly
// limit rows, every one a member of the full result set.
func TestVectorisedCursorLimit(t *testing.T) {
	w, _ := setupVectorWarehouse(t)
	const sql = `SELECT userId, powerConsumed FROM plainmeter WHERE userId>=3 AND userId<=38 LIMIT 9`

	cur, err := w.SelectCursor(context.Background(), mustParseSelect(t, sql), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var vec []storage.Row
	for cur.Next() {
		vec = append(vec, append(storage.Row{}, cur.Row()...))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if len(vec) != 9 {
		t.Fatalf("cursor delivered %d rows, want 9", len(vec))
	}
	full := mustExec(t, w, `SELECT userId, powerConsumed FROM plainmeter WHERE userId>=3 AND userId<=38`)
	members := map[string]int{}
	for _, r := range full.Rows {
		members[renderExact([]storage.Row{r})]++
	}
	for _, r := range vec {
		key := renderExact([]storage.Row{r})
		if members[key] == 0 {
			t.Errorf("cursor row %s not in the full result", key)
		}
		members[key]--
	}
}

// TestVectorisedZoneSkipTruthfulScan: on the full-scan path, EXPLAIN
// announces the zone-map pruning the execution then performs — same group
// count, same bytes — and the unpruned reference read is strictly
// larger.
func TestVectorisedZoneSkipTruthfulScan(t *testing.T) {
	w, _ := setupVectorWarehouse(t)
	const sql = `SELECT powerConsumed FROM plainmeter WHERE ts>='2012-12-07'`

	plan := explainOf(t, w, sql)
	if !plan.GroupPruning {
		t.Fatal("EXPLAIN does not announce row-group pruning")
	}
	if plan.GroupsSkipped == 0 {
		t.Fatal("EXPLAIN predicts no zone-map skips on a late-date predicate")
	}
	res := mustExec(t, w, sql)
	if res.Stats.GroupsSkipped != plan.GroupsSkipped {
		t.Errorf("EXPLAIN GroupsSkipped %d, execution %d", plan.GroupsSkipped, res.Stats.GroupsSkipped)
	}
	if plan.ProjectedBytes != res.Stats.BytesRead {
		t.Errorf("EXPLAIN ProjectedBytes %d, execution BytesRead %d", plan.ProjectedBytes, res.Stats.BytesRead)
	}
	row := refExec(t, w, sql, ExecOptions{})
	if row.Stats.BytesRead <= res.Stats.BytesRead {
		t.Errorf("row path read %d bytes, vectorised %d: skipping saved nothing",
			row.Stats.BytesRead, res.Stats.BytesRead)
	}
	if want, got := renderExact(row.Rows), renderExact(res.Rows); want != got {
		t.Errorf("results differ\nrow path:\n%s\nvectorised:\n%s", want, got)
	}
}

// TestVectorisedZoneSkipTruthfulDgf: same truthfulness contract on the DGF
// index path, where zone maps prune row groups inside the selected slices
// (the double pruning: cells first, groups within their slices second).
func TestVectorisedZoneSkipTruthfulDgf(t *testing.T) {
	w, _ := setupVectorWarehouse(t)
	const sql = `SELECT userId, powerConsumed FROM meterdata WHERE userId=11 AND ts<'2012-12-03'`

	plan := explainOf(t, w, sql)
	if !plan.GroupPruning {
		t.Fatal("EXPLAIN does not announce row-group pruning")
	}
	if plan.GroupsSkipped == 0 {
		t.Fatal("EXPLAIN predicts no intra-slice zone skips")
	}
	res := mustExec(t, w, sql)
	if !strings.HasPrefix(res.Stats.AccessPath, "dgfindex") {
		t.Fatalf("access path %q, want dgfindex", res.Stats.AccessPath)
	}
	if res.Stats.GroupsSkipped != plan.GroupsSkipped {
		t.Errorf("EXPLAIN GroupsSkipped %d, execution %d", plan.GroupsSkipped, res.Stats.GroupsSkipped)
	}
	if plan.ProjectedBytes != res.Stats.BytesRead {
		t.Errorf("EXPLAIN ProjectedBytes %d, execution BytesRead %d", plan.ProjectedBytes, res.Stats.BytesRead)
	}
	row := refExec(t, w, sql, ExecOptions{})
	if row.Stats.BytesRead <= res.Stats.BytesRead {
		t.Errorf("row path read %d bytes, vectorised %d: skipping saved nothing",
			row.Stats.BytesRead, res.Stats.BytesRead)
	}
	if want, got := renderExact(row.Rows), renderExact(res.Rows); want != got {
		t.Errorf("results differ\nrow path:\n%s\nvectorised:\n%s", want, got)
	}
}

// taggedRows builds the interleaved-string dataset: ids 1..n; tag is 'x'
// only for ids in [xLo, xHi] and alternates 'a'/'z' elsewhere, so every mixed
// group's tag zone [a,z] straddles 'x' and zone maps cannot prune it.
func taggedRows(n, xLo, xHi int) []storage.Row {
	var rows []storage.Row
	for i := 1; i <= n; i++ {
		tag := "a"
		if i%2 == 0 {
			tag = "z"
		}
		if i >= xLo && i <= xHi {
			tag = "x"
		}
		rows = append(rows, storage.Row{
			storage.Int64(int64(i)), storage.Str(tag), storage.Float64(float64(i) * 1.5),
		})
	}
	return rows
}

func setupTaggedTable(t *testing.T, w *Warehouse, rows []storage.Row) {
	t.Helper()
	mustExec(t, w, `CREATE TABLE tagged (id bigint, tag string, v double) STORED AS RCFILE`)
	tbl, _ := w.Table("tagged")
	tbl.RowGroupRows = 8
	if err := w.LoadRowsByName("tagged", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE INDEX idx_tagged ON TABLE tagged(id)
		AS 'org.apache.hadoop.hive.ql.index.dgf.DgfIndexHandler'
		IDXPROPERTIES ('id'='1_10')`)
}

// TestDgfAppendKeepsZoneMapsConsistent is the append-consistency criterion:
// loading more rows into an indexed RCFile table must extend the zone maps,
// so post-append queries still skip groups correctly, and answer exactly
// like an index rebuilt from scratch over the combined data.
func TestDgfAppendKeepsZoneMapsConsistent(t *testing.T) {
	all := taggedRows(400, 151, 170)

	// Warehouse A: index half the data, then append the other half.
	wA := testWarehouse(1 << 14)
	setupTaggedTable(t, wA, all[:200])
	if err := wA.LoadRowsByName("tagged", all[200:]); err != nil {
		t.Fatal(err)
	}
	// Warehouse B: one build over the combined data — the rebuild baseline.
	wB := testWarehouse(1 << 14)
	setupTaggedTable(t, wB, all)

	queries := []string{
		`SELECT sum(v), count(*) FROM tagged WHERE id>=1 AND id<=400 AND tag='x'`,
		`SELECT sum(v) FROM tagged WHERE id>=180 AND id<=320`,
		`SELECT count(*) FROM tagged WHERE id>=390`,
		`SELECT id, v FROM tagged WHERE id>=198 AND id<=203`,
		`SELECT tag, count(*) FROM tagged WHERE id>=140 AND id<=260 GROUP BY tag`,
	}
	for _, sql := range queries {
		a := mustExec(t, wA, sql)
		b := mustExec(t, wB, sql)
		// Append and rebuild lay segments out differently, so non-aggregate
		// rows may arrive in a different order; compare as sorted multisets.
		if want, got := sortedExact(b.Rows), sortedExact(a.Rows); want != got {
			t.Errorf("%q: appended index differs from rebuild\nrebuild:\n%s\nappended:\n%s", sql, want, got)
		}
		// The appended warehouse's skip decisions must still be sound: the
		// vectorised answer equals its own row-path answer bit-identically.
		aRow := refExec(t, wA, sql, ExecOptions{})
		if want, got := sortedExact(aRow.Rows), sortedExact(a.Rows); want != got {
			t.Errorf("%q: post-append vectorised path diverges from row path\nrow:\n%s\nvectorised:\n%s", sql, want, got)
		}
	}

	// Zone maps cover the appended segments: a predicate selecting only
	// appended ids still skips groups.
	late := mustExec(t, wA, `SELECT sum(v) FROM tagged WHERE id>=390`)
	if late.Stats.GroupsSkipped == 0 {
		t.Error("no groups skipped on an appended-range predicate: appended segments lack zone maps")
	}
}
