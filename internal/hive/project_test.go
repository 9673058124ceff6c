package hive

import (
	"context"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// delimiterRows are user rows whose last column holds what the text encoding
// uses to separate cells: a comma (the field delimiter, legal in the last
// column, whose field runs to the end of the line) and a pipe. (A ^A, the
// group-key separator, is refused by every load: TestLoadRejectsGroupKeySeparatorDirect.)
func delimiterRows() []storage.Row {
	return []storage.Row{
		{storage.Int64(1), storage.Str("12 Main St, Springfield")},
		{storage.Int64(2), storage.Str("b|cd,1")},
		{storage.Int64(3), storage.Str("")},
		{storage.Int64(4), storage.Str(",,")},
	}
}

// cursorRows drains a cursor over sql.
func cursorRows(t *testing.T, w *Warehouse, sql string) []storage.Row {
	t.Helper()
	cur, err := w.SelectCursor(context.Background(), mustParseSelect(t, sql), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var rows []storage.Row
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor %q: %v", sql, err)
	}
	return rows
}

// TestProjectDelimiterCell: a last-column string holding the field delimiter
// loads and reads back, so projecting it into any output position must too.
// Projected rows used to be printed as text and parsed back, which split such
// a cell and failed the query ("parse bigint") on both storage formats.
func TestProjectDelimiterCell(t *testing.T) {
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		w := testWarehouse(1 << 12)
		mustExec(t, w, `CREATE TABLE u (uid bigint, addr string) STORED AS `+stored)
		if err := w.LoadRowsByName("u", delimiterRows()); err != nil {
			t.Fatal(err)
		}
		var want []storage.Row
		for _, r := range delimiterRows() {
			want = append(want, storage.Row{r[1], r[0], storage.Float64(float64(2 * r[0].I))})
		}
		const sql = `SELECT addr, uid, uid*2 FROM u`
		if got := mustExec(t, w, sql).Rows; renderExact(got) != renderExact(want) {
			t.Errorf("%s: Exec:\n%swant:\n%s", stored, renderExact(got), renderExact(want))
		}
		if got := cursorRows(t, w, sql); renderExact(got) != renderExact(want) {
			t.Errorf("%s: cursor:\n%swant:\n%s", stored, renderExact(got), renderExact(want))
		}
		if got := refExec(t, w, sql, ExecOptions{}).Rows; renderExact(got) != renderExact(want) {
			t.Errorf("%s: reference:\n%swant:\n%s", stored, renderExact(got), renderExact(want))
		}
	}
}

// TestProjectOrderUnderReversedSplits: a projection's rows come back in
// source order — by file, position in the file and row in the batch — however
// the splits complete, on every access path and both storage formats, and in
// the order the reference evaluator gives.
func TestProjectOrderUnderReversedSplits(t *testing.T) {
	multi := 0
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		w := goldenWarehouse(t, stored)
		for _, p := range goldenPaths {
			for _, shape := range goldenShapes {
				if !strings.Contains(shape.sql, "JOIN") && strings.Contains(shape.sql, "(") {
					continue // an aggregate
				}
				sql := strings.Replace(shape.sql, "%s", p.table, 1)
				key := stored + "/" + p.name + "/" + shape.name
				res, err := w.ExecContext(context.Background(), sql, p.opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if res.Stats.Splits > 1 && len(res.Rows) > 1 {
					multi++
				}
				if rev := execReversed(t, w, sql, p.opts); renderExact(rev.Rows) != renderExact(res.Rows) {
					t.Errorf("%s: rows depend on split order\nforward:\n%sreversed:\n%s", key, renderExact(res.Rows), renderExact(rev.Rows))
				}
				if ref := refExec(t, w, sql, p.opts); renderExact(ref.Rows) != renderExact(res.Rows) {
					t.Errorf("%s: not in source order\ngot:\n%sreference:\n%s", key, renderExact(res.Rows), renderExact(ref.Rows))
				}
			}
		}
	}
	if multi < 41 {
		t.Errorf("only %d of 48 cases project several rows from several splits", multi)
	}
}

// TestProjectJoinTieOrder: a join that matches one left row to several
// broadcast rows emits them in the broadcast table's order, and the result
// keeps that order — it used to sort such ties by the bytes of the printed
// output row.
func TestProjectJoinTieOrder(t *testing.T) {
	tags := []string{"zeta", "alpha", "mid"} // not in byte order
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		w := testWarehouse(256)
		mustExec(t, w, `CREATE TABLE m (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS `+stored)
		meter, _ := w.Table("m")
		meter.RowGroupRows = 8
		rows := meterRows(12, 3, 4)
		if err := w.LoadRowsByName("m", rows); err != nil {
			t.Fatal(err)
		}
		mustExec(t, w, `CREATE TABLE tags (userId bigint, tag string) STORED AS `+stored)
		var tagRows []storage.Row
		for u := int64(1); u <= 12; u++ {
			for _, tag := range tags {
				tagRows = append(tagRows, storage.Row{storage.Int64(u), storage.Str(tag)})
			}
		}
		if err := w.LoadRowsByName("tags", tagRows); err != nil {
			t.Fatal(err)
		}

		const sql = `SELECT t1.userId, t1.ts, t2.tag FROM m t1 JOIN tags t2 ON t1.userId=t2.userId WHERE t1.regionId=2`
		var want []storage.Row
		for _, r := range rows {
			if r[1].I == 2 {
				for _, tag := range tags {
					want = append(want, storage.Row{r[0], r[2], storage.Str(tag)})
				}
			}
		}
		res := mustExec(t, w, sql)
		if res.Stats.Splits < 2 {
			t.Fatalf("%s: %d splits: the order is not exercised", stored, res.Stats.Splits)
		}
		if renderExact(res.Rows) != renderExact(want) {
			t.Errorf("%s: got:\n%swant:\n%s", stored, renderExact(res.Rows), renderExact(want))
		}
		if rev := execReversed(t, w, sql, ExecOptions{}); renderExact(rev.Rows) != renderExact(want) {
			t.Errorf("%s: reversed splits:\n%swant:\n%s", stored, renderExact(rev.Rows), renderExact(want))
		}
		if ref := refExec(t, w, sql, ExecOptions{}); renderExact(ref.Rows) != renderExact(want) {
			t.Errorf("%s: reference:\n%swant:\n%s", stored, renderExact(ref.Rows), renderExact(want))
		}
	}
}

// TestProjectAllocBudget: a projection hands its map tasks' rows over typed —
// allocating per batch, plus one string per row that has string cells — so
// projecting every row of the scan_agg table costs a fraction of an allocation
// per row: 0.04 measured, some 800 allocations for 20,000 rows. Printing
// each row under a formatted key, copying it into a collector and parsing it
// back cost 4.04 a row on the same query.
func TestProjectAllocBudget(t *testing.T) {
	const sql = `SELECT userId, ts, powerConsumed FROM scanlog WHERE powerConsumed >= 0`
	const budget = 0.1 // allocations per qualifying row
	w, rows := scanAggWarehouse(t, 1)
	res := mustExec(t, w, sql)
	if len(res.Rows) != rows {
		t.Fatalf("projected %d of %d rows", len(res.Rows), rows)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := w.ExecContext(context.Background(), sql, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(rows); perRow > budget {
		t.Errorf("%.0f allocations for %d rows: %.2f a row, budget %.2f", allocs, rows, perRow, budget)
	}
}

// TestAggregateIndexCountsRows: the Aggregate Index's covered GROUP BY count
// rewrite answers what a full scan answers, on both storage formats. On
// RCFile every row of a row group records the group's offset, and the index
// used to count distinct offsets — row groups — instead of rows.
func TestAggregateIndexCountsRows(t *testing.T) {
	const sql = `SELECT regionId, count(*) FROM m WHERE regionId>=2 AND regionId<=4 GROUP BY regionId`
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		w := testWarehouse(1 << 12)
		mustExec(t, w, `CREATE TABLE m (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS `+stored)
		tbl, _ := w.Table("m")
		tbl.RowGroupRows = 16
		if err := w.LoadRowsByName("m", meterRows(60, 4, 10)); err != nil {
			t.Fatal(err)
		}
		mustExec(t, w, `CREATE INDEX mx ON TABLE m(regionId) AS 'org.apache.hadoop.hive.ql.index.AggregateIndexHandler'`)
		got := mustExec(t, w, sql)
		if !strings.HasPrefix(got.Stats.AccessPath, "aggindex-rewrite:") {
			t.Fatalf("%s: access path %q, want the rewrite", stored, got.Stats.AccessPath)
		}
		want, err := w.ExecContext(context.Background(), sql, ExecOptions{DisableIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		if renderExact(got.Rows) != renderExact(want.Rows) || len(want.Rows) != 3 {
			t.Errorf("%s: rewrite answers\n%sa full scan\n%s", stored, renderExact(got.Rows), renderExact(want.Rows))
		}
	}
}

// TestJoinKeysMatchAsText pins today's join-key rule: the broadcast side is
// keyed by its cells' text and probed with the scanned cells' text, so keys of
// different kinds match when they print alike. A bigint 5 matches the double
// 5.0 and the string '5', and not '05', '5.0', ' 5' or '+5'; a double that is
// not a whole number matches no bigint. Either side may be the bigint, and an
// aggregate over the join pairs as a projection does, in both formats.
func TestJoinKeysMatchAsText(t *testing.T) {
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		w := testWarehouse(1 << 12)
		mustExec(t, w, `CREATE TABLE l (k bigint, v bigint) STORED AS `+stored)
		mustExec(t, w, `CREATE TABLE rd (k double, tag string) STORED AS `+stored)
		mustExec(t, w, `CREATE TABLE rs (k string, tag string) STORED AS `+stored)
		for table, rows := range map[string][]storage.Row{
			"l": {{storage.Int64(5), storage.Int64(1)}, {storage.Int64(7), storage.Int64(2)}, {storage.Int64(50), storage.Int64(3)}, {storage.Int64(-5), storage.Int64(4)}},
			"rd": {{storage.Float64(5.0), storage.Str("d5.0")}, {storage.Float64(5.5), storage.Str("d5.5")}, {storage.Float64(50), storage.Str("d50")},
				{storage.Float64(7.000000000000001), storage.Str("d7+")}, {storage.Float64(-5), storage.Str("d-5")}},
			"rs": {{storage.Str("5"), storage.Str("s5")}, {storage.Str("05"), storage.Str("s05")}, {storage.Str("5.0"), storage.Str("s5.0")}, {storage.Str(" 5"), storage.Str("s 5")},
				{storage.Str("+5"), storage.Str("s+5")}, {storage.Str("7"), storage.Str("s7")}, {storage.Str("-5"), storage.Str("s-5")}},
		} {
			if err := w.LoadRowsByName(table, rows); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct{ sql, want string }{
			{`SELECT t1.k, t2.tag FROM l t1 JOIN rd t2 ON t1.k=t2.k`, "5 d5.0;50 d50;-5 d-5"},
			{`SELECT t1.k, t2.tag FROM l t1 JOIN rs t2 ON t1.k=t2.k`, "5 s5;7 s7;-5 s-5"},
			{`SELECT t1.tag, t2.v FROM rd t1 JOIN l t2 ON t1.k=t2.k`, "d5.0 1;d50 3;d-5 4"},
			{`SELECT t1.tag, t2.v FROM rs t1 JOIN l t2 ON t1.k=t2.k`, "s5 1;s7 2;s-5 4"},
			{`SELECT t2.tag, count(*), sum(t1.v) FROM l t1 JOIN rs t2 ON t1.k=t2.k GROUP BY t2.tag`, "s-5 1 4;s5 1 1;s7 1 2"},
			{`SELECT count(*), sum(t1.v) FROM l t1 JOIN rd t2 ON t1.k=t2.k`, "3 8"},
		} {
			var got []string
			for _, row := range mustExec(t, w, c.sql).Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.String()
				}
				got = append(got, strings.Join(cells, " "))
			}
			if strings.Join(got, ";") != c.want {
				t.Errorf("%s: %q joins %q, want %q", stored, c.sql, strings.Join(got, ";"), c.want)
			}
		}
	}
}
