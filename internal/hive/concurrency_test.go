package hive

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// TestConcurrentSelectsDuringLoads hammers one shared Warehouse with
// parallel COUNT(*) queries while a loader appends batches. Loads are
// serialized as writers, so every query must observe a row count that is
// exactly a batch boundary — any other value is a torn read. Half the
// readers go through ExecContext and half through SelectCursor; both plan
// under the lock and run their job after releasing it.
func TestConcurrentSelectsDuringLoads(t *testing.T) {
	w := testWarehouse(1 << 20)
	mustExec(t, w, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)

	const batch = 40
	const batches = 5
	initial := meterRows(batch, 4, 1)
	if err := w.LoadRowsByName("meterdata", initial); err != nil {
		t.Fatal(err)
	}

	valid := map[int64]bool{}
	for k := 0; k <= batches; k++ {
		valid[int64((k+1)*batch)] = true
	}

	const sql = `SELECT count(*) FROM meterdata`
	stmt := mustParseSelect(t, sql)
	count := func(ctx context.Context, cursor bool) (int64, error) {
		if !cursor {
			res, err := w.ExecContext(ctx, sql, ExecOptions{})
			if err != nil {
				return 0, err
			}
			return int64(res.Rows[0][0].AsFloat()), nil
		}
		cur, err := w.SelectCursor(ctx, stmt, ExecOptions{})
		if err != nil {
			return 0, err
		}
		defer cur.Close()
		if !cur.Next() {
			return 0, fmt.Errorf("cursor delivered no row: %v", cur.Err())
		}
		return int64(cur.Row()[0].AsFloat()), cur.Err()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(cursor bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := count(context.Background(), cursor)
				if err != nil {
					errs <- err
					return
				}
				if !valid[n] {
					errs <- fmt.Errorf("torn read (cursor %v): count %d is not a batch boundary", cursor, n)
					return
				}
			}
		}(g%2 == 1)
	}

	for k := 1; k <= batches; k++ {
		rows := meterRows(batch, 4, 1)
		for i := range rows {
			rows[i][0] = storage.Int64(int64(k*batch + i + 1))
		}
		if err := w.LoadRowsByName("meterdata", rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	res := mustExec(t, w, sql)
	if got := int64(res.Rows[0][0].AsFloat()); got != int64((batches+1)*batch) {
		t.Fatalf("final count = %d, want %d", got, (batches+1)*batch)
	}
}

// prepareSelect plans and binds stmt as runSelect does, for tests that act
// between binding and running.
func prepareSelect(w *Warehouse, stmt *SelectStmt, opts ExecOptions) (*selectPlan, error) {
	p, err := w.planSelect(stmt, opts)
	if err != nil {
		return nil, err
	}
	return p, w.bindSelect(context.Background(), p)
}

// TestPreparedSelectReadsOnlyPlannedFiles: a SELECT plans under the read
// lock and runs its job after releasing it. A file a load creates in that
// window must not be read — dfs shows a file from Create on, so it may hold
// half a line. The scan's file list is fixed when the plan is made.
func TestPreparedSelectReadsOnlyPlannedFiles(t *testing.T) {
	w := testWarehouse(1 << 20)
	rows := setupMeterTable(t, w, 20, 2, 2)
	stmt := mustParseSelect(t, `SELECT count(*) FROM meterdata`)

	p, err := prepareSelect(w, stmt, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	tbl, err := w.Table("meterdata")
	if err != nil {
		t.Fatal(err)
	}
	line := storage.AppendTextRow(nil, rows[0])
	late := append(append([]byte{}, line...), line[:len(line)/2]...)
	if err := w.FS.WriteFile(tbl.Dir+"/part-99999", late); err != nil {
		t.Fatal(err)
	}

	pr, err := w.runPreparedSelect(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(pr.Finalize(0).Rows[0][0].AsFloat()); got != int64(len(rows)) {
		t.Fatalf("count = %d, want the %d rows planned against: the late file was read", got, len(rows))
	}
}

// TestPreparedSelectReadsOnlyPlannedIndexFiles: a Compact or Aggregate index
// scan reads the index table files its plan listed. An index file that
// appears after planning is not read by that plan, while a statement planned
// after it does read it, so the file would have moved the answer.
func TestPreparedSelectReadsOnlyPlannedIndexFiles(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 20, 3, 2)
	mustExec(t, w, `CREATE INDEX agg_region ON TABLE meterdata(regionId) AS 'aggregate'`)
	mustExec(t, w, `CREATE TABLE compacted (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	if err := w.LoadRowsByName("compacted", meterRows(20, 3, 2)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE INDEX ci ON TABLE compacted(userId) AS 'compact'`)
	for _, c := range []struct{ table, index, sql, path string }{
		{"meterdata", "agg_region", `SELECT regionId, count(*) FROM meterdata WHERE regionId>=2 GROUP BY regionId`, "aggindex-rewrite:agg_region"},
		{"compacted", "ci", `SELECT count(*) FROM compacted WHERE userId>=3 AND userId<=8`, "index:ci"},
	} {
		stmt := mustParseSelect(t, c.sql)
		before := mustExec(t, w, c.sql)
		if before.Stats.AccessPath != c.path {
			t.Fatalf("%s: access path %q, want %q", c.sql, before.Stats.AccessPath, c.path)
		}
		p, err := w.planSelect(stmt, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}

		// A second copy of the index table: every entry twice.
		tbl, err := w.Table(c.table)
		if err != nil {
			t.Fatal(err)
		}
		files, err := tbl.HiveIndexes[c.index].Files(w.FS)
		if err != nil || len(files) == 0 {
			t.Fatalf("index %s has files %v: %v", c.index, files, err)
		}
		for i, f := range files {
			data, err := w.FS.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.FS.WriteFile(fmt.Sprintf("%s/late-%05d", tbl.HiveIndexes[c.index].IndexDir, i), data); err != nil {
				t.Fatal(err)
			}
		}

		if err := w.bindSelect(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		pr, err := w.runPreparedSelect(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		// What the index scan decides: the answer, the records it hands over
		// and the simulated cost of scanning the index table.
		seen := func(res *Result) string {
			return fmt.Sprintf("rows %s rec=%d idx=%v", renderExact(res.Rows), res.Stats.RecordsRead, res.Stats.IndexSimSec)
		}
		planned, after := seen(pr.Finalize(0)), seen(mustExec(t, w, c.sql))
		if planned != seen(before) {
			t.Errorf("%s: planned before the late index files, saw %s; before them the statement saw %s", c.sql, planned, seen(before))
		}
		if after == seen(before) {
			t.Errorf("%s: a statement planned after the late index files did not read them: %s", c.sql, after)
		}
	}
}

// TestConcurrentDDLAndQueries interleaves CREATE/DROP of scratch tables with
// queries over a stable table; the catalog map itself is under contention.
func TestConcurrentDDLAndQueries(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 30, 3, 2)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("scratch_%d_%d", g, i)
				for _, sql := range []string{
					fmt.Sprintf("CREATE TABLE %s (a bigint, b double)", name),
					`SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 5`,
					"DROP TABLE " + name,
				} {
					if _, err := w.ExecContext(context.Background(), sql, ExecOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	res := mustExec(t, w, `SHOW TABLES`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "meterdata" {
		t.Fatalf("leftover tables: %v", res.Rows)
	}
}

// TestTableVersions checks the mutation counters the result cache keys on.
func TestTableVersions(t *testing.T) {
	w := testWarehouse(1 << 20)
	version := func() uint64 { return w.TableVersions("meterdata")["meterdata"] }
	if v := version(); v != 0 {
		t.Fatalf("version before create = %d, want 0", v)
	}
	setupMeterTable(t, w, 10, 2, 1)
	v1 := version()
	if v1 == 0 {
		t.Fatal("version after create+load still 0")
	}
	if err := w.LoadRowsByName("meterdata", meterRows(5, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if v2 := version(); v2 != v1+1 {
		t.Fatalf("version after load = %d, want %d", v2, v1+1)
	}
	// Drop must not reset the counter: a recreated table continues it.
	mustExec(t, w, `DROP TABLE meterdata`)
	v3 := version()
	mustExec(t, w, `CREATE TABLE meterdata (userId bigint, x double)`)
	if v4 := version(); v4 <= v3 {
		t.Fatalf("version after recreate = %d, want > %d", v4, v3)
	}
	vs := w.TableVersions("MeterData", "nosuch")
	if vs["meterdata"] == 0 || vs["nosuch"] != 0 {
		t.Fatalf("TableVersions snapshot wrong: %v", vs)
	}
}

// normalize is ParseNormal's normal form, or its error.
func normalize(sql string) (string, error) {
	_, norm, err := ParseNormal(sql)
	return norm, err
}

func TestNormalize(t *testing.T) {
	a, err := normalize("select  Sum(powerConsumed)\nFROM MeterData -- comment\nwhere USERID >= 3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize("SELECT sum(powerconsumed) FROM meterdata WHERE userid>=3")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("normal forms differ:\n%q\n%q", a, b)
	}
	// String literal case is semantic and must survive normalization.
	c, _ := normalize("SELECT * FROM t WHERE city = 'Beijing'")
	d, _ := normalize("SELECT * FROM t WHERE city = 'beijing'")
	if c == d {
		t.Fatal("string literal case was folded")
	}
	if _, err := normalize("SELECT \x00"); err == nil {
		t.Fatal("want lex error")
	}
}

// renderTokens is the normal form as a separate pass over its own lex
// rendered it before ParseNormal took the parse's token stream: the
// reference TestParseNormalKeysUnchanged holds the cache keys to.
func renderTokens(sql string) (string, error) {
	toks, err := lex(sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokIdent:
			b.WriteString(strings.ToLower(t.text))
		case tokString:
			b.WriteString("'" + strings.ReplaceAll(t.text, "'", "''") + "'")
		default:
			b.WriteString(t.text)
		}
	}
	return b.String(), nil
}

// TestParseNormalKeysUnchanged: over the parser's test statements, ParseNormal
// returns Parse's statement and a normal form byte-identical to the
// separately lexed rendering, so no result-cache key moved when the two
// passes became one; a statement Parse refuses gets no key.
func TestParseNormalKeysUnchanged(t *testing.T) {
	var sqls []string
	sqls = append(sqls, parserListings...)
	sqls = append(sqls, parserSeeds...)
	sqls = append(sqls, parserErrors...)
	for _, sql := range sqls {
		stmt, norm, err := ParseNormal(sql)
		want, perr := Parse(sql)
		if (err == nil) != (perr == nil) {
			t.Fatalf("%q: ParseNormal err %v, Parse err %v", sql, err, perr)
		}
		if err != nil {
			if norm != "" || stmt != nil {
				t.Errorf("%q: refused with %v, yet keyed %q", sql, err, norm)
			}
			continue
		}
		if !reflect.DeepEqual(stmt, want) {
			t.Errorf("%q: ParseNormal's statement differs from Parse's", sql)
		}
		if ref, _ := renderTokens(sql); norm != ref {
			t.Errorf("%q: key %q, want %q", sql, norm, ref)
		}
	}
}

func TestStatementHelpers(t *testing.T) {
	stmt, err := Parse(`SELECT m.userId FROM meterdata m JOIN UserInfo u ON m.userId = u.userId WHERE m.userId >= 2`)
	if err != nil {
		t.Fatal(err)
	}
	tables := StatementTables(stmt)
	if len(tables) != 2 || tables[0] != "meterdata" || tables[1] != "userinfo" {
		t.Fatalf("tables = %v", tables)
	}
	if !IsReadOnly(stmt) {
		t.Fatal("plain SELECT should be read-only")
	}
	ins, err := Parse(`INSERT OVERWRITE DIRECTORY '/out' SELECT userId FROM meterdata`)
	if err != nil {
		t.Fatal(err)
	}
	if IsReadOnly(ins) {
		t.Fatal("INSERT OVERWRITE DIRECTORY is a write")
	}
	ddl, _ := Parse(`CREATE TABLE x (a bigint)`)
	if IsReadOnly(ddl) || len(StatementTables(ddl)) != 1 {
		t.Fatal("CREATE TABLE classification wrong")
	}
}
