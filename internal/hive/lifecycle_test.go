package hive

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// TestJoinPartitionedSide: the broadcast side of a join is listed at plan
// time with every partition, so a join against a PARTITIONED BY table gives
// the answer, and charges the bytes, of the same rows unpartitioned.
func TestJoinPartitionedSide(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 20, 4, 3)
	var users []storage.Row
	for u := 1; u <= 20; u += 2 {
		users = append(users, storage.Row{storage.Int64(int64(u)), storage.Int64(int64(u % 3)), storage.Str(fmt.Sprintf("user-%d", u))})
	}
	mustExec(t, w, `CREATE TABLE flat (uid bigint, grp bigint, name string)`)
	mustExec(t, w, `CREATE TABLE parted (uid bigint, grp bigint, name string) PARTITIONED BY (grp)`)
	for _, tbl := range []string{"flat", "parted"} {
		if err := w.LoadRowsByName(tbl, users); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		`SELECT count(*) FROM meterdata t1 JOIN %s t2 ON t1.userId = t2.uid`,
		`SELECT t2.name, t1.powerConsumed FROM meterdata t1 JOIN %s t2 ON t1.userId = t2.uid WHERE t2.grp = 1`,
	} {
		want := mustExec(t, w, fmt.Sprintf(sql, "flat"))
		got := mustExec(t, w, fmt.Sprintf(sql, "parted"))
		if len(want.Rows) == 0 || fmt.Sprint(want.Rows[0]) == "[0]" {
			t.Fatalf("%s: the unpartitioned join answered %v; the test needs matches", sql, want.Rows)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: partitioned side answered %v, unpartitioned %v", sql, got.Rows, want.Rows)
		}
		if got.Stats.BytesRead != want.Stats.BytesRead {
			t.Errorf("%s: BytesRead %d against a partitioned side, %d unpartitioned", sql, got.Stats.BytesRead, want.Stats.BytesRead)
		}
	}
}

// lockProbe is a ctx that checks the catalog lock each time a SELECT asks
// it whether to go on: once the query is past planning (its warehouse span
// exists), every Err call must find w.mu free. The scheduler of every
// MapReduce job and the join-side read call Err at each split.
type lockProbe struct {
	context.Context
	w    *Warehouse
	root *trace.Span

	mu   sync.Mutex
	held int
	// free counts the checks that found the lock free by the job whose
	// mapreduce span was open ("" while none was: the join-side read).
	free map[string]int
}

func newLockProbe(w *Warehouse) (*lockProbe, context.Context) {
	p := &lockProbe{Context: context.Background(), w: w, root: trace.New("probe"), free: map[string]int{}}
	return p, trace.NewContext(p, p.root)
}

func (p *lockProbe) Err() error {
	snap := p.root.Snapshot()
	if snap.Find("warehouse") == nil {
		return nil
	}
	job := ""
	snap.Walk(func(sn *trace.SpanSnapshot) {
		// A mapreduce span sets its volumes when it finishes.
		if sn.Name == "mapreduce" && sn.Attr("records") == "" {
			job = sn.Attr("job")
		}
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.w.mu.TryLock() {
		p.held++
		return nil
	}
	p.w.mu.Unlock()
	p.free[job]++
	return nil
}

// TestSelectHoldsNoLockWhileJobsRun: the catalog lock covers planning only.
// While any job of a SELECT runs — the main scan, the broadcast join-side
// read, the hive-index scan — a writer can take w.mu.
func TestSelectHoldsNoLockWhileJobsRun(t *testing.T) {
	w := testWarehouse(1 << 12)
	setupMeterTable(t, w, 40, 4, 4)
	mustExec(t, w, `CREATE TABLE userInfo (userId bigint, userName string)`)
	var users []storage.Row
	for u := 1; u <= 40; u++ {
		users = append(users, storage.Row{storage.Int64(int64(u)), storage.Str(fmt.Sprintf("u%d", u))})
	}
	if err := w.LoadRowsByName("userInfo", users); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE TABLE indexed (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	if err := w.LoadRowsByName("indexed", meterRows(40, 4, 4)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE INDEX ci ON TABLE indexed(userId) AS 'compact'`)

	exec := func(ctx context.Context, sql string) error {
		_, err := w.ExecContext(ctx, sql, ExecOptions{})
		return err
	}
	partial := func(ctx context.Context, sql string) error {
		_, err := w.SelectPartialContext(ctx, mustParseSelect(t, sql), ExecOptions{})
		return err
	}
	for _, c := range []struct {
		name string
		run  func(context.Context, string) error
		sql  string
		jobs []string
	}{
		{"exec", exec, `SELECT count(*) FROM meterdata WHERE regionId >= 2`, []string{"query-meterdata"}},
		{"exec join", exec, `SELECT count(*) FROM meterdata t1 JOIN userInfo t2 ON t1.userId = t2.userId`, []string{"", "query-meterdata"}},
		{"partial", partial, `SELECT regionId, sum(powerConsumed) FROM meterdata GROUP BY regionId`, []string{"query-meterdata"}},
		{"hive index", exec, `SELECT count(*) FROM indexed WHERE userId >= 3 AND userId <= 9`, []string{"hiveindex-scan-ci", "query-indexed"}},
	} {
		probe, ctx := newLockProbe(w)
		if err := c.run(ctx, c.sql); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if probe.held > 0 {
			t.Errorf("%s: w.mu was held at %d of its checks after planning", c.name, probe.held)
		}
		for _, job := range c.jobs {
			if probe.free[job] == 0 {
				t.Errorf("%s: no check ran inside job %q (checks: %v)", c.name, job, probe.free)
			}
		}
	}
}

// TestSelectRacesWriters: loads, DROP TABLE and CREATE INDEX on the scanned
// table and on a partitioned join side run while Exec, partial, cursor and
// EXPLAIN read them. A SELECT plans against one catalog state and reads the
// files that state named, so each answer is the one some state the writer
// passed through gives; a query whose planned files a DROP or a DGF build
// removed fails with a read error wrapping dfs.ErrNotExist, and one planned
// while its table was dropped fails to plan.
func TestSelectRacesWriters(t *testing.T) {
	const (
		mRows = 24 // rows per load into m: uid 0..23, v = 1
		uRows = 12 // rows per load into u: uid 0..11, three partitions
		lo    = 3  // the range query's uid bounds, [lo, hi)
		hi    = 13
	)
	w := testWarehouse(1 << 10)
	type state struct{ m, u int } // loads in each table's current incarnation
	var (
		stMu   sync.Mutex
		states = []state{{}}
		cur    state
	)
	do := func(sql string) error {
		_, err := w.ExecContext(context.Background(), sql, ExecOptions{})
		return err
	}
	load := func(table string) error {
		n, rows := mRows, []storage.Row(nil)
		if table == "u" {
			n = uRows
		}
		for uid := 0; uid < n; uid++ {
			if table == "m" {
				rows = append(rows, storage.Row{storage.Int64(int64(uid)), storage.Int64(1)})
			} else {
				rows = append(rows, storage.Row{storage.Int64(int64(uid)), storage.Int64(int64(uid % 3)), storage.Str(fmt.Sprint("n", uid))})
			}
		}
		return w.LoadRowsByName(table, rows)
	}
	// record notes the state a writer step left, after the step: a query
	// planned in between sees a state that is still recorded.
	record := func(f func(*state)) {
		stMu.Lock()
		f(&cur)
		states = append(states, cur)
		stMu.Unlock()
	}
	steps := func(cycle int) []func() error {
		index := `CREATE INDEX ci ON TABLE m(uid) AS 'compact'`
		if cycle%2 == 1 {
			index = `CREATE INDEX di ON TABLE m(uid) AS 'dgf' IDXPROPERTIES ('uid'='0_8')`
		}
		loadM := func() error { err := load("m"); record(func(s *state) { s.m++ }); return err }
		loadU := func() error { err := load("u"); record(func(s *state) { s.u++ }); return err }
		return []func() error{
			func() error { err := do(`DROP TABLE m`); record(func(s *state) { s.m = 0 }); return err },
			func() error { err := do(`DROP TABLE u`); record(func(s *state) { s.u = 0 }); return err },
			func() error { return do(`CREATE TABLE m (uid bigint, v bigint) STORED AS RCFILE`) },
			func() error { return do(`CREATE TABLE u (uid bigint, grp bigint, name string) PARTITIONED BY (grp)`) },
			loadM, loadU, loadM,
			func() error { return do(index) },
			loadU, loadM, loadM,
		}
	}
	if err := do(`CREATE TABLE m (uid bigint, v bigint) STORED AS RCFILE`); err != nil {
		t.Fatal(err)
	}
	if err := do(`CREATE TABLE u (uid bigint, grp bigint, name string) PARTITIONED BY (grp)`); err != nil {
		t.Fatal(err)
	}

	type query struct {
		sql  string
		want func(state) int64
		// got reads the answer off the result rows.
		got func([]storage.Row) int64
	}
	countOf := func(rows []storage.Row) int64 { return int64(rows[0][0].AsFloat()) }
	queries := []query{
		{`SELECT count(*) FROM m`, func(s state) int64 { return int64(s.m * mRows) }, countOf},
		{fmt.Sprintf(`SELECT count(*) FROM m WHERE uid >= %d AND uid < %d`, lo, hi), func(s state) int64 { return int64(s.m * (hi - lo)) }, countOf},
		{`SELECT count(*) FROM m t1 JOIN u t2 ON t1.uid = t2.uid`, func(s state) int64 { return int64(s.m * s.u * uRows) }, countOf},
		{`SELECT uid FROM m WHERE uid = 7`, func(s state) int64 { return int64(s.m) }, func(rows []storage.Row) int64 {
			for _, r := range rows {
				if r[0].I != 7 {
					return -1
				}
			}
			return int64(len(rows))
		}},
	}
	stmts := make([]*SelectStmt, len(queries))
	for i, q := range queries {
		stmts[i] = mustParseSelect(t, q.sql)
	}
	type answer struct {
		q     int
		entry string
		got   int64
		err   error
		plan  *ExplainPlan
	}
	run := func(entry string, qi int) (int64, *ExplainPlan, error) {
		q, stmt, ctx := queries[qi], stmts[qi], context.Background()
		switch entry {
		case "exec":
			res, err := w.ExecParsedContext(ctx, stmt, ExecOptions{})
			if err != nil {
				return 0, nil, err
			}
			return q.got(res.Rows), nil, nil
		case "partial":
			pr, err := w.SelectPartialContext(ctx, stmt, ExecOptions{})
			if err != nil {
				return 0, nil, err
			}
			return q.got(pr.Finalize(0).Rows), nil, nil
		case "cursor":
			cur, err := w.SelectCursor(ctx, stmt, ExecOptions{})
			if err != nil {
				return 0, nil, err
			}
			var rows []storage.Row
			for cur.Next() {
				rows = append(rows, cur.Row())
			}
			cur.Close()
			if err := cur.Err(); err != nil {
				return 0, nil, err
			}
			return q.got(rows), nil, nil
		default:
			plan, err := w.Explain(stmt, ExecOptions{})
			return 0, plan, err
		}
	}

	const cycles = 12
	var wg sync.WaitGroup
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for c := 0; c < cycles; c++ {
			for _, step := range steps(c) {
				if err := step(); err != nil {
					writerErr <- err
					return
				}
			}
		}
	}()
	entries := []string{"exec", "partial", "cursor", "explain"}
	answers := make([][]answer, 3)
	for r := range answers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi, entry := i%len(queries), entries[(i/len(queries))%len(entries)]
				got, plan, err := run(entry, qi)
				answers[r] = append(answers[r], answer{q: qi, entry: entry, got: got, err: err, plan: plan})
			}
		}(r)
	}
	wg.Wait()
	close(writerErr)
	if err := <-writerErr; err != nil {
		t.Fatalf("writer: %v", err)
	}

	possible := make([]map[int64]bool, len(queries))
	for qi, q := range queries {
		possible[qi] = map[int64]bool{}
		for _, s := range states {
			possible[qi][q.want(s)] = true
		}
	}
	var answered, readErrs, planErrs int
	for _, as := range answers {
		for _, a := range as {
			sql := queries[a.q].sql
			switch {
			case errors.Is(a.err, dfs.ErrNotExist):
				readErrs++
			case a.err != nil:
				planErrs++
				missing := strings.Contains(a.err.Error(), `hive: table "m" does not exist`) ||
					strings.Contains(a.err.Error(), `hive: table "u" does not exist`)
				if !missing {
					t.Errorf("%s %q: error %v neither wraps dfs.ErrNotExist nor is a dropped table's", a.entry, sql, a.err)
				}
			case a.entry != "explain":
				answered++
				if !possible[a.q][a.got] {
					t.Errorf("%s %q answered %d, which no state the writer passed through gives", a.entry, sql, a.got)
				}
			case a.plan.AccessPath == "":
				t.Errorf("EXPLAIN %q rendered no access path", sql)
			}
		}
	}
	if answered == 0 {
		t.Fatalf("no query answered (%d read errors, %d plan errors)", readErrs, planErrs)
	}
	t.Logf("%d answers, %d read errors, %d plan errors, %d writer states", answered, readErrs, planErrs, len(states))
}

// TestPlannedSelectNeverReadsARecreatedTable: a SELECT planned against a
// table that is then dropped and re-created under the same name fails with
// a read error naming a planned file. It never reads the new table's files:
// a re-created table and its indexes get directories of their own.
func TestPlannedSelectNeverReadsARecreatedTable(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 20, 2, 2)
	mustExec(t, w, `CREATE TABLE indexed (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	if err := w.LoadRowsByName("indexed", meterRows(20, 2, 2)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE INDEX ci ON TABLE indexed(userId) AS 'compact'`)
	scan, err := prepareSelect(w, mustParseSelect(t, `SELECT count(*) FROM meterdata`), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := w.planSelect(mustParseSelect(t, `SELECT count(*) FROM indexed WHERE userId >= 3`), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if indexed.accessPath != "index:ci" {
		t.Fatalf("access path %q, want index:ci", indexed.accessPath)
	}

	mustExec(t, w, `DROP TABLE meterdata`)
	mustExec(t, w, `DROP TABLE indexed`)
	setupMeterTable(t, w, 5, 2, 2)
	mustExec(t, w, `CREATE TABLE indexed (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	if err := w.LoadRowsByName("indexed", meterRows(5, 2, 2)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE INDEX ci ON TABLE indexed(userId) AS 'compact'`)

	if pr, err := w.runPreparedSelect(context.Background(), scan, nil); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("scan planned before the drop: err = %v, want one wrapping dfs.ErrNotExist (answer %v)", err, pr.Finalize(0).Rows)
	}
	if err := w.bindSelect(context.Background(), indexed); !errors.Is(err, dfs.ErrNotExist) {
		t.Errorf("index scan planned before the drop: err = %v, want one wrapping dfs.ErrNotExist", err)
	}
}

// TestDropTableRemovesHiveIndexes: DROP TABLE takes its Hive indexes'
// directories with it, so the table can be re-created and indexed again
// under the same names, and the new index answers for the new rows.
func TestDropTableRemovesHiveIndexes(t *testing.T) {
	w := testWarehouse(1 << 16)
	const sql = `SELECT count(*), sum(powerConsumed) FROM meterdata WHERE userId >= 3 AND userId <= 9`
	for round, users := range []int{20, 12} {
		if round > 0 {
			mustExec(t, w, `DROP TABLE meterdata`)
		}
		setupMeterTable(t, w, users, 2, 3)
		mustExec(t, w, `CREATE INDEX ci ON TABLE meterdata(userId) AS 'compact'`)
		got := mustExec(t, w, sql)
		if got.Stats.AccessPath != "index:ci" {
			t.Fatalf("round %d: access path %q, want index:ci", round, got.Stats.AccessPath)
		}
		want, err := w.ExecContext(context.Background(), sql, ExecOptions{DisableIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("round %d: index answered %v, a scan %v", round, got.Rows, want.Rows)
		}
	}
	mustExec(t, w, `DROP TABLE meterdata`)
	entries, err := w.FS.List(w.Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name, "_idx_") {
			t.Errorf("%s survived the drop of its table", e.Path)
		}
	}
}

// TestLoadAfterIndexUsesNoStaleIndex: loads do not maintain Compact,
// Aggregate or Bitmap indexes, so after one the planner scans instead of
// answering from an index that does not cover the new file. Building a
// second index leaves the first fresh; EXPLAIN and the stats report the
// path taken.
func TestLoadAfterIndexUsesNoStaleIndex(t *testing.T) {
	w := testWarehouse(1 << 16)
	rows := setupMeterTable(t, w, 20, 4, 5)
	mustExec(t, w, `CREATE INDEX ci ON TABLE meterdata(userId) AS 'compact'`)
	mustExec(t, w, `CREATE INDEX ai ON TABLE meterdata(regionId) AS 'aggregate'`)
	const (
		count   = `SELECT count(*) FROM meterdata WHERE userId >= 1`
		grouped = `SELECT regionId, count(*) FROM meterdata WHERE regionId >= 1 GROUP BY regionId`
	)
	check := func(sql, wantPath string, wantRows int) {
		t.Helper()
		if p := explainOf(t, w, sql); p.AccessPath != wantPath {
			t.Errorf("EXPLAIN %q: access path %q, want %q", sql, p.AccessPath, wantPath)
		}
		res := mustExec(t, w, sql)
		if res.Stats.AccessPath != wantPath {
			t.Errorf("%q: access path %q, want %q", sql, res.Stats.AccessPath, wantPath)
		}
		ref, err := w.ExecContext(context.Background(), sql, ExecOptions{DisableIndexes: true})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Rows) != fmt.Sprint(ref.Rows) {
			t.Errorf("%q answered %v, a scan %v", sql, res.Rows, ref.Rows)
		}
		if sql == count && int(res.Rows[0][0].AsFloat()) != wantRows {
			t.Errorf("%q = %v, want %d", sql, res.Rows[0][0], wantRows)
		}
	}
	// Both indexes are fresh: building ai did not make ci stale.
	check(count, "index:ci", len(rows))
	check(grouped, "aggindex-rewrite:ai", len(rows))

	if err := w.LoadRowsByName("meterdata", rows); err != nil {
		t.Fatal(err)
	}
	check(count, "scan", 2*len(rows))
	check(grouped, "scan", 2*len(rows))
}
