package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// rebootQueries is the query list a rebooted fleet must answer exactly as
// the fleet that wrote its logs did: a partitioned TEXTFILE table, an
// RCFILE table with a DGFIndex (full scans, group-bys, an indexed box, a
// projection) and a join with a replicated table.
var rebootQueries = []string{
	`SELECT count(*), sum(powerConsumed) FROM tp`,
	`SELECT userId, ts, powerConsumed FROM tp WHERE userId=22`,
	`SELECT regionId, count(*), sum(powerConsumed) FROM tp GROUP BY regionId`,
	`SELECT count(*), sum(powerConsumed) FROM rc`,
	`SELECT regionId, count(*), sum(powerConsumed) FROM rc WHERE userId>=3 AND userId<=25 GROUP BY regionId`,
	`SELECT sum(powerConsumed), count(*) FROM rc WHERE regionId>=1 AND regionId<=3 AND userId>=5 AND userId<=30 AND ts>='2012-12-02' AND ts<'2012-12-06'`,
	`SELECT userId, powerConsumed FROM rc WHERE userId<=4`,
	`SELECT t2.userName, sum(t1.powerConsumed) FROM rc t1 JOIN userinfo t2 ON t1.userId=t2.uid WHERE t1.userId>=3 AND t1.userId<=12 GROUP BY t2.userName`,
	`SELECT count(*) FROM userinfo`,
}

// fleetAnswers renders the reboot query list, SHOW TABLES and every shard's
// table names exactly.
func fleetAnswers(t *testing.T, r *Router) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, q := range append([]string{`SHOW TABLES`}, rebootQueries...) {
		res := mustExec(t, r, q)
		out[q] = strings.Join(res.Columns, ",") + "\n" + strings.Join(renderRows(res.Rows), "\n") + "\npath=" + res.Stats.AccessPath
	}
	for i := range r.NumShards() {
		var names []string
		for _, info := range r.Shard(i).TableInfos() {
			names = append(names, info.Name)
		}
		out[fmt.Sprintf("shard %d tables", i)] = strings.Join(names, ",")
	}
	return out
}

// TestFleetRebootsFromItsLog: a 4x2 fleet whose log is enabled before any
// DDL creates a TEXTFILE table partitioned by the key, an RCFILE table with
// a DGFIndex and a replicated userinfo, loads sync and async (before and
// after the index), drops a table and creates it again with new rows. A
// fresh router of the same shape that issues no DDL opens the same
// directory and, once drained, answers the query list exactly as the fleet
// that wrote it, lists the same tables on every shard, and routes a point
// query on the key to one shard.
func TestFleetRebootsFromItsLog(t *testing.T) {
	dir := t.TempDir()
	cfg := testMeterConfig()
	mk := func() *Router {
		r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.CloseWAL() })
		enableTestWAL(t, r, dir)
		return r
	}
	ctx := context.Background()
	load := func(r *Router, table string, rows []storage.Row, sync bool) {
		t.Helper()
		if _, err := r.LoadRowsDurable(ctx, table, rows, sync); err != nil {
			t.Fatalf("load into %s: %v", table, err)
		}
	}
	users := make([]storage.Row, cfg.Users)
	for i := range users {
		u := int64(i + 1)
		users[i] = storage.Row{storage.Int64(u), storage.Str(fmt.Sprintf("user%02d", u)), storage.Int64(1 + u%4)}
	}

	first := mk()
	mustExec(t, first, `CREATE TABLE tp (userId bigint, regionId bigint, ts timestamp, powerConsumed double) PARTITIONED BY (userId)`)
	mustExec(t, first, `CREATE TABLE rc (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`)
	mustExec(t, first, `CREATE TABLE userinfo (uid bigint, userName string, regionId bigint)`)
	load(first, "tp", cfg.AllRows(), true)
	load(first, "rc", cfg.AllRows(), false)
	load(first, "userinfo", users, true)
	mustExec(t, first, `CREATE INDEX rcx ON TABLE rc(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`)
	load(first, "rc", extraMeterRows(1, 30), false)
	load(first, "tp", extraMeterRows(2, 20), true)
	mustExec(t, first, `DROP TABLE tp`)
	mustExec(t, first, `CREATE TABLE tp (userId bigint, regionId bigint, ts timestamp, powerConsumed double) PARTITIONED BY (userId)`)
	load(first, "tp", extraMeterRows(3, 25), false)
	load(first, "rc", extraMeterRows(4, 10), false)
	drainFleet(t, first)
	want := fleetAnswers(t, first)
	if err := first.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	again := mk()
	drainFleet(t, again)
	got := fleetAnswers(t, again)
	for q, w := range want {
		if got[q] != w {
			t.Errorf("%s\nrebooted: %s\nwant:     %s", q, got[q], w)
		}
	}
	for _, table := range []string{"tp", "rc"} {
		stmt, err := hive.Parse(`SELECT sum(powerConsumed) FROM ` + table + ` WHERE userId=7`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := again.ExplainContext(ctx, stmt.(*hive.SelectStmt), hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.ShardsTargeted != 1 {
			t.Errorf("point query on %s's key targets %d of %d shards after the reboot, want 1", table, plan.ShardsTargeted, plan.ShardsTotal)
		}
	}
	// The rebooted fleet keeps logging where the old one stopped.
	load(again, "tp", extraMeterRows(5, 4), true)
	if n := mustExec(t, again, `SELECT count(*) FROM tp`).Rows[0][0].AsFloat(); n != 29 {
		t.Fatalf("tp holds %v rows after a load on the rebooted fleet, want 29", n)
	}
}

// TestDDLRolledForwardOntoCutLog: a crash between a DDL statement's appends
// leaves it in some shards' logs only. One shard's log is cut back to just
// before a CREATE TABLE frame the other logs keep: opening the logs rolls
// the statement forward onto that shard, so every shard boots with the same
// catalog, the table takes loads and answers, and the rolled-forward record
// is in the cut log for the next boot.
func TestDDLRolledForwardOntoCutLog(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Router {
		r, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.CloseWAL() })
		enableTestWAL(t, r, dir)
		return r
	}
	first := mk()
	mustExec(t, first, `CREATE TABLE t (userId bigint, v double)`)
	rows := make([]storage.Row, 40)
	for i := range rows {
		rows[i] = storage.Row{storage.Int64(int64(i)), storage.Float64(float64(i))}
	}
	if _, err := first.LoadRowsDurable(context.Background(), "t", rows, true); err != nil {
		t.Fatal(err)
	}
	mustExec(t, first, `CREATE TABLE u (userId bigint, v double)`)
	if err := first.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	const cut = 2
	logPath := filepath.Join(dir, fmt.Sprintf("shard-%03d", cut), "replica-0.wal")
	whole, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	tearLastRecord(t, dir, cut, -8) // the shard loses the whole CREATE TABLE u frame

	for boot := 0; boot < 2; boot++ {
		r := mk()
		drainFleet(t, r)
		for i := range r.NumShards() {
			if _, err := r.Shard(i).Table("u"); err != nil {
				t.Fatalf("boot %d: shard %d: %v", boot, i, err)
			}
		}
		if got := renderRows(mustExec(t, r, `SHOW TABLES`).Rows); !slices.Equal(got, []string{"t", "u"}) {
			t.Fatalf("boot %d: SHOW TABLES = %v", boot, got)
		}
		if n := mustExec(t, r, `SELECT count(*) FROM t`).Rows[0][0].AsFloat(); n != 40 {
			t.Fatalf("boot %d: t holds %v rows, want 40", boot, n)
		}
		if boot == 0 {
			if after, err := os.ReadFile(logPath); err != nil || len(after) != len(whole) {
				t.Fatalf("cut log holds %d bytes after the roll-forward (%v), want the %d it lost the frame from", len(after), err, len(whole))
			}
			if _, err := r.LoadRowsDurable(context.Background(), "u", rows, true); err != nil {
				t.Fatalf("load into the rolled-forward table: %v", err)
			}
		}
		if n := mustExec(t, r, `SELECT count(*) FROM u`).Rows[0][0].AsFloat(); n != 40 {
			t.Fatalf("boot %d: u holds %v rows, want 40", boot, n)
		}
		if err := r.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDDLLogsThatDisagreeFailTheOpen: shard logs whose DDL records differ
// other than at one log's tail cannot come from one fleet; opening them
// fails, naming the shard, and no router boots over them.
func TestDDLLogsThatDisagreeFailTheOpen(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		r, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		enableTestWAL(t, r, dir)
		mustExec(t, r, fmt.Sprintf(`CREATE TABLE t%d (userId bigint, v double)`, i))
		if err := r.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1 of the first directory gets the second directory's log.
	other, err := os.ReadFile(filepath.Join(dirs[1], "shard-001", "replica-0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirs[0], "shard-001", "replica-0.wal"), other, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	err = r.EnableWAL(wal.Options{Dir: dirs[0], Fsync: wal.PolicyOff})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("open over logs that disagree on DDL = %v, want an error naming shard 1", err)
	}
	if got := renderRows(mustExec(t, r, `SHOW TABLES`).Rows); len(got) != 0 {
		t.Fatalf("a refused open left tables %v", got)
	}
}

// TestRebootRefusesQueriesUntilReplayed: a rebooted router's catalog is
// whole before the shards have replayed their logs, so until they have, a
// SELECT on a logged table is refused rather than answered from the shards'
// partial tables.
func TestRebootRefusesQueriesUntilReplayed(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	enableTestWAL(t, first, dir)
	mustExec(t, first, `CREATE TABLE t (userId bigint, v double)`)
	rows := make([]storage.Row, 10)
	for i := range rows {
		rows[i] = storage.Row{storage.Int64(int64(i)), storage.Float64(float64(i))}
	}
	if _, err := first.LoadRowsDurable(context.Background(), "t", rows, true); err != nil {
		t.Fatal(err)
	}
	if err := first.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	r, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	gate := &applyGate{entered: make(chan struct{}, 16)}
	gate.park()
	t.Cleanup(func() {
		gate.release()
		r.CloseWAL()
	})
	if err := r.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff, OnApply: gate.hook}); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	if res, err := exec(r, `SELECT count(*) FROM t`); err == nil || !strings.Contains(err.Error(), "not queryable yet") {
		t.Fatalf("SELECT during the replay: res = %v, err = %v; want a refusal", res, err)
	}
	gate.release()
	drainFleet(t, r)
	if n := mustExec(t, r, `SELECT count(*) FROM t`).Rows[0][0].AsFloat(); n != 10 {
		t.Fatalf("t holds %v rows after the replay, want 10", n)
	}
}
