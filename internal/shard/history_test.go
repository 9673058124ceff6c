package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// historySeeds are the seeds TestFleetHistories replays on every fleet
// shape. CI runs the whole list under -race (ci.yml, Stress (race)).
var historySeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// historyOps is the length of one generated history.
const historyOps = 80

// TestFleetHistories checks generated histories of DDL, loads, kills and
// queries against a 1x1 warehouse without a log, fed the same statements in
// ack order. On 2x2 and 4x2 fleets, with and without a log directory, each
// seed generates CREATE and DROP TABLE (TEXTFILE or RCFILE, partitioned or
// not), CREATE INDEX … AS 'dgf', sync and async loads, drains, Kill and
// Revive of any replica, and queries through execution and the cursor; a
// logged fleet also restarts and crashes (a torn append left in one
// shard's log), rebooting from its logs alone.
// Every statement must succeed or fail as the oracle's does, a query may
// fail only when one of the fleet's shards has no live replica, and after
// every drain each answer must equal the oracle's. A failure names the seed
// and prints the history up to it.
func TestFleetHistories(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, logged := range []bool{false, true} {
			for _, seed := range historySeeds {
				t.Run(fmt.Sprintf("%dx2/wal=%t/seed=%d", shards, logged, seed), func(t *testing.T) {
					runHistory(t, seed, shards, logged)
				})
			}
		}
	}
}

// history is one generated run: the fleet under test, its oracle, and what
// the generator knows of both.
type history struct {
	t              *testing.T
	rng            *rand.Rand
	seed           uint64
	fleet, oracle  *Router
	tables         map[string]bool // the tables that exist
	killed         [][]bool
	pending        bool   // an async load was acked since the last drain
	dir            string // the fleet's log directory, if it has one
	log            []string
	shards, logged string
}

var historyTableNames = []string{"h0", "h1", "h2"}

func runHistory(t *testing.T, seed uint64, shards int, logged bool) {
	fleet, err := New(Config{Shards: shards, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.CloseWAL() })
	oracle, err := New(Config{Shards: 1, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.CloseWAL() })
	h := &history{
		t: t, rng: rand.New(rand.NewPCG(seed, seed)), seed: seed,
		fleet: fleet, oracle: oracle, tables: map[string]bool{},
		killed: make([][]bool, shards),
		shards: fmt.Sprintf("%dx2", shards), logged: fmt.Sprint(logged),
	}
	for i := range h.killed {
		h.killed[i] = make([]bool, 2)
	}
	if logged {
		h.dir = t.TempDir()
		enableTestWAL(t, fleet, h.dir)
	}
	for i := 0; i < historyOps; i++ {
		h.step()
	}
	h.drain()
}

// fail ends the run, naming the seed and printing the history so far.
func (h *history) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d (%s fleet, wal=%s) failed at op %d: %s\nhistory:\n  %s",
		h.seed, h.shards, h.logged, len(h.log), fmt.Sprintf(format, args...), strings.Join(h.log, "\n  "))
}

func (h *history) record(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

// pick returns a table name: an existing one when existing is true and one
// exists, else any name of the pool.
func (h *history) pick(existing bool) string {
	if existing {
		var names []string
		for _, n := range historyTableNames {
			if h.tables[n] {
				names = append(names, n)
			}
		}
		if len(names) > 0 {
			return names[h.rng.IntN(len(names))]
		}
	}
	return historyTableNames[h.rng.IntN(len(historyTableNames))]
}

func (h *history) step() {
	switch n := h.rng.IntN(100); {
	case n < 8:
		h.createTable()
	case n < 12:
		h.dropTable()
	case n < 18:
		h.createIndex()
	case n < 45:
		h.load(h.rng.IntN(2) == 0)
	case n < 52:
		h.drain()
	case n < 58:
		h.kill()
	case n < 64:
		h.revive()
	case n < 66 && h.dir != "":
		h.restart()
	case n < 68 && h.dir != "":
		h.crash()
	default:
		h.query(h.pick(h.rng.IntN(10) > 0))
	}
}

// ddl runs one statement on both fleets, which must agree on its outcome.
func (h *history) ddl(sql string) bool {
	h.t.Helper()
	h.record("%s", sql)
	_, want := exec(h.oracle, sql)
	_, got := exec(h.fleet, sql)
	if (want == nil) != (got == nil) {
		h.fail("%s: the oracle answers %v, the fleet %v", sql, want, got)
	}
	return got == nil
}

func (h *history) createTable() {
	name := h.pick(false)
	format := []string{"TEXTFILE", "RCFILE"}[h.rng.IntN(2)]
	part := ""
	if h.rng.IntN(4) == 0 {
		part = " PARTITIONED BY (regionId)"
	}
	sql := fmt.Sprintf("CREATE TABLE %s (userId bigint, regionId bigint, ts timestamp, powerConsumed double)%s STORED AS %s", name, part, format)
	if h.ddl(sql) {
		h.tables[name] = true
	}
}

func (h *history) dropTable() {
	name := h.pick(true)
	if h.ddl("DROP TABLE " + name) {
		delete(h.tables, name)
	}
}

func (h *history) createIndex() {
	name := h.pick(true)
	h.ddl(fmt.Sprintf(`CREATE INDEX %sx ON TABLE %s(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, name, name))
}

// load acks one batch on both fleets: the oracle applies it before the ack,
// the fleet when sync or when it has no log directory.
func (h *history) load(sync bool) {
	name := h.pick(h.rng.IntN(10) > 0)
	day, first, n := h.rng.IntN(6), 1+h.rng.IntN(60), 1+h.rng.IntN(40)
	ts := time.Date(2012, 12, 1+day, h.rng.IntN(24), 0, 0, 0, time.UTC)
	rows := make([]storage.Row, n)
	for i := range rows {
		u := int64(first + i)
		rows[i] = storage.Row{storage.Int64(u), storage.Int64(u % 7), storage.Time(ts), storage.Float64(float64(h.rng.IntN(100000)) / 100)}
	}
	h.record("load %d rows into %s (users %d-%d, day %d, sync=%t)", n, name, first, first+n-1, day, sync)
	_, want := h.oracle.LoadRowsDurable(context.Background(), name, rows, true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ack, got := h.fleet.LoadRowsDurable(ctx, name, rows, sync)
	if (want == nil) != (got == nil) {
		h.fail("load into %s: the oracle answers %v, the fleet %v", name, want, got)
	}
	if got == nil && !ack.Applied {
		h.pending = true
	}
}

// drain applies everything the fleet has logged, then compares every
// table's totals with the oracle's.
func (h *history) drain() {
	h.record("drain")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.fleet.DrainWAL(ctx); err != nil {
		h.fail("drain: %v (WAL %+v)", err, h.fleet.WALStats())
	}
	h.pending = false
	for _, name := range historyTableNames {
		if h.tables[name] {
			h.compare(fmt.Sprintf("SELECT count(*), sum(powerConsumed) FROM %s", name))
		}
	}
}

// restart closes the fleet's log and reboots it.
func (h *history) restart() {
	h.record("restart")
	if err := h.fleet.CloseWAL(); err != nil {
		h.fail("close the log: %v", err)
	}
	h.reboot()
}

// crash stops the fleet's log without its final flush, as a killed
// process would, and leaves a torn append in one shard's log: a strict
// prefix of the last frame it holds. The reboot must cut those bytes away
// (the log is back at its length before the tear) and lose no acked load.
func (h *history) crash() {
	s := h.rng.IntN(len(h.killed))
	h.fleet.AbortWAL()
	path := filepath.Join(h.dir, fmt.Sprintf("shard-%03d", s), "replica-0.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		h.t.Fatal(err)
	}
	at, n := lastFrame(data)
	if at < 0 {
		h.record("crash (shard %d's log holds no frame to tear)", s)
		h.reboot()
		return
	}
	cut := 1 + h.rng.IntN(n-1)
	h.record("crash, %d bytes of a %d-byte frame torn onto shard %d's log", cut, n, s)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := f.Write(data[at : at+cut]); err != nil {
		h.t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		h.t.Fatal(err)
	}
	h.reboot()
	if fi, err := os.Stat(path); err != nil {
		h.t.Fatal(err)
	} else if fi.Size() != int64(len(data)) {
		h.fail("shard %d's log is %d bytes after the reboot, want the %d before the tear", s, fi.Size(), len(data))
	}
}

// reboot boots a fresh router of the same shape over the fleet's log
// directory, issuing no DDL: after a drain, every table and row must be
// back, from the logs alone.
func (h *history) reboot() {
	fleet, err := New(Config{Shards: len(h.killed), Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { fleet.CloseWAL() })
	if err := fleet.EnableWAL(wal.Options{Dir: h.dir, Fsync: wal.PolicyOff}); err != nil {
		h.fail("reopen the log: %v", err)
	}
	h.fleet = fleet
	for _, reps := range h.killed {
		reps[0], reps[1] = false, false
	}
	h.drain()
}

func (h *history) kill() {
	s, j := h.rng.IntN(len(h.killed)), h.rng.IntN(2)
	h.record("kill shard %d replica %d", s, j)
	h.fleet.Kill(s, j)
	h.killed[s][j] = true
}

func (h *history) revive() {
	s, j := h.rng.IntN(len(h.killed)), h.rng.IntN(2)
	h.record("revive shard %d replica %d", s, j)
	h.fleet.Revive(s, j)
	h.killed[s][j] = false
}

// shardDown reports whether some shard of the fleet has no live replica.
func (h *history) shardDown() bool {
	for _, reps := range h.killed {
		if reps[0] && reps[1] {
			return true
		}
	}
	return false
}

func (h *history) query(name string) {
	a := 1 + h.rng.IntN(60)
	b := a + h.rng.IntN(30)
	d := 1 + h.rng.IntN(6)
	switch h.rng.IntN(5) {
	case 0:
		h.compare(fmt.Sprintf("SELECT count(*), sum(powerConsumed) FROM %s", name))
	case 1:
		h.compare(fmt.Sprintf("SELECT regionId, count(*), sum(powerConsumed), max(ts) FROM %s WHERE userId>=%d AND userId<=%d GROUP BY regionId", name, a, b))
	case 2:
		h.compare(fmt.Sprintf("SELECT sum(powerConsumed), count(*) FROM %s WHERE userId>=%d AND userId<=%d AND regionId>=1 AND regionId<=5 AND ts>='2012-12-%02d' AND ts<'2012-12-%02d'", name, a, b, d, d+2))
	case 3:
		h.compareRows(fmt.Sprintf("SELECT userId, ts, powerConsumed FROM %s WHERE userId=%d", name, a), false)
	default:
		h.compareRows(fmt.Sprintf("SELECT userId, regionId, powerConsumed FROM %s WHERE userId<=%d", name, b), true)
	}
}

// outcome checks a fleet answer's error against the oracle's and reports
// whether the answers are to be compared: both succeeded and no async load
// is still to be applied.
func (h *history) outcome(sql string, want, got error) bool {
	h.t.Helper()
	switch {
	case got != nil && errors.Is(got, ErrReplicaDown) && h.shardDown():
		return false
	case (want == nil) != (got == nil):
		h.fail("%s: the oracle answers %v, the fleet %v", sql, want, got)
	}
	return got == nil && !h.pending
}

// compare runs an aggregate on both and compares the rows.
func (h *history) compare(sql string) {
	h.t.Helper()
	h.record("%s", sql)
	want, werr := exec(h.oracle, sql)
	got, gerr := exec(h.fleet, sql)
	if !h.outcome(sql, werr, gerr) {
		return
	}
	if err := closeRows(want.Rows, got.Rows); err != nil {
		h.fail("%s: %v\noracle %v\nfleet  %v", sql, err, renderRows(want.Rows), renderRows(got.Rows))
	}
}

// compareRows runs a projection on both, through execution or the fleet's
// cursor, and compares the rows as multisets.
func (h *history) compareRows(sql string, cursor bool) {
	h.t.Helper()
	h.record("%s (cursor=%t)", sql, cursor)
	want, werr := exec(h.oracle, sql)
	var got []storage.Row
	var gerr error
	if cursor {
		got, gerr = cursorRows(h.fleet, sql)
	} else {
		var res *hive.Result
		if res, gerr = exec(h.fleet, sql); gerr == nil {
			got = res.Rows
		}
	}
	if !h.outcome(sql, werr, gerr) {
		return
	}
	w, g := renderRows(want.Rows), renderRows(got)
	slices.Sort(w)
	slices.Sort(g)
	if !slices.Equal(w, g) {
		h.fail("%s: the oracle returns %d rows, the fleet %d, or they differ", sql, len(w), len(g))
	}
}

// cursorRows reads every row of sql through r's streaming cursor.
func cursorRows(r *Router, sql string) ([]storage.Row, error) {
	stmt, err := hive.Parse(sql)
	if err != nil {
		return nil, err
	}
	cur, err := r.SelectCursor(context.Background(), stmt.(*hive.SelectStmt), hive.ExecOptions{})
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var rows []storage.Row
	for cur.Next() {
		rows = append(rows, cur.Row())
	}
	return rows, cur.Err()
}
