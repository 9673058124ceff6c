package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// tearLastRecord truncates a shard's log keep bytes into its final record's
// payload — the torn frame a crash mid-append leaves behind.
func tearLastRecord(t *testing.T, dir string, shard, keep int) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("shard-%03d", shard), "replica-0.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := lastFrame(data)
	if last < 0 {
		t.Fatalf("no complete record in %s", path)
	}
	if err := os.Truncate(path, int64(last+8+keep)); err != nil {
		t.Fatal(err)
	}
}

// lastFrame returns the offset and length (header included) of the last
// whole frame of a shard log's bytes; at is -1 when it holds none.
func lastFrame(data []byte) (at, n int) {
	at = -1
	for off := 0; off+8 <= len(data); off += n {
		size := 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if off+size > len(data) {
			break
		}
		at, n = off, size
	}
	return at, n
}

// extraMeterRows builds a deterministic batch of meterdata rows beyond the
// workload generator's range, routed across every shard by userId.
func extraMeterRows(batch, n int) []storage.Row {
	rows := make([]storage.Row, 0, n)
	for i := 0; i < n; i++ {
		u := int64(1 + (batch*7+i*3)%40)
		rows = append(rows, storage.Row{
			storage.Int64(u),
			storage.Int64(1 + u%4),
			storage.TimeUnix(1354406400 + int64(batch)*3600 + int64(i)*60),
			storage.Float64(float64(batch) + float64(i)*0.25),
		})
	}
	return rows
}

// runSuiteWarehouse renders the meter query suite against one replica
// warehouse exactly — the per-replica half of the bit-identical checks.
func runSuiteWarehouse(t *testing.T, w *hive.Warehouse) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, q := range meterQuerySuite(testMeterConfig()) {
		res, err := w.ExecContext(context.Background(), q, hive.ExecOptions{})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		out[q] = strings.Join(res.Columns, ",") + "\n" + strings.Join(renderRows(res.Rows), "\n") +
			fmt.Sprintf("\nrecords=%d bytes=%d path=%s", res.Stats.RecordsRead, res.Stats.BytesRead, res.Stats.AccessPath)
	}
	return out
}

// waitFleetSettled drains the WAL so every logged record is applied.
func waitFleetSettled(t *testing.T, r *Router) {
	t.Helper()
	drainFleet(t, r)
}

func enableTestWAL(t *testing.T, r *Router, dir string) {
	t.Helper()
	if err := r.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff}); err != nil {
		t.Fatalf("enable wal: %v", err)
	}
}

// testWALOptions are the options of an engine over a fresh log directory
// (fsync off) when logged is set, and of one without a directory otherwise.
func testWALOptions(t *testing.T, logged bool) wal.Options {
	if !logged {
		return wal.Options{}
	}
	return wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}
}

// TestIngestChaosKillLoadReviveCatchUp is the acceptance chaos test: with
// Replicas:2 and the WAL on, kill a replica, keep loading (every load
// succeeds and applies to the shard's warehouse), revive it, and with its
// sibling killed the revived replica answers the full query suite as the
// fleet did before: no duplicated and no dropped rows.
func TestIngestChaosKillLoadReviveCatchUp(t *testing.T) {
	r := loggedRouter(t, 4, 2, true, wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff})
	t.Cleanup(func() { r.CloseWAL() })

	loaded := 0
	load := func(batch int) {
		t.Helper()
		rows := extraMeterRows(batch, 6)
		if err := loadRows(r, "meterdata", rows); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		loaded += len(rows)
	}

	load(0)
	r.Kill(1, 0)
	for b := 1; b <= 5; b++ {
		load(b) // loads must keep succeeding with a dead replica
	}
	// Reads fail over to the surviving replica meanwhile.
	if _, err := exec(r, `SELECT count(*) FROM meterdata`); err != nil {
		t.Fatalf("query during outage: %v", err)
	}

	r.Revive(1, 0)
	for b := 6; b <= 8; b++ {
		load(b)
	}
	waitFleetSettled(t, r)
	for _, sh := range r.Health() {
		if sh.Live != 2 {
			t.Fatalf("shard %d not fully live after revive: %+v", sh.Shard, sh)
		}
	}
	want := runSuite(t, r)

	// The revived replica answers shard 1 alone.
	r.Kill(1, 1)
	got := runSuite(t, r)
	for q, w := range want {
		if got[q] != w {
			t.Fatalf("the revived replica answers %q differently:\nfleet:   %s\nrevived: %s", q, w, got[q])
		}
	}
	// No dropped or duplicated rows fleet-wide.
	total := mustExec(t, r, `SELECT count(*) FROM meterdata`).Rows[0][0].AsFloat()
	base := float64(len(testMeterConfig().AllRows()))
	if total != base+float64(loaded) {
		t.Fatalf("count(*) = %v, want %v base + %d loaded", total, base, loaded)
	}
}

// TestIngestWALFailoverSuiteGreen re-runs the kill/revive failover shape
// with the WAL enabled: queries stay bit-identical with a replica down,
// and after revive the whole fleet matches the healthy suite.
func TestIngestWALFailoverSuiteGreen(t *testing.T) {
	r := loggedRouter(t, 4, 2, true, wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff})
	t.Cleanup(func() { r.CloseWAL() })
	healthy := runSuite(t, r)

	for si := 0; si < r.NumShards(); si++ {
		r.Kill(si, si%2)
	}
	degraded := runSuite(t, r)
	for q, want := range healthy {
		if got := degraded[q]; got != want {
			t.Fatalf("%q:\nhealthy : %s\ndegraded: %s", q, want, got)
		}
	}
	for si := 0; si < r.NumShards(); si++ {
		r.Revive(si, si%2)
	}
	waitFleetSettled(t, r)
	revived := runSuite(t, r)
	for q, want := range healthy {
		if got := revived[q]; got != want {
			t.Fatalf("after revive %q:\nhealthy: %s\nrevived: %s", q, want, got)
		}
	}
}

// TestIngestSyncAckVisibility: a sync load is queryable the moment the call
// returns; an async load is durable immediately and visible after drain.
func TestIngestSyncAckVisibility(t *testing.T) {
	r := loggedRouter(t, 2, 2, false, wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff})
	t.Cleanup(func() { r.CloseWAL() })
	before := mustExec(t, r, `SELECT count(*) FROM meterdata`).Rows[0][0].AsFloat()

	ack, err := r.LoadRowsDurable(context.Background(), "meterdata", extraMeterRows(0, 8), true)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Applied || ack.MaxLSN == 0 {
		t.Fatalf("sync ack: %+v", ack)
	}
	if got := mustExec(t, r, `SELECT count(*) FROM meterdata`).Rows[0][0].AsFloat(); got != before+8 {
		t.Fatalf("sync load not visible: %v, want %v", got, before+8)
	}

	ack, err = r.LoadRowsDurable(context.Background(), "meterdata", extraMeterRows(1, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied {
		t.Fatalf("async ack claims applied: %+v", ack)
	}
	waitFleetSettled(t, r)
	if got := mustExec(t, r, `SELECT count(*) FROM meterdata`).Rows[0][0].AsFloat(); got != before+12 {
		t.Fatalf("async load lost: %v, want %v", got, before+12)
	}
}

// TestIngestConcurrentLoadersWithKill hammers the WAL from concurrent
// loaders while a replica dies and revives mid-stream; afterwards the fleet
// holds every loaded row once.
func TestIngestConcurrentLoadersWithKill(t *testing.T) {
	r := loggedRouter(t, 2, 2, false, wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff})
	t.Cleanup(func() { r.CloseWAL() })
	const loaders, batches, rowsPer = 4, 10, 5
	var wg sync.WaitGroup
	errCh := make(chan error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := loadRows(r, "meterdata", extraMeterRows(l*100+b, rowsPer)); err != nil {
					errCh <- err
					return
				}
			}
		}(l)
	}
	time.Sleep(2 * time.Millisecond)
	r.Kill(0, 1)
	time.Sleep(5 * time.Millisecond)
	r.Revive(0, 1)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("loader failed: %v", err)
	}
	waitFleetSettled(t, r)

	base := float64(len(testMeterConfig().AllRows()))
	want := base + float64(loaders*batches*rowsPer)
	if got := mustExec(t, r, `SELECT count(*) FROM meterdata`).Rows[0][0].AsFloat(); got != want {
		t.Fatalf("count(*) = %v, want %v", got, want)
	}
}

// TestIngestCrashRecoveryBitIdentical is the crash test: load through the
// WAL, hard-stop the engine mid-apply, tear the tail of one shard's log
// inside the final record, then rebuild a fresh fleet over the same WAL
// dir. Replay must reconstruct state bit-identical to a fleet that loaded
// the durable batches synchronously — the torn record (never durable, so
// never acked as applied-and-synced) is dropped everywhere, not partially.
func TestIngestCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := testMeterConfig()

	mkFleet := func() *Router {
		r, err := New(Config{Shards: 4, Replicas: 2, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Fleet 1: WAL on (fsync always — every batch durable) before the base
	// data, load batches, crash without draining.
	r1 := mkFleet()
	if err := r1.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyAlways}); err != nil {
		t.Fatal(err)
	}
	setupMeter(t, r1, cfg, true)
	var durable [][]storage.Row
	for b := 0; b < 6; b++ {
		rows := extraMeterRows(b, 5)
		if err := loadRows(r1, "meterdata", rows); err != nil {
			t.Fatal(err)
		}
		durable = append(durable, rows)
	}
	// One more load whose record we tear below: a single row with a known
	// routing target.
	doomed := storage.Row{storage.Int64(9), storage.Int64(2), storage.TimeUnix(1354500000), storage.Float64(99.5)}
	if err := loadRows(r1, "meterdata", []storage.Row{doomed}); err != nil {
		t.Fatal(err)
	}
	m := r1.meta("meterdata")
	doomedShard := r1.route(doomed[m.keyIdx], m.schema.Col(m.keyIdx).Kind)
	r1.AbortWAL() // hard crash: appliers stop wherever they are

	// Tear the final record of the doomed shard's log at an arbitrary byte,
	// as a crash mid-append would.
	tearLastRecord(t, dir, doomedShard, 3)

	// Fleet 2: fresh (empty) warehouses over the same WAL dir — the replay
	// brings the DDL, the base data and the durable batches.
	r2 := mkFleet()
	t.Cleanup(func() { r2.CloseWAL() })
	if err := r2.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff}); err != nil {
		t.Fatal(err)
	}
	waitFleetSettled(t, r2)

	// Baseline: synchronous loads of exactly the durable batches.
	baseline := mkFleet()
	setupMeter(t, baseline, cfg, true)
	for _, rows := range durable {
		if err := loadRows(baseline, "meterdata", rows); err != nil {
			t.Fatal(err)
		}
	}

	want := runSuite(t, baseline)
	got := runSuite(t, r2)
	for q, w := range want {
		if got[q] != w {
			t.Fatalf("replayed fleet diverged on %q:\nbaseline: %s\nreplayed: %s", q, w, got[q])
		}
	}
	// Shard by shard too: each replayed warehouse answers as the baseline's.
	for si := 0; si < r2.NumShards(); si++ {
		a := runSuiteWarehouse(t, baseline.Shard(si))
		b := runSuiteWarehouse(t, r2.Shard(si))
		for q, w := range a {
			if b[q] != w {
				t.Fatalf("shard %d diverged from the baseline's after replay on %q:\nbaseline: %s\nreplayed: %s", si, q, w, b[q])
			}
		}
	}
}

// TestEachShardLoadErrorEnumeratesShards is the regression test for the
// load path's error accounting: a load that fails on one shard (its log
// refused the record) names that shard and enumerates the shards that
// applied, the way broadcast DDL does, with the root cause still reachable
// via errors.Is; a load that failed everywhere says no shard applied.
func TestEachShardLoadErrorEnumeratesShards(t *testing.T) {
	refused := fmt.Errorf("wal: shard 2: %w", wal.ErrLogRefused)
	err := fleetOutcome("load", []error{nil, nil, refused, nil})
	if err == nil {
		t.Fatal("a load one shard refused folded to success")
	}
	for _, want := range []string{"shard 2/4 failed", "shards 0,1,3 applied"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not contain %q", err, want)
		}
	}
	if !errors.Is(err, wal.ErrLogRefused) {
		t.Fatalf("root cause lost: %v", err)
	}
	err = fleetOutcome("load", []error{refused, refused, refused, refused})
	if err == nil || !strings.Contains(err.Error(), "no shard applied") {
		t.Fatalf("fully-failed load error = %v, want 'no shard applied'", err)
	}
	if err := fleetOutcome("load", []error{refused}); err != refused {
		t.Fatalf("a one-shard fleet's error = %v, want the shard's own", err)
	}
}

// TestIngestLoadAppliesWhenWholeShardDead: behind a log directory and
// without one, a load into a shard whose replicas are all down applies to
// the shard's warehouse, which outlives them, and a revived replica answers
// with its rows.
func TestIngestLoadAppliesWhenWholeShardDead(t *testing.T) {
	for _, logged := range []bool{false, true} {
		r := loggedRouter(t, 2, 2, false, testWALOptions(t, logged))
		t.Cleanup(func() { r.CloseWAL() })
		r.Kill(0, 0)
		r.Kill(0, 1)
		rows := extraMeterRows(0, 40)
		if _, err := r.LoadRowsDurable(context.Background(), "meterdata", rows, true); err != nil {
			t.Fatalf("wal=%t: load with shard 0 down: %v", logged, err)
		}
		r.Revive(0, 1)
		want := float64(testMeterConfig().Rows() + len(rows))
		if got := mustExec(t, r, `SELECT count(*) FROM meterdata`).Rows[0][0].AsFloat(); got != want {
			t.Fatalf("wal=%t: count(*) = %v, want %v", logged, got, want)
		}
	}
}

// TestIngestValidatesRowShapeBeforeLogging: a malformed row is rejected at
// the ack, not logged to stall the applier forever.
func TestIngestValidatesRowShapeBeforeLogging(t *testing.T) {
	r := loggedRouter(t, 2, 1, false, wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff})
	t.Cleanup(func() { r.CloseWAL() })
	before := r.WALStats()
	_, err := r.LoadRowsDurable(context.Background(), "meterdata",
		[]storage.Row{{storage.Int64(1)}}, false)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("short row accepted: %v", err)
	}
	if _, err := r.LoadRowsDurable(context.Background(), "nosuch", extraMeterRows(0, 1), false); err == nil {
		t.Fatal("load into unknown table accepted")
	}
	for i, ss := range r.WALStats() {
		if ss.NextLSN != before[i].NextLSN {
			t.Fatalf("invalid load consumed an LSN: %+v, before it %+v", ss, before[i])
		}
	}
}

// TestLoadRejectsCellsTextCannotCarry: a string cell holding a newline, or the
// field delimiter anywhere but the last column, would be written (and, with a
// WAL, logged) without complaint and then fail every read of its table. Both
// write paths refuse the load before anything is written or logged; a
// delimiter in the last column, which runs to the end of the line, loads and
// reads back.
func TestLoadRejectsCellsTextCannotCarry(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		for _, stored := range []string{"TEXTFILE", "RCFILE"} {
			r, err := New(Config{Shards: 2, Replicas: 2, Key: "id"}, newShardWarehouse)
			if err != nil {
				t.Fatal(err)
			}
			if withWAL {
				t.Cleanup(func() { r.CloseWAL() })
				if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, r, `CREATE TABLE u (id bigint, addr string, note string) STORED AS `+stored)
			ctx := context.Background()
			good := []storage.Row{
				{storage.Int64(1), storage.Str("12 Main St"), storage.Str("rear door, ring twice")},
				{storage.Int64(2), storage.Str("7 Elm Rd"), storage.Str("")},
			}
			if _, err := r.LoadRowsDurable(ctx, "u", good, true); err != nil {
				t.Fatalf("wal=%v %s: load with a delimiter in the last column: %v", withWAL, stored, err)
			}
			logged := fmt.Sprint(r.WALStats())
			for name, cell := range map[string]storage.Row{
				"delimiter": {storage.Int64(3), storage.Str("12 Main St, Springfield"), storage.Str("x")},
				"newline":   {storage.Int64(4), storage.Str("a"), storage.Str("two\nlines")},
			} {
				_, err := r.LoadRowsDurable(ctx, "u", []storage.Row{good[0], cell}, true)
				if err == nil || !strings.Contains(err.Error(), "row 1") {
					t.Errorf("wal=%v %s: %s load error = %v, want a rejection naming row 1", withWAL, stored, name, err)
				}
			}
			if now := fmt.Sprint(r.WALStats()); now != logged {
				t.Errorf("wal=%v %s: a rejected load reached the log:\nbefore %s\nafter  %s", withWAL, stored, logged, now)
			}
			got := renderRows(mustExec(t, r, `SELECT id, addr, note FROM u`).Rows)
			sort.Strings(got)
			if got := strings.Join(got, ";"); got != "1|12 Main St|rear door, ring twice;2|7 Elm Rd|" {
				t.Errorf("wal=%v %s: table reads back %q", withWAL, stored, got)
			}
		}
	}
}

// TestProjectDelimiterCellSharded: a last-column cell holding the field
// delimiter, projected ahead of another column, reads back through a 4-shard
// router's scatter-gather and its cursor on both storage formats. Shards used
// to print each projected row and parse it back, which split the cell and
// failed the query.
func TestProjectDelimiterCellSharded(t *testing.T) {
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		r, err := New(Config{Shards: 4, Key: "uid"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, r, `CREATE TABLE u (uid bigint, addr string) STORED AS `+stored)
		var rows []storage.Row
		var want []string
		// No \x01: the router's load refuses it (TestLoadRejectsGroupKeySeparator).
		for i, addr := range []string{"12 Main St, Springfield", "b|c,d,1", "", ",,", "x,y"} {
			rows = append(rows, storage.Row{storage.Int64(int64(i + 1)), storage.Str(addr)})
			want = append(want, fmt.Sprintf("%s|%d", addr, i+1))
		}
		if _, err := r.LoadRowsDurable(context.Background(), "u", rows, true); err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)
		const sql = `SELECT addr, uid FROM u`
		got := renderRows(mustExec(t, r, sql).Rows)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: scatter-gather %q, want %q", stored, got, want)
		}
		cur, err := r.SelectCursor(context.Background(), mustParseSelect(t, sql), hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for cur.Next() {
			got = append(got, renderRows([]storage.Row{cur.Row()})...)
		}
		if err := cur.Err(); err != nil {
			t.Errorf("%s: cursor: %v", stored, err)
		}
		cur.Close()
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: cursor %q, want %q", stored, got, want)
		}
	}
}

// applyGate is an OnApply hook that parks appliers: while held, every applier
// stops inside its next apply — the record has reached the warehouse, but
// the watermark has not moved, so no wait for it returns and the applier
// cannot take its next record — until released.
type applyGate struct {
	mu      sync.Mutex
	hold    chan struct{}
	entered chan struct{} // one token per applier that parked
}

func (g *applyGate) hook(string, int) {
	g.mu.Lock()
	hold := g.hold
	g.mu.Unlock()
	if hold != nil {
		g.entered <- struct{}{}
		<-hold
	}
}

func (g *applyGate) park() {
	g.mu.Lock()
	g.hold = make(chan struct{})
	g.mu.Unlock()
}

func (g *applyGate) release() {
	g.mu.Lock()
	if g.hold != nil {
		close(g.hold)
		g.hold = nil
	}
	g.mu.Unlock()
}

// TestLoadPathOutage: what a fleet without a log directory does around a
// dead replica, now that it runs the engine's commit → apply pipeline. A
// cancelled ctx releases a load from the apply wait and from backpressure
// (the old path took no ctx). A replica killed with records queued takes
// nothing with it: the shard's applier applies them, loads during the
// outage — even with every replica of the shard down — commit and apply,
// and a revived replica is live at once with every record applied exactly
// once. EnableWAL with a directory afterwards is refused, and the fleet goes
// on with its engine.
func TestLoadPathOutage(t *testing.T) {
	r, err := New(Config{Shards: 2, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	gate := &applyGate{entered: make(chan struct{}, 16)}
	t.Cleanup(func() {
		gate.release()
		r.CloseWAL()
	})
	if err := r.EnableWAL(wal.Options{MaxPendingRows: 8, OnApply: gate.hook}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `CREATE TABLE late (userId bigint, v double)`)
	ctx := context.Background()
	next := [2]int64{}
	rowsFor := func(shard, n int) []storage.Row { // n fresh rows that route to shard
		var out []storage.Row
		for len(out) < n {
			next[shard]++
			if u := next[shard]; r.route(storage.Int64(u), storage.KindInt64) == shard {
				out = append(out, storage.Row{storage.Int64(u), storage.Float64(float64(u))})
			}
		}
		return out
	}
	count := func(si int) float64 {
		t.Helper()
		res, err := r.Shard(si).ExecContext(ctx, `SELECT count(*) FROM late`, hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsFloat()
	}
	pendingRows := func(si int) int { return r.WALStats()[si].Replicas[0].PendingRows }
	short := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(ctx, 30*time.Millisecond)
	}

	// Park shard 0's applier in a first load, whose ack waits for it.
	gate.park()
	first := make(chan error, 1)
	go func() {
		ack, err := r.LoadRowsDurable(ctx, "late", rowsFor(0, 2), false)
		if err == nil && (!ack.Applied || ack.Durable) {
			err = fmt.Errorf("ack %+v, want applied, not durable", ack)
		}
		first <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for shard 0's applier to park")
	}

	// A load whose record sits behind the parked applier waits for it, and
	// a cancelled ctx lets it go. Its record stays queued.
	cctx, cancel := short()
	_, err = r.LoadRowsDurable(cctx, "late", rowsFor(0, 2), false)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("load blocked in the apply wait: err = %v, want the ctx deadline", err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := r.LoadRowsDurable(ctx, "late", rowsFor(0, 6), false)
		queued <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); pendingRows(0) < 8; {
		if time.Now().After(deadline) {
			t.Fatalf("second load never queued: %+v", r.WALStats()[0])
		}
		time.Sleep(time.Millisecond)
	}
	// Eight rows are queued: the next load waits for room, and a cancelled
	// ctx lets that go too, with nothing queued.
	lsn := r.WALStats()[0].NextLSN
	cctx, cancel = short()
	_, err = r.LoadRowsDurable(cctx, "late", rowsFor(0, 1), false)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "backpressure") {
		t.Fatalf("load blocked in backpressure: err = %v, want the ctx deadline from the backpressure wait", err)
	}
	if got := r.WALStats()[0].NextLSN; got != lsn {
		t.Fatalf("a load that gave up in backpressure consumed an LSN: next %d, was %d", got, lsn)
	}

	// Replica 1 dies with three records queued; the shard's applier
	// applies them.
	r.Kill(0, 1)
	gate.release()
	if err := <-first; err != nil {
		t.Fatalf("load without a directory: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("load queued before the kill: %v", err)
	}
	drainFleet(t, r)
	if n := count(0); n != 10 {
		t.Fatalf("after the kill shard 0 holds %v rows, want 10", n)
	}

	// During the outage loads commit and apply, one spanning both shards
	// too, and so does a load into the shard with every replica down.
	if _, err := r.LoadRowsDurable(ctx, "late", rowsFor(0, 3), false); err != nil {
		t.Fatalf("load during the outage: %v", err)
	}
	if _, err := r.LoadRowsDurable(ctx, "late", append(rowsFor(0, 1), rowsFor(1, 2)...), false); err != nil {
		t.Fatalf("load spanning the degraded shard: %v", err)
	}
	r.Kill(0, 0)
	if _, err := exec(r, `SELECT count(*) FROM late`); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("query over a shard with every replica down: err = %v, want ErrReplicaDown", err)
	}
	if _, err := r.LoadRowsDurable(ctx, "late", rowsFor(0, 1), false); err != nil {
		t.Fatalf("load into a shard with every replica down: %v", err)
	}
	if a, b := count(0), count(1); a != 15 || b != 2 {
		t.Fatalf("shards hold %v and %v rows, want 15 and 2", a, b)
	}

	// Revive: the replicas are live at once, with every record applied
	// exactly once.
	r.Revive(0, 0)
	r.Revive(0, 1)
	if h := r.Health()[0]; h.Live != 2 {
		t.Fatalf("revived replicas are not live: %+v", h)
	}
	if n := mustExec(t, r, `SELECT count(*) FROM late`).Rows[0][0].AsFloat(); n != 17 {
		t.Fatalf("count after the revive = %v, want 17", n)
	}

	// A directory given now is refused: the engine has committed. Loads go
	// on through it.
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("EnableWAL after commits = %v, want a refusal", err)
	}
	if ack, err := r.LoadRowsDurable(ctx, "late", rowsFor(1, 1), true); err != nil || ack.Durable || !ack.Applied {
		t.Fatalf("load after the refusal: ack %+v, err %v; want applied, not durable", ack, err)
	}
	if n := mustExec(t, r, `SELECT count(*) FROM late`).Rows[0][0].AsFloat(); n != 18 {
		t.Fatalf("count after the refusal = %v, want 18", n)
	}
}

// TestDropTableWaitsForLoadsLoadsKeepDeadlines: a DROP TABLE is logged in
// every shard's log behind the loads acked before it and returns once every
// shard has applied it; while it waits it blocks no load and no CREATE
// TABLE, and a load keeps its own deadline. A durable fleet's appliers are
// parked in a first load with a second queued behind it: the drop is logged
// (the catalog loses the table at once), a load into another table acks, a
// sync load with a 30ms deadline gives up with its ctx's error, a load into
// the dropped table is refused, and a CREATE TABLE is logged and takes
// loads while both statements wait. Released, each shard applies the loads,
// then the drop, then the create.
func TestDropTableWaitsForLoadsLoadsKeepDeadlines(t *testing.T) {
	r, err := New(Config{Shards: 2, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	gate := &applyGate{entered: make(chan struct{}, 16)}
	t.Cleanup(func() {
		gate.release()
		r.CloseWAL()
	})
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff, OnApply: gate.hook}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `CREATE TABLE a (userId bigint, v double)`)
	mustExec(t, r, `CREATE TABLE b (userId bigint, v double)`)
	ctx := context.Background()
	row := func(u int64) []storage.Row { return []storage.Row{{storage.Int64(u), storage.Float64(1)}} }
	gate.park()
	if _, err := r.LoadRowsDurable(ctx, "b", row(1), false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the applier to park")
	}
	// Logged to the same shard as the first row, so it queues behind the
	// parked applier.
	if _, err := r.LoadRowsDurable(ctx, "b", row(1), false); err != nil {
		t.Fatal(err)
	}

	statement := func(sql string) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := exec(r, sql)
			done <- err
		}()
		return done
	}
	logged := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s was never logged", what)
			}
		}
	}
	dropped := statement(`DROP TABLE b`)
	logged("DROP TABLE b", func() bool { _, err := r.TableSchema("b"); return err != nil })

	if _, err := r.LoadRowsDurable(ctx, "a", row(2), false); err != nil {
		t.Fatalf("load during a waiting DROP TABLE: %v", err)
	}
	lctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	start := time.Now()
	_, err = r.LoadRowsDurable(lctx, "a", row(3), true)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sync load during a waiting DROP TABLE: err = %v, want its ctx deadline", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("load with a 30ms deadline waited %v", waited)
	}
	if _, err := r.LoadRowsDurable(ctx, "b", row(4), false); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("load into a dropped table: err = %v, want a refusal", err)
	}
	created := statement(`CREATE TABLE c (userId bigint, v double)`)
	logged("CREATE TABLE c", func() bool { _, err := r.TableSchema("c"); return err == nil })
	if _, err := r.LoadRowsDurable(ctx, "c", row(5), false); err != nil {
		t.Fatalf("load into a table whose CREATE is waiting for its apply: %v", err)
	}
	select {
	case err := <-dropped:
		t.Fatalf("DROP TABLE returned (%v) before its shards applied it", err)
	case err := <-created:
		t.Fatalf("CREATE TABLE returned (%v) before its shards applied it", err)
	default:
	}

	gate.release()
	if err := <-dropped; err != nil {
		t.Fatalf("DROP TABLE: %v", err)
	}
	if err := <-created; err != nil {
		t.Fatalf("CREATE TABLE: %v", err)
	}
	drainFleet(t, r)
	for _, ss := range r.WALStats() {
		for _, rs := range ss.Replicas {
			if rs.Stalled != "" || rs.PendingRecords != 0 {
				t.Fatalf("shard %d applier after the drop: %+v", ss.Shard, rs)
			}
		}
	}
	if got := renderRows(mustExec(t, r, `SHOW TABLES`).Rows); !slices.Equal(got, []string{"a", "c"}) {
		t.Fatalf("SHOW TABLES = %v, want [a c]", got)
	}
	for table, want := range map[string]float64{"a": 2, "c": 1} {
		if n := mustExec(t, r, `SELECT count(*) FROM `+table).Rows[0][0].AsFloat(); n != want {
			t.Fatalf("%s holds %v rows, want %v", table, n, want)
		}
	}
}

// stalledLogs writes by hand the logs of a two-shard fleet whose appliers
// stall on replay: each shard's log holds a load of rows into "late", which
// no DDL record creates, then a CREATE TABLE of "other". It returns the rows.
func stalledLogs(t *testing.T, dir string) []storage.Row {
	t.Helper()
	rows := make([]storage.Row, 20)
	for i := range rows {
		rows[i] = storage.Row{storage.Int64(int64(i)), storage.Float64(float64(i))}
	}
	for si := 0; si < 2; si++ {
		l, _, err := wal.OpenLog(filepath.Join(dir, fmt.Sprintf("shard-%03d", si), "replica-0.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []wal.Record{
			{LSN: 1, Table: "late", Rows: rows},
			{LSN: 2, Table: "other", DDL: `CREATE TABLE other (userId bigint, v double)`},
		} {
			if err := l.Append(rec, wal.PolicyOff); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(wal.PolicyAlways); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// TestDropTableFailsFastOnStalledApplier: records replayed from a log that
// loads a table no DDL record creates stall their applier. A DDL statement
// then fails at once, naming the stalled shard and record, rather than
// queueing behind it: a DROP TABLE, and a CREATE TABLE of the missing table
// too. A restart cannot create the table ahead of the log to get past the
// stall: its EnableWAL is refused, since the engine opens only before the
// first commit.
func TestDropTableFailsFastOnStalledApplier(t *testing.T) {
	dir := t.TempDir()
	stalledLogs(t, dir)
	mk := func() *Router {
		t.Helper()
		r, err := New(Config{Shards: 2, Replicas: 2, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := mk()
	enableTestWAL(t, r, dir)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if stalled := slices.ContainsFunc(r.WALStats(), func(ss wal.ShardStats) bool { return ss.Replicas[0].Stalled != "" }); stalled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed records of a missing table never stalled: %+v", r.WALStats())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, sql := range []string{`DROP TABLE other`, `CREATE TABLE late (userId bigint, v double)`} {
		_, err := r.ExecContext(ctx, sql, hive.ExecOptions{})
		if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "stalled on lsn 1") {
			t.Fatalf("%s behind a stalled applier: err = %v, want a refusal naming the stalled record", sql, err)
		}
	}
	if _, err := r.TableSchema("other"); err != nil {
		t.Fatalf("a refused DROP TABLE removed the table: %v", err)
	}
	if _, err := r.TableSchema("late"); err == nil {
		t.Fatal("a refused CREATE TABLE added the table")
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	again := mk()
	t.Cleanup(func() { again.CloseWAL() })
	mustExec(t, again, `CREATE TABLE late (userId bigint, v double)`)
	if err := again.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff}); err == nil || !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "next lsn 2") {
		t.Fatalf("EnableWAL after a CREATE TABLE = %v, want a refusal naming shard 0 and its next lsn 2", err)
	}
	mustExec(t, again, `DROP TABLE late`)
}

// TestSelectRefusedUntilEveryShardAppliedDDL: the catalog changes when a
// DDL statement is logged, the shards' tables when their appliers reach it.
// In between, a SELECT on the table is refused rather than answered from
// shards whose catalogs differ: after a logged DROP TABLE it must not get
// shard 0's copy back as the whole answer, and after a re-CREATE of the name
// with the routing key it must not count the old replicated copies once per
// shard.
func TestSelectRefusedUntilEveryShardAppliedDDL(t *testing.T) {
	r, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	gate := &applyGate{entered: make(chan struct{}, 16)}
	t.Cleanup(func() {
		gate.release()
		r.CloseWAL()
	})
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff, OnApply: gate.hook}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `CREATE TABLE a (userId bigint, v double)`)
	mustExec(t, r, `CREATE TABLE x (regionId bigint, v double)`) // replicated: no userId
	ctx := context.Background()
	if _, err := r.LoadRowsDurable(ctx, "x", []storage.Row{
		{storage.Int64(1), storage.Float64(1)}, {storage.Int64(2), storage.Float64(2)}, {storage.Int64(3), storage.Float64(3)},
	}, true); err != nil {
		t.Fatal(err)
	}
	if n := mustExec(t, r, `SELECT count(*) FROM x`).Rows[0][0].AsFloat(); n != 3 {
		t.Fatalf("count before the DROP = %v, want 3", n)
	}
	gate.park()
	if _, err := r.LoadRowsDurable(ctx, "a", []storage.Row{{storage.Int64(1), storage.Float64(1)}}, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the applier to park")
	}
	statement := func(sql string, logged func() bool) chan error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := exec(r, sql)
			done <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); !logged(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s was never logged", sql)
			}
		}
		return done
	}
	refused := func(want string) {
		t.Helper()
		for _, sql := range []string{`SELECT count(*) FROM x`, `EXPLAIN SELECT count(*) FROM x`} {
			if res, err := exec(r, sql); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s before every shard applied the DDL: res = %v, err = %v; want an error containing %q", sql, res, err, want)
			}
		}
		if _, err := r.SelectCursor(ctx, mustParseSelect(t, `SELECT v FROM x`), hive.ExecOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("cursor before every shard applied the DDL: err = %v, want %q", err, want)
		}
	}

	dropped := statement(`DROP TABLE x`, func() bool { _, err := r.TableSchema("x"); return err != nil })
	refused(`table "x" does not exist`)
	created := statement(`CREATE TABLE x (userId bigint, v double)`, func() bool { _, err := r.TableSchema("x"); return err == nil })
	refused(`table "x" is not queryable yet`)
	if _, err := r.LoadRowsDurable(ctx, "x", []storage.Row{{storage.Int64(7), storage.Float64(7)}}, false); err != nil {
		t.Fatalf("load into the re-created table: %v", err)
	}

	gate.release()
	for _, done := range []chan error{dropped, created} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	drainFleet(t, r)
	if n := mustExec(t, r, `SELECT count(*) FROM x`).Rows[0][0].AsFloat(); n != 1 {
		t.Fatalf("count of the re-created table = %v, want 1", n)
	}
}

// TestDDLRefusedWhileLoadWaitsOnBackpressure: a load waiting for its
// shard's backpressure holds no lock a DDL statement needs. With every
// applier stalled past MaxPendingRows and one load parked in the wait, a
// DDL statement is still refused at once, naming the stall, and another
// load keeps its deadline.
func TestDDLRefusedWhileLoadWaitsOnBackpressure(t *testing.T) {
	dir := t.TempDir()
	rows := stalledLogs(t, dir)
	r, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	if err := r.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff, MaxPendingRows: 1}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		stalled := 0
		for _, ss := range r.WALStats() {
			if ss.Replicas[0].Stalled != "" {
				stalled++
			}
		}
		if stalled == r.NumShards() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed records of a missing table never stalled every shard: %+v", r.WALStats())
		}
	}
	parkedCtx, cancelParked := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := r.LoadRowsDurable(parkedCtx, "other", rows[:1], false)
		parked <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the backpressure wait

	ddl := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := r.ExecContext(ctx, `CREATE TABLE late (userId bigint, v double)`, hive.ExecOptions{})
		ddl <- err
	}()
	select {
	case err := <-ddl:
		if err == nil || !strings.Contains(err.Error(), "stalled on lsn 1") {
			t.Fatalf("DDL behind stalled appliers: err = %v, want a refusal naming the stalled record", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a DDL statement waited behind a load parked in backpressure")
	}
	lctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	loaded := make(chan error, 1)
	go func() {
		_, err := r.LoadRowsDurable(lctx, "other", rows[1:2], false)
		loaded <- err
	}()
	select {
	case err := <-loaded:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("load into a stalled shard: err = %v, want its ctx deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a load with a 30ms deadline did not return")
	}
	cancelParked()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked load: err = %v, want its cancellation", err)
	}
}
