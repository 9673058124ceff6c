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
	off, last := 0, -1
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > len(data) {
			break
		}
		last = off
		off += 8 + n
	}
	if last < 0 {
		t.Fatalf("no complete record in %s", path)
	}
	if err := os.Truncate(path, int64(last+8+keep)); err != nil {
		t.Fatal(err)
	}
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

// waitFleetSettled polls until no replica is catching up, then drains the
// WAL so every logged record is applied.
func waitFleetSettled(t *testing.T, r *Router) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		catching := 0
		for _, sh := range r.Health() {
			catching += sh.CatchingUp
		}
		if catching == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("catch-up never completed: %+v", r.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.DrainWAL(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// enableTestWAL turns on the WAL with single-record apply batches so the
// applier's file layout matches a synchronous load's exactly — the
// bit-identical comparisons include scan stats, which see part files.
func enableTestWAL(t *testing.T, r *Router, dir string) {
	t.Helper()
	if err := r.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff, MaxBatchRows: 1}); err != nil {
		t.Fatalf("enable wal: %v", err)
	}
}

// TestIngestChaosKillLoadReviveCatchUp is the acceptance chaos test: with
// Replicas:2 and the WAL on, kill a replica, keep loading (every load
// succeeds — hinted handoff), revive it, and after catch-up both replicas
// of every shard answer the full query suite bit-identically: no
// duplicated and no dropped rows.
func TestIngestChaosKillLoadReviveCatchUp(t *testing.T) {
	r := replicatedRouter(t, 4, 2, true)
	t.Cleanup(func() { r.CloseWAL() })
	enableTestWAL(t, r, t.TempDir())

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
	// The dead replica is owed records in the hint queue.
	hinted := int64(0)
	for _, ss := range r.WALStats() {
		for _, rs := range ss.Replicas {
			hinted += rs.HintedRecords
		}
	}
	if hinted == 0 {
		t.Fatal("no hinted records while a replica was dead")
	}

	r.Revive(1, 0)
	for b := 6; b <= 8; b++ {
		load(b) // loads during catch-up commit to the revived log too
	}
	waitFleetSettled(t, r)

	for _, sh := range r.Health() {
		if sh.Live != 2 {
			t.Fatalf("shard %d not fully live after catch-up: %+v", sh.Shard, sh)
		}
	}
	for si := 0; si < r.NumShards(); si++ {
		want := runSuiteWarehouse(t, r.Replica(si, 0))
		got := runSuiteWarehouse(t, r.Replica(si, 1))
		for q, w := range want {
			if got[q] != w {
				t.Fatalf("shard %d replicas diverged on %q:\nreplica 0: %s\nreplica 1: %s", si, q, w, got[q])
			}
		}
	}
	// No dropped or duplicated rows fleet-wide.
	total := mustExec(t, r, `SELECT count(*) FROM meterdata`).Rows[0][0].AsFloat()
	base := float64(len(testMeterConfig().AllRows()))
	if total != base+float64(loaded) {
		t.Fatalf("count(*) = %v, want %v base + %d loaded", total, base, loaded)
	}
	st := r.WALStats()
	if rep := st[1].Replicas[0]; rep.ReplayedRows == 0 {
		t.Fatalf("revived replica replayed nothing: %+v", rep)
	}
}

// TestIngestWALFailoverSuiteGreen re-runs the kill/revive failover shape
// with the WAL enabled: queries stay bit-identical with a replica down,
// and after revive + catch-up the whole fleet matches the healthy suite.
func TestIngestWALFailoverSuiteGreen(t *testing.T) {
	r := replicatedRouter(t, 4, 2, true)
	t.Cleanup(func() { r.CloseWAL() })
	enableTestWAL(t, r, t.TempDir())
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
	r := replicatedRouter(t, 2, 2, false)
	t.Cleanup(func() { r.CloseWAL() })
	enableTestWAL(t, r, t.TempDir())
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
// loaders while a replica dies and revives mid-stream; afterwards both
// replicas of every shard agree on count and sum (default micro-batching,
// so coalescing itself is exercised under -race).
func TestIngestConcurrentLoadersWithKill(t *testing.T) {
	r := replicatedRouter(t, 2, 2, false)
	t.Cleanup(func() { r.CloseWAL() })
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}); err != nil {
		t.Fatal(err)
	}
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
	for si := 0; si < r.NumShards(); si++ {
		var counts [2]string
		for ri := 0; ri < 2; ri++ {
			res, err := r.Replica(si, ri).ExecContext(context.Background(), `SELECT count(*), sum(powerConsumed) FROM meterdata`, hive.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			counts[ri] = strings.Join(renderRows(res.Rows), "|")
		}
		if counts[0] != counts[1] {
			t.Fatalf("shard %d replicas disagree: %s vs %s", si, counts[0], counts[1])
		}
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
		setupMeter(t, r, cfg, true)
		return r
	}

	// Fleet 1: WAL on (fsync always — every batch durable), load batches,
	// crash without draining.
	r1 := mkFleet()
	if err := r1.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyAlways, MaxBatchRows: 1}); err != nil {
		t.Fatal(err)
	}
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

	// Fleet 2: fresh (empty) warehouses, same DDL, same WAL dir — replay.
	r2 := mkFleet()
	t.Cleanup(func() { r2.CloseWAL() })
	if err := r2.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff, MaxBatchRows: 1}); err != nil {
		t.Fatal(err)
	}
	waitFleetSettled(t, r2)

	// Baseline: synchronous loads of exactly the durable batches.
	baseline := mkFleet()
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
	for si := 0; si < r2.NumShards(); si++ {
		a := runSuiteWarehouse(t, r2.Replica(si, 0))
		b := runSuiteWarehouse(t, r2.Replica(si, 1))
		for q, w := range a {
			if b[q] != w {
				t.Fatalf("shard %d replicas diverged after replay on %q", si, q)
			}
		}
	}
}

// TestEachShardLoadErrorEnumeratesShards is the regression test for the
// load path's error accounting: a load that fails on one shard names that
// shard and enumerates the shards that applied, the way broadcast DDL
// already does, with the root cause still reachable via errors.Is.
func TestEachShardLoadErrorEnumeratesShards(t *testing.T) {
	r := replicatedRouter(t, 4, 2, false)
	r.Kill(2, 0)
	err := loadRows(r, "meterdata", extraMeterRows(0, 40))
	if err == nil {
		t.Fatal("load with a dead replica succeeded without a WAL")
	}
	for _, want := range []string{"shard 2/4 failed", "shards 0,1,3 applied"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not contain %q", err, want)
		}
	}
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("root cause lost: %v", err)
	}

	// Kill the other shards too: the fold must say no shard applied.
	for si := 0; si < 4; si++ {
		r.Kill(si, 1)
	}
	err = loadRows(r, "meterdata", extraMeterRows(1, 40))
	if err == nil || !strings.Contains(err.Error(), "no shard applied") {
		t.Fatalf("fully-failed load error = %v, want 'no shard applied'", err)
	}
}

// TestIngestLoadFailsWhenWholeShardDead: hinted handoff still refuses a
// load no replica can log.
func TestIngestLoadFailsWhenWholeShardDead(t *testing.T) {
	r := replicatedRouter(t, 2, 2, false)
	t.Cleanup(func() { r.CloseWAL() })
	enableTestWAL(t, r, t.TempDir())
	r.Kill(0, 0)
	r.Kill(0, 1)
	err := loadRows(r, "meterdata", extraMeterRows(0, 40))
	if err == nil || !strings.Contains(err.Error(), "no live replica") {
		t.Fatalf("err = %v, want no-live-replica commit failure", err)
	}
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("a load no replica could log must match ErrReplicaDown, like a read of a dead shard: %v", err)
	}
}

// TestIngestValidatesRowShapeBeforeLogging: a malformed row is rejected at
// the ack, not logged to stall the applier forever.
func TestIngestValidatesRowShapeBeforeLogging(t *testing.T) {
	r := replicatedRouter(t, 2, 1, false)
	t.Cleanup(func() { r.CloseWAL() })
	enableTestWAL(t, r, t.TempDir())
	_, err := r.LoadRowsDurable(context.Background(), "meterdata",
		[]storage.Row{{storage.Int64(1)}}, false)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("short row accepted: %v", err)
	}
	if _, err := r.LoadRowsDurable(context.Background(), "nosuch", extraMeterRows(0, 1), false); err == nil {
		t.Fatal("load into unknown table accepted")
	}
	st := r.WALStats()
	for _, ss := range st {
		if ss.NextLSN != 1 {
			t.Fatalf("invalid load consumed an LSN: %+v", ss)
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
// stops after its next apply — the rows have landed and the watermark has
// moved, but it cannot take its next batch — until released.
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
// load touching the degraded shard is refused before anything is queued, so
// the surviving sibling stays an exact copy; a record queued before the kill
// is applied exactly once after the revive, with health passing through
// catching_up; a cancelled ctx releases a load from the apply wait and from
// backpressure (the old path took no ctx); and EnableWAL with a directory
// afterwards keeps every row and can be done once.
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
	mustExec(t, r, `CREATE TABLE late (userId bigint, v double)`)
	// One record per apply, so a parked applier holds back exactly the
	// records behind the one it applied; eight rows of backlog per replica.
	if err := r.EnableWAL(wal.Options{MaxBatchRows: 1, MaxPendingRows: 8, OnApply: gate.hook}); err != nil {
		t.Fatal(err)
	}
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
	count := func(si, ri int) float64 {
		t.Helper()
		res, err := r.Replica(si, ri).ExecContext(ctx, `SELECT count(*) FROM late`, hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsFloat()
	}
	parked := func(n int, what string) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-gate.entered:
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	pendingRows := func(si, ri int) int { return r.WALStats()[si].Replicas[ri].PendingRows }
	short := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(ctx, 30*time.Millisecond)
	}

	// Park shard 0's two appliers behind a first load.
	gate.park()
	if ack, err := r.LoadRowsDurable(ctx, "late", rowsFor(0, 2), false); err != nil || !ack.Applied || ack.Durable {
		t.Fatalf("load without a directory: ack %+v, err %v; want applied, not durable", ack, err)
	}
	parked(2, "shard 0's appliers to park")

	// A load whose records sit behind the parked appliers waits for them,
	// and a cancelled ctx lets it go. Its record stays queued.
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
	for deadline := time.Now().Add(10 * time.Second); pendingRows(0, 1) < 8; {
		if time.Now().After(deadline) {
			t.Fatalf("second load never queued: %+v", r.WALStats()[0])
		}
		time.Sleep(time.Millisecond)
	}
	// Eight rows are queued per replica: the next load waits for room, and a
	// cancelled ctx lets that go too, with nothing queued.
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

	// Replica 1 dies with two records queued; its sibling applies them.
	r.Kill(0, 1)
	gate.release()
	if err := <-queued; err != nil {
		t.Fatalf("load queued before the kill: %v", err)
	}
	ctxDrain, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := r.DrainWAL(ctxDrain); err != nil {
		t.Fatal(err)
	}
	if live, dead := count(0, 0), count(0, 1); live != 10 || dead != 2 {
		t.Fatalf("after the kill: live replica holds %v rows, dead one %v; want 10 and 2", live, dead)
	}

	// During the outage a load touching shard 0 is refused before anything
	// is queued: the survivor applies nothing.
	version := r.Replica(0, 0).TableVersions("late")["late"]
	stats := fmt.Sprint(r.WALStats())
	_, err = r.LoadRowsDurable(ctx, "late", rowsFor(0, 3), false)
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("load during the outage: err = %v, want ErrReplicaDown", err)
	}
	_, err = r.LoadRowsDurable(ctx, "late", append(rowsFor(0, 1), rowsFor(1, 2)...), false)
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("load spanning the degraded shard: err = %v, want ErrReplicaDown", err)
	}
	for _, want := range []string{"shard 0/2 failed", "shards 1 applied"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("load spanning the degraded shard: error %q does not contain %q", err, want)
		}
	}
	if a, b := count(1, 0), count(1, 1); a != 2 || b != 2 {
		t.Fatalf("the healthy shard's slice: replicas hold %v and %v rows, want 2 and 2", a, b)
	}
	if got := r.Replica(0, 0).TableVersions("late")["late"]; got != version || count(0, 0) != 10 {
		t.Fatalf("the survivor applied part of a refused load: version %d → %d, %v rows", version, got, count(0, 0))
	}
	if now := fmt.Sprint(r.WALStats()[0]); !strings.Contains(stats, now) {
		t.Fatalf("a refused load moved shard 0's engine state:\nbefore %s\nafter  %s", stats, now)
	}

	// Revive: the replica is catching up — out of read selection, not dead —
	// while its own queue drains (held here after the first of its two
	// records), then live, with every record applied exactly once.
	gate.park()
	r.Revive(0, 1)
	parked(1, "the revived replica to apply its first queued record")
	if h := r.Health()[0]; h.CatchingUp != 1 || h.Live != 1 || !h.Detail[1].CatchingUp || h.Detail[1].Killed {
		t.Fatalf("health while the revived replica drains its queue = %+v, want replica 1 catching up", h)
	}
	if n := mustExec(t, r, `SELECT count(*) FROM late`).Rows[0][0].AsFloat(); n != 12 {
		t.Fatalf("count during catch-up = %v, want 12 (served by the sibling)", n)
	}
	gate.release()
	waitFleetSettled(t, r)
	if h := r.Health()[0]; h.Live != 2 {
		t.Fatalf("revived replica is not live after catch-up: %+v", h)
	}
	if a, b := count(0, 0), count(0, 1); a != 10 || b != 10 {
		t.Fatalf("after catch-up the replicas hold %v and %v rows, want 10 and 10", a, b)
	}
	if _, err := r.LoadRowsDurable(ctx, "late", rowsFor(0, 1), false); err != nil {
		t.Fatalf("load after the revive: %v", err)
	}

	// A directory, given now, keeps every row; there is no second one.
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}); err != nil {
		t.Fatal(err)
	}
	if ack, err := r.LoadRowsDurable(ctx, "late", rowsFor(1, 1), true); err != nil || !ack.Durable || !ack.Applied {
		t.Fatalf("load behind the directory: ack %+v, err %v; want durable and applied", ack, err)
	}
	if n := mustExec(t, r, `SELECT count(*) FROM late`).Rows[0][0].AsFloat(); n != 14 {
		t.Fatalf("count behind the directory = %v, want 14", n)
	}
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}); err == nil || !strings.Contains(err.Error(), "already enabled") {
		t.Fatalf("second EnableWAL = %v, want an already-enabled error", err)
	}
}
