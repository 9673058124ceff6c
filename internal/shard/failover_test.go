package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// replicatedRouter builds a Shards x Replicas fleet loaded with the meter
// workload.
func replicatedRouter(t *testing.T, shards, replicas int, withIndex bool) *Router {
	t.Helper()
	r, err := New(Config{Shards: shards, Replicas: replicas, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, r, testMeterConfig(), withIndex)
	return r
}

// runSuite executes the meter query suite and renders every result exactly.
func runSuite(t *testing.T, r *Router) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, q := range meterQuerySuite(testMeterConfig()) {
		res, err := exec(r, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		out[q] = strings.Join(res.Columns, ",") + "\n" + strings.Join(renderRows(res.Rows), "\n") +
			fmt.Sprintf("\nrecords=%d bytes=%d path=%s", res.Stats.RecordsRead, res.Stats.BytesRead, res.Stats.AccessPath)
	}
	return out
}

// TestFailoverReplicatedMatchesUnreplicated: a healthy Replicas:2 fleet is
// bit-identical — rows, stats, access paths — to a Replicas:1 fleet over the
// same data (replication must not change a single result bit).
func TestFailoverReplicatedMatchesUnreplicated(t *testing.T) {
	single := runSuite(t, replicatedRouter(t, 4, 1, true))
	double := runSuite(t, replicatedRouter(t, 4, 2, true))
	for q, want := range single {
		if got := double[q]; got != want {
			t.Fatalf("%q:\nreplicas=1: %s\nreplicas=2: %s", q, want, got)
		}
	}
}

// TestFailoverExecKilledReplica: with one replica of every shard killed, the
// scatter retries each shard's partial on the surviving replica and the full
// suite stays bit-identical to the healthy fleet — sibling shards run to
// completion exactly once (identical RecordsRead/BytesRead proves no sibling
// was cancelled and re-run). A killed replica also fails the write path
// cleanly, and Revive restores it.
func TestFailoverExecKilledReplica(t *testing.T) {
	r := replicatedRouter(t, 4, 2, true)
	healthy := runSuite(t, r)

	// Kill a different replica on each shard so every shard exercises
	// failover and both replica indices are covered.
	for si := 0; si < r.NumShards(); si++ {
		r.Kill(si, si%2)
	}
	degraded := runSuite(t, r)
	for q, want := range healthy {
		if got := degraded[q]; got != want {
			t.Fatalf("%q:\nhealthy : %s\ndegraded: %s", q, want, got)
		}
	}

	// Writes require every replica: no hinted handoff, the copies must stay
	// exactly consistent.
	err := loadRows(r, "meterdata", []storage.Row{
		{storage.Int64(1), storage.Int64(1), storage.TimeUnix(1354320000), storage.Float64(1)},
	})
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("load with a dead replica: err = %v, want ErrReplicaDown", err)
	}

	for si := 0; si < r.NumShards(); si++ {
		r.Revive(si, si%2)
	}
	revived := runSuite(t, r)
	for q, want := range healthy {
		if got := revived[q]; got != want {
			t.Fatalf("after revive %q:\nhealthy: %s\nrevived: %s", q, want, got)
		}
	}
}

// TestFailoverExecBrokenReplica: a replica that fails with a real execution
// error (its copy of the table was dropped behind the router's back) is
// failed over, queries stay correct, and after EjectAfter consecutive
// failures the replica is ejected from selection (visible in Health).
func TestFailoverExecBrokenReplica(t *testing.T) {
	r, err := New(Config{Shards: 2, Replicas: 2, Key: "userId", EjectAfter: 2, Reprobe: time.Hour}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, r, testMeterConfig(), false)
	want := mustExec(t, r, `SELECT count(*) FROM meterdata`)

	// Break shard 1 replica 1: its scan now fails with a real error.
	if _, err := r.Replica(1, 1).ExecContext(context.Background(), "DROP TABLE meterdata", hive.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got := mustExec(t, r, `SELECT count(*) FROM meterdata`)
		if want.Rows[0][0].AsFloat() != got.Rows[0][0].AsFloat() {
			t.Fatalf("broken replica changed the count: %v vs %v", want.Rows[0][0], got.Rows[0][0])
		}
	}

	h := r.Health()
	if h[1].Live != 1 {
		t.Fatalf("shard 1 health after repeated failures: %+v, want the broken replica ejected", h[1])
	}
	broken := h[1].Detail[1]
	if broken.Live || broken.ConsecutiveFailures < 2 || broken.EjectedForMs <= 0 {
		t.Fatalf("broken replica record %+v, want ejected with >=2 consecutive failures", broken)
	}
	// Once ejected, queries stop paying the failed attempt: the healthy
	// replica is chosen directly and results stay correct.
	got := mustExec(t, r, `SELECT count(*) FROM meterdata`)
	if want.Rows[0][0].AsFloat() != got.Rows[0][0].AsFloat() {
		t.Fatalf("post-ejection count: %v vs %v", want.Rows[0][0], got.Rows[0][0])
	}
}

// TestFailoverEjectionReprobe: pick skips an ejected replica until the
// re-probe interval elapses, then offers it exactly one trial again.
func TestFailoverEjectionReprobe(t *testing.T) {
	rs := newReplicaSet(0, 2, 50*time.Millisecond, []*replica{
		newReplica(0, 0, newShardWarehouse(0, 0)),
		newReplica(0, 1, newShardWarehouse(0, 0)),
	})
	rs.noteFailure(rs.reps[0])
	rs.noteFailure(rs.reps[0]) // second consecutive failure: ejected

	for i := 0; i < 10; i++ {
		rep := rs.pick(make([]bool, 2))
		if rep != rs.reps[1] {
			t.Fatalf("pick %d chose the ejected replica", i)
		}
	}
	// With every live replica tried, the ejected one is probed rather than
	// failing the query outright.
	if rep := rs.pick([]bool{false, true}); rep != rs.reps[0] {
		t.Fatal("pick refused to probe the only remaining (ejected) replica")
	}

	time.Sleep(60 * time.Millisecond)
	seen := false
	for i := 0; i < 10 && !seen; i++ {
		seen = rs.pick(make([]bool, 2)) == rs.reps[0]
	}
	if !seen {
		t.Fatal("ejected replica never re-probed after the interval")
	}
	// The probe is single-flight: claiming it advanced the ejection window,
	// so the very next pick goes back to the healthy replica instead of
	// piling more trials onto the possibly-still-dead one.
	if rs.pick(make([]bool, 2)) == rs.reps[0] {
		t.Fatal("second pick re-probed the replica within the same interval")
	}
	rs.reps[0].noteSuccess()
	if !rs.live(rs.reps[0]) {
		t.Fatal("successful probe did not restore the replica")
	}
}

// TestFailoverCursorKilledMidStream: killing a replica while a scatter
// cursor is draining it must not lose or duplicate a single row — the
// failed shard's stream replays on the surviving replica — and the cursor
// ends clean. Kills are staggered so some land before the scan, some in the
// middle of it, some after.
func TestFailoverCursorKilledMidStream(t *testing.T) {
	r := replicatedRouter(t, 4, 2, false)
	sql := `SELECT userId, powerConsumed FROM meterdata WHERE userId>=3 AND userId<=38`
	want := rowMultiset(t, r, sql, 0)

	for i, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		shard, rep := i%4, i%2
		go func() {
			time.Sleep(delay)
			r.Kill(shard, rep)
		}()
		got := rowMultiset(t, r, sql, 0)
		r.Revive(shard, rep)
		if err := multisetEqual(want, got); err != nil {
			t.Fatalf("kill(%d,%d) after %v: %v", shard, rep, delay, err)
		}
	}

	// LIMIT through a replicated scatter still stops early and stays clean
	// with a replica down.
	r.Kill(2, 0)
	defer r.Revive(2, 0)
	got := rowMultiset(t, r, `SELECT userId FROM meterdata LIMIT 7`, 7)
	n := 0
	for _, c := range got {
		n += c
	}
	if n != 7 {
		t.Fatalf("LIMIT 7 delivered %d rows", n)
	}
}

// rowMultiset reads every row of sql through a scatter cursor into a
// rendered-row multiset, requiring a clean end (wantLimit > 0 allows the
// cursor's deliberate LIMIT shutdown).
func rowMultiset(t *testing.T, r *Router, sql string, wantLimit int) map[string]int {
	t.Helper()
	cur, err := r.SelectCursor(context.Background(), mustParseSelect(t, sql), hive.ExecOptions{})
	if err != nil {
		t.Fatalf("open %q: %v", sql, err)
	}
	defer cur.Close()
	out := map[string]int{}
	for cur.Next() {
		out[renderRows([]storage.Row{cur.Row()})[0]]++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("%q: cursor err %v", sql, err)
	}
	return out
}

func multisetEqual(want, got map[string]int) error {
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("row %q: %d vs %d occurrences", k, n, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			return fmt.Errorf("extra row %q x%d", k, n)
		}
	}
	return nil
}

// TestFailoverExplainKilledReplica: EXPLAIN keeps answering with a replica
// down, reports the replication shape, and stays truthful — the announced
// access path matches the execution that follows.
func TestFailoverExplainKilledReplica(t *testing.T) {
	r := replicatedRouter(t, 4, 2, true)
	r.Kill(1, 0)
	defer r.Revive(1, 0)

	sql := `SELECT sum(powerConsumed) FROM meterdata WHERE userId>=2 AND userId<=30`
	plan, err := r.ExplainContext(context.Background(), mustParseSelect(t, sql), hive.ExecOptions{})
	if err != nil {
		t.Fatalf("Explain with a dead replica: %v", err)
	}
	if plan.ReplicasPerShard != 2 || len(plan.ChosenReplicas) != plan.ShardsTargeted {
		t.Fatalf("plan replica fields: %+v", plan)
	}
	for i, si := range plan.TargetShards {
		if si == 1 && plan.ChosenReplicas[i] != 1 {
			t.Fatalf("EXPLAIN chose the killed replica of shard 1: %+v", plan)
		}
	}
	res := mustExec(t, r, sql)
	if plan.AccessPath != res.Stats.AccessPath {
		t.Fatalf("EXPLAIN %q, execution %q", plan.AccessPath, res.Stats.AccessPath)
	}
	// The rendered EXPLAIN statement surfaces the replica line.
	rendered := mustExec(t, r, "EXPLAIN "+sql)
	var found bool
	for _, row := range rendered.Rows {
		if row[0].String() == "replicas" && strings.HasPrefix(row[1].String(), "2 per shard") {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN output lacks the replicas line: %v", rendered.Rows)
	}
}

// TestFailoverAllReplicasDown: a shard whose replicas are all dead fails the
// scatter cleanly with the shard's root cause on the exec, cursor and
// EXPLAIN paths — while queries pruned to live shards keep answering.
func TestFailoverAllReplicasDown(t *testing.T) {
	r := replicatedRouter(t, 4, 2, false)
	r.Kill(2, 0)
	r.Kill(2, 1)

	_, err := exec(r, `SELECT count(*) FROM meterdata`)
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("exec over a dead shard: err = %v, want ErrReplicaDown root cause", err)
	}
	if !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "all 2 replicas failed") {
		t.Fatalf("exec error %q does not name the dead shard", err)
	}

	_, err = r.SelectCursor(context.Background(), mustParseSelect(t, `SELECT userId FROM meterdata`), hive.ExecOptions{})
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("cursor over a dead shard: err = %v, want ErrReplicaDown", err)
	}

	_, err = r.ExplainContext(context.Background(), mustParseSelect(t, `SELECT userId FROM meterdata`), hive.ExecOptions{})
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("EXPLAIN over a dead shard: err = %v, want ErrReplicaDown", err)
	}

	// A query the routing key prunes away from the dead shard still answers.
	cfg := testMeterConfig()
	for user := 1; user <= cfg.Users; user++ {
		if r.route(storage.Int64(int64(user)), storage.KindInt64) == 2 {
			continue
		}
		res := mustExec(t, r, fmt.Sprintf(`SELECT count(*) FROM meterdata WHERE userId=%d`, user))
		if n := res.Rows[0][0].AsFloat(); n != float64(cfg.Days*cfg.ReadingsPerDay) {
			t.Fatalf("pruned query over live shard: count %v", n)
		}
		break
	}

	r.Revive(2, 0)
	res := mustExec(t, r, `SELECT count(*) FROM meterdata`)
	if n := res.Rows[0][0].AsFloat(); n != float64(cfg.Rows()) {
		t.Fatalf("post-revive count %v, want %d", n, cfg.Rows())
	}
}

// TestFailoverGoroutinesBounded: repeated failovers (exec and cursor paths,
// kills and revives interleaved) leave the goroutine count at its baseline —
// kill watchers, pump goroutines, and sibling scans are all joined, i.e. no
// sibling is left cancelled-but-leaking and no watcher outlives its request.
func TestFailoverGoroutinesBounded(t *testing.T) {
	r := replicatedRouter(t, 4, 2, false)
	before := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		r.Kill(i%4, i%2)
		if _, err := exec(r, `SELECT count(*) FROM meterdata`); err != nil {
			t.Fatal(err)
		}
		_ = rowMultiset(t, r, `SELECT userId FROM meterdata WHERE userId<=20`, 0)
		r.Revive(i%4, i%2)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked under failover: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverUserErrorsDontEject: a query that fails identically on every
// replica (unknown table, bad column) is the query's fault, not the
// stores': it must not accumulate health strikes, eject replicas, or flip
// the fleet to degraded — only a failure a sibling replica could serve
// counts (covered by TestFailoverExecBrokenReplica).
func TestFailoverUserErrorsDontEject(t *testing.T) {
	r, err := New(Config{Shards: 2, Replicas: 2, Key: "userId", EjectAfter: 2}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, r, testMeterConfig(), false)

	for i := 0; i < 5; i++ {
		if _, err := exec(r, `SELECT * FROM nosuchtable`); err == nil {
			t.Fatal("query over a missing table succeeded")
		}
		cur, err := r.SelectCursor(context.Background(), mustParseSelect(t, `SELECT v FROM nosuchtable`), hive.ExecOptions{})
		if err == nil {
			for cur.Next() {
			}
			if cur.Err() == nil {
				t.Fatal("cursor over a missing table ended clean")
			}
			cur.Close()
		}
	}

	for _, sh := range r.Health() {
		if sh.Live != sh.Replicas {
			t.Fatalf("user errors ejected replicas: %+v", sh)
		}
		for _, rep := range sh.Detail {
			if rep.ConsecutiveFailures != 0 {
				t.Fatalf("user errors counted as replica failures: %+v", rep)
			}
		}
	}
}

// TestFailoverPassthroughCursorMidStream: the pass-through cursor of a
// replicated single-shard fleet fails over mid-stream exactly like the
// scatter cursor — no lost or duplicated rows, clean end, and the stats
// stay the warehouse's own (no sharded prefix: nothing was scattered).
func TestFailoverPassthroughCursorMidStream(t *testing.T) {
	r, err := New(Config{Shards: 1, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, r, testMeterConfig(), false)
	sql := `SELECT userId, powerConsumed FROM meterdata WHERE userId<=30`
	want := rowMultiset(t, r, sql, 0)

	for i, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond} {
		rep := i % 2
		killed := make(chan struct{})
		go func() {
			defer close(killed)
			time.Sleep(delay)
			r.Kill(0, rep)
		}()
		got := rowMultiset(t, r, sql, 0)
		// The kill may land after the query: it must land before the revive,
		// or it carries over into the next round's kill of the other replica.
		<-killed
		r.Revive(0, rep)
		// The next round kills the other replica of the same shard: this
		// one must be back in read selection first, not still catching up.
		waitFleetSettled(t, r)
		if err := multisetEqual(want, got); err != nil {
			t.Fatalf("kill(0,%d) after %v: %v", rep, delay, err)
		}
	}

	cur, err := r.SelectCursor(context.Background(), mustParseSelect(t, sql), hive.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if path := cur.Stats().AccessPath; strings.HasPrefix(path, "sharded(") {
		t.Fatalf("pass-through cursor stats carry a scatter label: %q", path)
	}
	cur.Close()
}

// TestInsertDirRejectedOnReplicatedFleet: a directory sink would land in
// only the chosen replica's filesystem, silently diverging the copies, so a
// replicated fleet rejects it even at one shard (where an unreplicated
// router passes it through).
func TestInsertDirRejectedOnReplicatedFleet(t *testing.T) {
	r, err := New(Config{Shards: 1, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, r, testMeterConfig(), false)
	_, err = exec(r, `INSERT OVERWRITE DIRECTORY '/tmp/out' SELECT userId FROM meterdata`)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("replicated INSERT OVERWRITE DIRECTORY: err = %v, want rejection", err)
	}

	plain, err := New(Config{Shards: 1, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, plain, testMeterConfig(), false)
	if _, err := exec(plain, `INSERT OVERWRITE DIRECTORY '/tmp/out' SELECT userId FROM meterdata`); err != nil {
		t.Fatalf("unreplicated single-shard pass-through rejected INSERT DIR: %v", err)
	}
}

// --- satellite regressions -------------------------------------------------

// TestFanOutRootCause: fanOut, which carries every cursor's per-shard
// streams, reports a real failure of one target over the context errors its
// cancellation induced in the siblings — wherever the failing target sits in
// target order — reports a caller cancellation as a context error, and joins
// every goroutine before it returns.
func TestFanOutRootCause(t *testing.T) {
	boom := errors.New("disk exploded")
	targets := []int{0, 1, 2, 3}
	for failing := range targets {
		var running atomic.Int64
		started := make(chan struct{}, len(targets))
		err := fanOut(context.Background(), targets, func(ctx context.Context, i, si int) error {
			running.Add(1)
			defer running.Add(-1)
			started <- struct{}{}
			if i == failing {
				// Fail only once every sibling is in flight, so the cancel
				// reaches them all.
				for range targets {
					<-started
				}
				return boom
			}
			<-ctx.Done()
			time.Sleep(2 * time.Millisecond) // a sibling slow to unwind
			return fmt.Errorf("shard %d: %w", si, ctx.Err())
		})
		if !errors.Is(err, boom) {
			t.Fatalf("target %d failed: fanOut = %v, want the real error", failing, err)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("target %d failed: %d goroutines still running after fanOut returned", failing, n)
		}
	}

	// A caller cancellation is reported as the context error.
	ctx, cancel := context.WithCancel(context.Background())
	var running atomic.Int64
	err := fanOut(ctx, targets, func(ctx context.Context, i, si int) error {
		running.Add(1)
		defer running.Add(-1)
		if i == len(targets)-1 {
			cancel()
		}
		<-ctx.Done()
		time.Sleep(2 * time.Millisecond)
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fanOut = %v, want context.Canceled", err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d goroutines still running after a cancelled fanOut returned", n)
	}
}

// TestBroadcastErrorEnumeratesShards: when DDL diverges the fleet the error
// must name the shard that failed and the shards that applied the statement,
// not just surface one bare error.
func TestBroadcastErrorEnumeratesShards(t *testing.T) {
	r, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-create the table on shard 2 only: the broadcast CREATE then fails
	// there and applies everywhere else.
	if _, err := r.Shard(2).ExecContext(context.Background(), `CREATE TABLE t (userId bigint, v double)`, hive.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err = exec(r, `CREATE TABLE t (userId bigint, v double)`)
	if err == nil {
		t.Fatal("diverging broadcast returned no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "shard 2/4 failed") {
		t.Fatalf("broadcast error %q does not name the failed shard", msg)
	}
	if !strings.Contains(msg, "shards 0,1,3 applied") {
		t.Fatalf("broadcast error %q does not name the applied shards", msg)
	}

	// A store that is down fails its slot of the broadcast, and the fold
	// keeps that cause reachable, exactly as the load path's does.
	r.Kill(1, 0)
	_, err = exec(r, `CREATE TABLE u (userId bigint, v double)`)
	if err == nil || !strings.Contains(err.Error(), "shard 1/4 failed") || !strings.Contains(err.Error(), "shards 0,2,3 applied") {
		t.Fatalf("broadcast over a dead store = %v, want shard 1/4 failed; shards 0,2,3 applied", err)
	}
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("root cause lost: %v", err)
	}
}

// TestReplicatedTableVersionConsistency: /tables (TableInfos) and the result
// cache's invalidation key (TableVersions) must report the same version for
// a replicated table; TableInfos used to report shard 0's counter while
// TableVersions summed every shard's.
func TestReplicatedTableVersionConsistency(t *testing.T) {
	r, err := New(Config{Shards: 3, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `CREATE TABLE regions (regionId bigint, name string)`)
	if err := loadRows(r, "regions", []storage.Row{
		{storage.Int64(1), storage.Str("north")},
		{storage.Int64(2), storage.Str("south")},
	}); err != nil {
		t.Fatal(err)
	}

	want := r.TableVersions("regions")["regions"]
	var got uint64
	for _, info := range r.TableInfos() {
		if info.Name == "regions" {
			got = info.Version
		}
	}
	if got != want {
		t.Fatalf("TableInfos version %d != TableVersions %d for a replicated table", got, want)
	}
	if want <= r.Shard(0).TableVersions("regions")["regions"]-1 {
		t.Fatalf("summed version %d not above one shard's counter", want)
	}
}

// TestHashRoutingCoercesKeyKinds: the same logical key must land on the same
// shard no matter how a caller rendered it. The router used to hash the raw
// text, so Str("05") and Int64(5) — the same bigint key — routed to
// different shards and a point query missed rows.
func TestHashRoutingCoercesKeyKinds(t *testing.T) {
	r, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, r, `CREATE TABLE readings (userId bigint, v double)`)

	// The renderings a real fleet sees: typed loads (int64), CSV-ish string
	// batches (with leading zeros), JSON numbers decoded as float64.
	if si, sj := r.route(storage.Str("05"), storage.KindInt64), r.route(storage.Int64(5), storage.KindInt64); si != sj {
		t.Fatalf("Str(05) routes to shard %d, Int64(5) to %d", si, sj)
	}
	if si, sj := r.route(storage.Float64(5), storage.KindInt64), r.route(storage.Int64(5), storage.KindInt64); si != sj {
		t.Fatalf("Float64(5) routes to shard %d, Int64(5) to %d", si, sj)
	}
	// Timestamp keys: raw Unix seconds and the parsed calendar form agree.
	ts, err := storage.ParseTime("2012-12-05")
	if err != nil {
		t.Fatal(err)
	}
	if si, sj := r.route(storage.Int64(ts.I), storage.KindTime), r.route(ts, storage.KindTime); si != sj {
		t.Fatalf("unix-seconds key routes to shard %d, calendar form to %d", si, sj)
	}

	rows := []storage.Row{
		{storage.Int64(5), storage.Float64(1)},
		{storage.Str("05"), storage.Float64(2)},
		{storage.Float64(5), storage.Float64(3)},
	}
	if err := loadRows(r, "readings", rows); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, r, `SELECT count(*) FROM readings WHERE userId=5`)
	if !strings.HasPrefix(res.Stats.AccessPath, "sharded(1/4)") {
		t.Fatalf("point query access path %q, want single-shard prune", res.Stats.AccessPath)
	}
	if n := res.Rows[0][0].AsFloat(); n != 3 {
		t.Fatalf("point query found %v of the 3 renderings of key 5", n)
	}
}

// TestFailoverCursorStatsAfterKill: a replica killed under a scatter cursor
// leaves the cursor's volumes those of a healthy fleet. RecordsRead,
// BytesRead and Splits are the stats of the attempt that delivered each
// shard's rows — not the aborted attempt's partial progress, nor a sum over
// attempts.
func TestFailoverCursorStatsAfterKill(t *testing.T) {
	r := replicatedRouter(t, 4, 2, false)
	sql := `SELECT userId, powerConsumed FROM meterdata WHERE userId>=3 AND userId<=38`
	read := func(ctx context.Context) (map[string]int, hive.QueryStats) {
		t.Helper()
		cur, err := r.SelectCursor(ctx, mustParseSelect(t, sql), hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		rows := map[string]int{}
		for cur.Next() {
			rows[renderRows([]storage.Row{cur.Row()})[0]]++
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return rows, cur.Stats()
	}
	wantRows, want := read(context.Background())

	aborted := 0
	for round := 0; round < 8; round++ {
		// Kill whichever replica of the shard picks the stream up, as soon
		// as it is in flight: its scan is then aborted part-way.
		rs := r.sets[round%4]
		stop, killed := make(chan struct{}), make(chan int, 1)
		go func() {
			for {
				select {
				case <-stop:
					killed <- -1
					return
				default:
				}
				for j, rep := range rs.reps {
					if rep.inflight.Load() > 0 {
						r.Kill(rs.shard, j)
						killed <- j
						return
					}
				}
				runtime.Gosched()
			}
		}()
		root := trace.New("query")
		gotRows, got := read(trace.NewContext(context.Background(), root))
		close(stop)
		j := <-killed
		for _, ev := range root.Snapshot().Events {
			if strings.Contains(ev.Msg, "aborted in flight") {
				aborted++
			}
		}
		if j >= 0 {
			r.Revive(rs.shard, j)
			waitFleetSettled(t, r)
		}
		if err := multisetEqual(wantRows, gotRows); err != nil {
			t.Fatalf("round %d, shard %d replica %d killed: %v", round, rs.shard, j, err)
		}
		if got.RecordsRead != want.RecordsRead || got.BytesRead != want.BytesRead || got.Splits != want.Splits {
			t.Fatalf("round %d, shard %d replica %d killed: records/bytes/splits %d/%d/%d, healthy fleet %d/%d/%d",
				round, rs.shard, j, got.RecordsRead, got.BytesRead, got.Splits, want.RecordsRead, want.BytesRead, want.Splits)
		}
	}
	t.Logf("%d of 8 kills aborted a scan in flight", aborted)
}
