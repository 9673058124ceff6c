package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

func testRouter(t *testing.T, shards int, strategy Strategy, withIndex bool) *Router {
	t.Helper()
	cfg := Config{Shards: shards, Key: "userId", Strategy: strategy}
	if strategy == RangeKey {
		cfg.Bounds = rangeBounds(shards, 40)
	}
	r, err := New(cfg, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	setupMeter(t, r, testMeterConfig(), withIndex)
	return r
}

func rangeBounds(shards, users int) []float64 {
	var out []float64
	for i := 1; i < shards; i++ {
		out = append(out, float64(i*users/shards)+0.5)
	}
	return out
}

// TestScatterCancelReleasesGoroutines: a cancelled scatter must join every
// shard goroutine — no leaks, bounded by runtime.NumGoroutine — and leave
// the fleet answering the next query.
func TestScatterCancelReleasesGoroutines(t *testing.T) {
	r := testRouter(t, 4, HashKey, false)
	before := runtime.NumGoroutine()

	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := r.SelectCursor(ctx, mustParseSelect(t, `SELECT userId, powerConsumed FROM meterdata`), hive.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Next() {
			t.Fatalf("no first row; err=%v", cur.Err())
		}
		cancel()
		cur.Close()
		if err := cur.Err(); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v", err)
		}
	}

	// Cancellation propagates at split granularity; give the joined
	// goroutines a moment to exit, then require the count back at baseline
	// (small slack for runtime background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled scatters", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	res := mustExec(t, r, `SELECT count(*) FROM meterdata`)
	cfg := testMeterConfig()
	if got := int64(res.Rows[0][0].AsFloat()); got != int64(cfg.Rows()) {
		t.Fatalf("post-cancel count = %d, want %d", got, cfg.Rows())
	}
}

// TestScatterPreCancelled: ExecParsedContext on a dead ctx returns the ctx
// error, never a partial result.
func TestScatterPreCancelled(t *testing.T) {
	r := testRouter(t, 4, HashKey, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.ExecParsedContext(ctx, mustParseSelect(t, `SELECT count(*) FROM meterdata`), hive.ExecOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got a result alongside the ctx error: %+v", res)
	}
}

func mustParseSelect(t testing.TB, sql string) *hive.SelectStmt {
	t.Helper()
	stmt, err := hive.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*hive.SelectStmt)
}

// TestShardExplainTruthful: the router's EXPLAIN reports the same access
// path (sharded prefix included), the real target set, and — on DGF and
// scan paths — the exact summed byte volume the execution then reads.
func TestShardExplainTruthful(t *testing.T) {
	r := testRouter(t, 4, RangeKey, true)

	suite := []struct {
		sql         string
		wantTargets int // 0 = don't check
	}{
		{`SELECT sum(powerConsumed) FROM meterdata WHERE userId>=2 AND userId<=9`, 1},
		{`SELECT count(*) FROM meterdata`, 4},
		{`SELECT userId, powerConsumed FROM meterdata WHERE userId>=12 AND userId<=28`, 0},
	}
	for _, tc := range suite {
		plan, err := r.ExplainContext(context.Background(), mustParseSelect(t, tc.sql), hive.ExecOptions{})
		if err != nil {
			t.Fatalf("Explain(%q): %v", tc.sql, err)
		}
		res := mustExec(t, r, tc.sql)
		if plan.AccessPath != res.Stats.AccessPath {
			t.Errorf("%s\n  EXPLAIN %q, execution %q", tc.sql, plan.AccessPath, res.Stats.AccessPath)
		}
		if plan.ShardsTotal != 4 || plan.ShardsTargeted != len(plan.TargetShards) {
			t.Errorf("%s\n  shard fields inconsistent: %+v", tc.sql, plan)
		}
		if tc.wantTargets > 0 && plan.ShardsTargeted != tc.wantTargets {
			t.Errorf("%s\n  targeted %d shards, want %d", tc.sql, plan.ShardsTargeted, tc.wantTargets)
		}
		// The "sharded(k/n):" prefix must agree with the target count.
		if !strings.HasPrefix(plan.AccessPath, "sharded(") {
			t.Errorf("%s\n  access path %q lacks the sharded prefix", tc.sql, plan.AccessPath)
		}
		if plan.ProjectedBytes >= 0 && plan.ProjectedBytes != res.Stats.BytesRead {
			t.Errorf("%s\n  EXPLAIN ProjectedBytes %d, execution BytesRead %d", tc.sql, plan.ProjectedBytes, res.Stats.BytesRead)
		}
	}

	// One-shard router: EXPLAIN passes through bit-identical to the bare
	// warehouse (no sharded prefix, no shard fields).
	one := func() *Router {
		r1, err := New(Config{Shards: 1, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		setupMeter(t, r1, testMeterConfig(), true)
		return r1
	}()
	bare := newShardWarehouse(0)
	setupMeter(t, bare, testMeterConfig(), true)
	sql := `EXPLAIN SELECT sum(powerConsumed) FROM meterdata WHERE userId>=2 AND userId<=9`
	viaRouter := mustExec(t, one, sql)
	viaBare, err := bare.ExecContext(context.Background(), sql, hive.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRouter.Rows) != len(viaBare.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(viaRouter.Rows), len(viaBare.Rows))
	}
	for i := range viaRouter.Rows {
		for j := range viaRouter.Rows[i] {
			if viaRouter.Rows[i][j].String() != viaBare.Rows[i][j].String() {
				t.Fatalf("EXPLAIN row %d differs: %v vs %v", i, viaRouter.Rows[i], viaBare.Rows[i])
			}
		}
	}
}

// TestScatterCursorEquivalence: the streamed scatter delivers exactly the
// rows the materializing scatter-gather produces (order aside), and a LIMIT
// cursor stops the shard scans early.
func TestScatterCursorEquivalence(t *testing.T) {
	r := testRouter(t, 4, HashKey, false)

	sql := `SELECT userId, powerConsumed FROM meterdata WHERE userId>=5 AND userId<=30`
	want := mustExec(t, r, sql)
	cur, err := r.SelectCursor(context.Background(), mustParseSelect(t, sql), hive.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	n := 0
	for cur.Next() {
		counts[renderRows([]storage.Row{cur.Row()})[0]]++
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if n != len(want.Rows) {
		t.Fatalf("cursor delivered %d rows, scatter-gather %d", n, len(want.Rows))
	}
	for _, key := range renderRows(want.Rows) {
		counts[key]--
		if counts[key] < 0 {
			t.Fatalf("cursor missed row %s", key)
		}
	}
	if !strings.HasPrefix(cur.Stats().AccessPath, "sharded(") {
		t.Fatalf("cursor access path %q", cur.Stats().AccessPath)
	}

	// Aggregations stream their finalized rows with identical values.
	aggSQL := `SELECT regionId, sum(powerConsumed) FROM meterdata GROUP BY regionId`
	wantAgg := mustExec(t, r, aggSQL)
	aggCur, err := r.SelectCursor(context.Background(), mustParseSelect(t, aggSQL), hive.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var gotAgg []storage.Row
	for aggCur.Next() {
		gotAgg = append(gotAgg, aggCur.Row())
	}
	aggCur.Close()
	if len(gotAgg) != len(wantAgg.Rows) {
		t.Fatalf("agg cursor %d rows, exec %d", len(gotAgg), len(wantAgg.Rows))
	}

	// Global LIMIT through the scatter cursor.
	limCur, err := r.SelectCursor(context.Background(), mustParseSelect(t, `SELECT userId FROM meterdata LIMIT 4`), hive.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lim := 0
	for limCur.Next() {
		lim++
	}
	limCur.Close()
	if lim != 4 {
		t.Fatalf("LIMIT cursor delivered %d rows, want 4", lim)
	}
	if err := limCur.Err(); err != nil {
		t.Fatalf("LIMIT cursor err = %v", err)
	}
}
