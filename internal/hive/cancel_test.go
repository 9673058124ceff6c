package hive

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// setupManySplits creates a meterdata table whose data is spread over enough
// separate files (one split each at the test block size) that a scan cannot
// finish within the worker pool's first wave: files >> GOMAXPROCS, so a
// cancelled or LIMIT-stopped scan provably consumes strictly fewer splits
// than a full one.
func setupManySplits(t testing.TB, w *Warehouse, rowsPerFile int) (files, totalRows int) {
	t.Helper()
	files = 4*runtime.GOMAXPROCS(0) + 8
	if _, err := w.ExecContext(context.Background(), `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	for f := 0; f < files; f++ {
		rows := make([]storage.Row, rowsPerFile)
		for i := range rows {
			u := f*rowsPerFile + i
			rows[i] = storage.Row{
				storage.Int64(int64(u + 1)),
				storage.Int64(int64(u%4 + 1)),
				storage.Time(base.Add(time.Duration(u) * time.Minute)),
				storage.Float64(float64(u) / 7),
			}
		}
		if err := w.LoadRowsByName("meterdata", rows); err != nil {
			t.Fatal(err)
		}
	}
	return files, files * rowsPerFile
}

func mustParseSelect(t testing.TB, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*SelectStmt)
}

// TestCursorCancelMidScan: a ctx cancelled mid-scan aborts within one split
// boundary (strictly fewer records read than the table holds), surfaces
// context.Canceled — not a partial result — and leaves the warehouse fully
// usable for the next query.
func TestCursorCancelMidScan(t *testing.T) {
	w := testWarehouse(1 << 20)
	_, total := setupManySplits(t, w, 50)

	ctx, cancel := context.WithCancel(context.Background())
	cur, err := w.SelectCursor(ctx, mustParseSelect(t, `SELECT userId, powerConsumed FROM meterdata`), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One row proves the scan is running; the unread channel then applies
	// backpressure, so most splits are still pending when the cancel lands.
	if !cur.Next() {
		t.Fatalf("no first row; err=%v", cur.Err())
	}
	cancel()
	for cur.Next() {
		// Drain whatever was in flight.
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	stats := cur.Stats()
	if stats.RecordsRead >= int64(total) {
		t.Fatalf("cancelled scan read the whole table: %d of %d records", stats.RecordsRead, total)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}

	// The warehouse (and its catalog read lock) must be fully released.
	res := mustExec(t, w, `SELECT count(*) FROM meterdata`)
	if got := int64(res.Rows[0][0].AsFloat()); got != int64(total) {
		t.Fatalf("post-cancel count = %d, want %d", got, total)
	}
}

// TestCursorLimitStopsEarly: LIMIT n stops split consumption at the next
// split boundary — strictly fewer records read than a full scan, verified
// via QueryStats — while still delivering exactly n rows.
func TestCursorLimitStopsEarly(t *testing.T) {
	w := testWarehouse(1 << 20)
	files, total := setupManySplits(t, w, 50)

	cur, err := w.SelectCursor(context.Background(), mustParseSelect(t, `SELECT userId FROM meterdata LIMIT 3`), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
	if rows != 3 {
		t.Fatalf("delivered %d rows, want 3", rows)
	}
	stats := cur.Stats()
	if stats.RecordsRead >= int64(total) {
		t.Fatalf("LIMIT scan read the whole table: %d of %d records", stats.RecordsRead, total)
	}
	if stats.Splits >= files {
		t.Fatalf("LIMIT scan consumed all %d splits", files)
	}
	if stats.RowsOut != 3 {
		t.Fatalf("RowsOut = %d, want 3", stats.RowsOut)
	}
	cur.Close()

	// The plain Exec path keeps its deterministic full-scan semantics: same
	// LIMIT, all records read.
	res := mustExec(t, w, `SELECT userId FROM meterdata LIMIT 3`)
	if len(res.Rows) != 3 || res.Stats.RecordsRead != int64(total) {
		t.Fatalf("Exec LIMIT: %d rows, %d records read (want 3 rows, %d records)",
			len(res.Rows), res.Stats.RecordsRead, total)
	}
}

// TestCursorDoesNotBlockWriters: a stalled stream consumer must not hold
// the catalog lock — cursors release it after planning, so a LOAD (an
// exclusive writer) completes while a cursor sits paused mid-stream.
func TestCursorDoesNotBlockWriters(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupManySplits(t, w, 50)

	cur, err := w.SelectCursor(context.Background(), mustParseSelect(t, `SELECT userId FROM meterdata`), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatalf("no first row; err=%v", cur.Err())
	}
	// The consumer now stalls (we stop calling Next); the scan goroutine
	// backpressures on the row channel. A writer must still get through.
	done := make(chan error, 1)
	go func() {
		done <- w.LoadRowsByName("meterdata", []storage.Row{{
			storage.Int64(1 << 40), storage.Int64(1),
			storage.Time(time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)),
			storage.Float64(1),
		}})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("LOAD blocked behind a stalled streaming cursor")
	}
}

// TestExecContextPreCancelled: a dead ctx fails fast with its own error and
// touches nothing.
func TestExecContextPreCancelled(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 8, 4, 2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ExecContext(ctx, `SELECT count(*) FROM meterdata`, ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext on cancelled ctx = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := w.ExecContext(expired, `SELECT count(*) FROM meterdata`, ExecOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExecContext on expired ctx = %v, want context.DeadlineExceeded", err)
	}
}

// TestCursorAggregateStreams: aggregations deliver their finalized rows
// through the cursor with the same values Exec produces.
func TestCursorAggregateStreams(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 20, 4, 3)

	sql := `SELECT regionId, sum(powerConsumed) FROM meterdata GROUP BY regionId`
	want := mustExec(t, w, sql)

	cur, err := w.SelectCursor(context.Background(), mustParseSelect(t, sql), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []storage.Row
	for cur.Next() {
		got = append(got, cur.Row())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if len(got) != len(want.Rows) {
		t.Fatalf("cursor delivered %d rows, Exec %d", len(got), len(want.Rows))
	}
	for i := range got {
		for j := range got[i] {
			if storage.Compare(got[i][j], want.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: cursor %v, Exec %v", i, j, got[i][j], want.Rows[i][j])
			}
		}
	}
}

// BenchmarkCancelLatency measures how long a cancel takes to land: from
// cancel() to the cursor fully drained and closed. The mapreduce contract is
// split-boundary granularity — in-flight splits finish, nothing new starts —
// so the latency must stay in the one-split range, and the aborted scan must
// never have consumed the whole table.
func BenchmarkCancelLatency(b *testing.B) {
	w := testWarehouse(1 << 20)
	_, total := setupManySplits(b, w, 200)
	stmt := mustParseSelect(b, `SELECT userId, powerConsumed FROM meterdata`)

	b.ResetTimer()
	var worst time.Duration
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := w.SelectCursor(ctx, stmt, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !cur.Next() {
			b.Fatalf("no first row; err=%v", cur.Err())
		}
		start := time.Now()
		cancel()
		for cur.Next() {
		}
		cur.Close()
		lat := time.Since(start)
		if lat > worst {
			worst = lat
		}
		if got := cur.Stats().RecordsRead; got >= int64(total) {
			b.Fatalf("cancel did not stop the scan early: read %d of %d records", got, total)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(worst.Microseconds()), "worst-cancel-us")
	fmt.Fprintf(benchLogWriter{b}, "worst cancel-to-drain latency: %v\n", worst)
}

// benchLogWriter routes into b.Log without the (unused) error plumbing.
type benchLogWriter struct{ b *testing.B }

func (w benchLogWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}
