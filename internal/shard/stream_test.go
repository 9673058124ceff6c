package shard

import (
	"context"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
)

// TestCursorRowsOutCountsDelivered: on every cursor path — a bare warehouse,
// a 1×1 and a 1×2 pass-through router, a 4×1 scatter router — a cursor's
// RowsOut is the number of rows Next delivered before Close, whether the
// statement is a projection, a GROUP BY or a LIMIT, and whether the reader
// took no row, one row or all of them.
func TestCursorRowsOutCountsDelivered(t *testing.T) {
	type opener interface {
		SelectCursor(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (hive.Cursor, error)
	}
	w := newShardWarehouse(0)
	setupMeter(t, w, testMeterConfig(), false)
	stores := []struct {
		name string
		o    opener
	}{
		{"warehouse", w},
		{"1x1", replicatedRouter(t, 1, 1, false)},
		{"1x2", replicatedRouter(t, 1, 2, false)},
		{"4x1", replicatedRouter(t, 4, 1, false)},
	}
	statements := []string{
		`SELECT userId, powerConsumed FROM meterdata`,
		`SELECT userId, count(*) FROM meterdata GROUP BY userId`,
		`SELECT userId FROM meterdata LIMIT 3`,
	}
	for _, st := range stores {
		for _, sql := range statements {
			for _, k := range []int{0, 1, -1} { // -1: read every row
				cur, err := st.o.SelectCursor(context.Background(), mustParseSelect(t, sql), hive.ExecOptions{})
				if err != nil {
					t.Fatalf("%s %q: %v", st.name, sql, err)
				}
				read := 0
				for (k < 0 || read < k) && cur.Next() {
					read++
				}
				cur.Close()
				if err := cur.Err(); err != nil {
					t.Fatalf("%s %q: err %v", st.name, sql, err)
				}
				if got := cur.Stats().RowsOut; got != read {
					t.Errorf("%s %q: read %d rows, then Close: RowsOut %d", st.name, sql, read, got)
				}
			}
		}
	}
}

// BenchmarkScatterCursor drains a full projection through a 4-shard
// router's cursor: the cost of the streaming layer per row, reported as
// rows/s and allocs/op.
func BenchmarkScatterCursor(b *testing.B) {
	cfg := testMeterConfig()
	cfg.Users, cfg.ReadingsPerDay = 200, 8
	r, err := New(Config{Shards: 4, Key: "userId"}, newShardWarehouse)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := exec(r, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`); err != nil {
		b.Fatal(err)
	}
	if err := loadRows(r, "meterdata", cfg.AllRows()); err != nil {
		b.Fatal(err)
	}
	stmt := mustParseSelect(b, `SELECT userId, powerConsumed FROM meterdata`)

	b.ReportAllocs()
	b.ResetTimer()
	start, rows := time.Now(), 0
	for i := 0; i < b.N; i++ {
		cur, err := r.SelectCursor(context.Background(), stmt, hive.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
		if n != cfg.Rows() {
			b.Fatalf("drained %d rows, want %d", n, cfg.Rows())
		}
		rows += n
	}
	b.ReportMetric(float64(rows)/time.Since(start).Seconds(), "rows/s")
}
