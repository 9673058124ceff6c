package hive

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// foldWarehouse holds the golden meter rows (600 of them: a bigint region,
// day-major timestamps that pack, or run-length encode in larger groups, a
// five-value vendor that dictionary encodes) in one table of the given
// storage and row-group size, plus a join side with a low-cardinality
// string and a numeric column.
func foldWarehouse(t *testing.T, stored string, groupRows int, disableEncoding bool) *Warehouse {
	t.Helper()
	w := testWarehouse(1 << 12)
	mustExec(t, w, `CREATE TABLE m (userId bigint, regionId bigint, ts timestamp, powerConsumed double, vendor string) STORED AS `+stored)
	tbl, _ := w.Table("m")
	tbl.RowGroupRows, tbl.DisableEncoding = groupRows, disableEncoding
	if err := w.LoadRowsByName("m", goldenMeterRows(60, 4, 10)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, `CREATE TABLE u (userId bigint, tier string, weight double) STORED AS `+stored)
	users, _ := w.Table("u")
	users.RowGroupRows, users.DisableEncoding = 16, disableEncoding
	var rows []storage.Row
	for id := 1; id <= 50; id++ { // users 51-60 find no partner
		rows = append(rows, storage.Row{
			storage.Int64(int64(id)), storage.Str([]string{"gold", "silver", "bronze"}[id%3]), storage.Float64(1 + float64(id%7)/4),
		})
	}
	if err := w.LoadRowsByName("u", rows); err != nil {
		t.Fatal(err)
	}
	return w
}

// reversedSplits hands a job its splits last first, so map tasks start — and
// on a pool of workers finish — in roughly the opposite order.
type reversedSplits struct{ mapreduce.InputFormat }

func (r reversedSplits) Splits() ([]mapreduce.InputSplit, error) {
	splits, err := r.InputFormat.Splits()
	for i, j := 0, len(splits)-1; i < j; i, j = i+1, j-1 {
		splits[i], splits[j] = splits[j], splits[i]
	}
	return splits, err
}

func execReversed(t *testing.T, w *Warehouse, sql string, opts ExecOptions) *Result {
	t.Helper()
	stmt := mustParseSelect(t, sql)
	p, err := prepareSelect(w, stmt, opts)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	p.input = reversedSplits{p.input}
	pr, err := w.runPreparedSelect(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return pr.Finalize(stmt.Limit)
}

// TestFoldMatchesReference holds the per-split fold to the row-at-a-time
// reference over every aggregate, key form, storage, join shape and
// selectivity: group cells, counts, minima and maxima exactly, sums and
// averages to 1e-12 relative, and bit for bit the same rows whichever order
// the splits complete in.
func TestFoldMatchesReference(t *testing.T) {
	type agg struct {
		plain, joined string
		exact         bool
	}
	aggs := []agg{
		{"count(*)", "count(*)", true},
		{"sum(powerConsumed)", "sum(t1.powerConsumed)", false},
		{"min(powerConsumed)", "min(t1.powerConsumed)", true},
		{"max(ts)", "max(t2.weight)", true},
		{"avg(powerConsumed)", "avg(t1.powerConsumed)", false},
		{"sum(powerConsumed*regionId)", "sum(t1.powerConsumed*t2.weight)", false},
	}
	all := agg{}
	for i, a := range aggs {
		if i > 0 {
			all.plain, all.joined = all.plain+", ", all.joined+", "
		}
		all.plain, all.joined = all.plain+a.plain, all.joined+a.joined
	}
	lists := append([]agg{all}, aggs...)

	keys := []struct{ plain, joined string }{
		{"", ""},
		{"regionId", "t1.regionId"},
		{"vendor", "t1.vendor"},
		{"ts", "t1.ts"},
		{"regionId, vendor", "t1.regionId, t2.tier"},
		{"userId", "t2.tier"},
	}
	wheres := []struct{ plain, joined string }{
		{"", ""},
		{" WHERE userId>=7 AND userId<=41 AND vendor!='acme'", " WHERE t1.userId>=7 AND t1.userId<=41 AND t1.vendor!='acme' AND t2.tier!='gold'"},
		{" WHERE userId>=1000", " WHERE t1.userId>=1000"},
	}
	storages := []struct {
		name, stored     string
		groupRows        int
		noEncode         bool
		tsEnc, vendorEnc byte
	}{
		{"text", "TEXTFILE", 16, false, storage.EncPlain, storage.EncPlain},
		{"rc", "RCFILE", 16, false, storage.EncPacked, storage.EncDict},
		{"rc-runs", "RCFILE", 64, false, storage.EncRLE, storage.EncDict},
		{"rc-plain", "RCFILE", 16, true, storage.EncPlain, storage.EncPlain},
	}

	for _, st := range storages {
		w := foldWarehouse(t, st.stored, st.groupRows, st.noEncode)
		// The key forms under test are the ones the batches really carry.
		tsEnc, vendorEnc := firstBatchEncodings(t, w, "m", 2, 4)
		if tsEnc != st.tsEnc || vendorEnc != st.vendorEnc {
			t.Fatalf("%s: ts encoding %q, vendor encoding %q, want %q and %q", st.name, tsEnc, vendorEnc, st.tsEnc, st.vendorEnc)
		}
		for _, joined := range []bool{false, true} {
			for _, list := range lists {
				for _, key := range keys {
					for _, where := range wheres {
						sel, k, from, cond := list.plain, key.plain, "m", where.plain
						if joined {
							sel, k, from, cond = list.joined, key.joined, "m t1 JOIN u t2 ON t1.userId=t2.userId", where.joined
						}
						nkeys := 0
						sql := "SELECT " + sel + " FROM " + from + cond
						if k != "" {
							nkeys = strings.Count(k, ",") + 1
							sql = "SELECT " + k + ", " + sel + " FROM " + from + cond + " GROUP BY " + k
						}
						got, want := mustExec(t, w, sql), refExec(t, w, sql, ExecOptions{})
						exact := func(col int) bool {
							if col < nkeys {
								return true
							}
							if list.plain == all.plain {
								return aggs[col-nkeys].exact
							}
							return list.exact
						}
						if err := sameAggRows(got.Rows, want.Rows, exact); err != nil {
							t.Errorf("%s: %q: %v\nfold:\n%sreference:\n%s", st.name, sql, err, renderExact(got.Rows), renderExact(want.Rows))
						}
						if list.plain != all.plain {
							continue // the combined list covers every aggregate's order dependence
						}
						if rev := execReversed(t, w, sql, ExecOptions{}); renderExact(rev.Rows) != renderExact(got.Rows) {
							t.Errorf("%s: %q: rows depend on split order\nforward:\n%sreversed:\n%s", st.name, sql, renderExact(got.Rows), renderExact(rev.Rows))
						}
					}
				}
			}
		}
	}
}

// firstBatchEncodings reports the storage encodings of two columns in the
// first batch a scan of the table delivers.
func firstBatchEncodings(t *testing.T, w *Warehouse, table string, colA, colB int) (byte, byte) {
	t.Helper()
	tbl, _ := w.Table(table)
	in := &mapreduce.FileInput{FS: w.FS, Dir: tbl.Dir, Format: tbl.Format, Schema: tbl.Schema}
	splits, err := in.Splits()
	if err != nil {
		t.Fatal(err)
	}
	r, err := in.Open(splits[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("no first batch: %v", err)
	}
	return rec.Batch.Cols[colA].Enc, rec.Batch.Cols[colB].Enc
}

// sameAggRows compares two finalized aggregate results row by row: columns
// exact(col) admits must be identical, the others equal to 1e-12 relative
// (NaN equals NaN: an average over nothing).
func sameAggRows(got, want []storage.Row, exact func(col int) bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for c := range got[i] {
			g, w := got[i][c], want[i][c]
			if exact(c) || g.Kind != storage.KindFloat64 {
				if renderExact([]storage.Row{{g}}) != renderExact([]storage.Row{{w}}) {
					return fmt.Errorf("row %d column %d: %v, want exactly %v", i, c, g, w)
				}
				continue
			}
			if math.IsNaN(g.F) && math.IsNaN(w.F) {
				continue
			}
			if diff := math.Abs(g.F - w.F); diff > 1e-12*math.Abs(w.F) {
				return fmt.Errorf("row %d column %d: %v, want %v (off by %g)", i, c, g.F, w.F, diff)
			}
		}
	}
	return nil
}

// scanAggWarehouse is the full-scan aggregation workload: one RCFile table of
// users × days meter rows over eight regions, cut into the same number of
// row groups and splits whatever the row count (group rows and block size
// scale with it).
func scanAggWarehouse(t testing.TB, scale int) (*Warehouse, int) {
	t.Helper()
	w := testWarehouse(int64(scale) << 16)
	if _, err := w.ExecContext(context.Background(), `CREATE TABLE scanlog (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := w.Table("scanlog")
	tbl.RowGroupRows = 500 * scale
	rows := meterRows(1000*scale, 8, 20)
	if err := w.LoadRowsByName("scanlog", rows); err != nil {
		t.Fatal(err)
	}
	return w, len(rows)
}

const scanAggGroupBy = `SELECT regionId, count(*), sum(powerConsumed) FROM scanlog GROUP BY regionId`

// TestFoldShuffleBudget: a full-table GROUP BY is charged at most one shuffle
// pair per group per split, and building that answer allocates per batch and
// per group, not per qualifying row — four times the rows in the same number
// of row groups, splits and groups cost the same allocations (within 10 %).
func TestFoldShuffleBudget(t *testing.T) {
	var allocs [2]float64
	var splits [2]int
	for i, scale := range []int{1, 4} {
		w, rows := scanAggWarehouse(t, scale)
		res := mustExec(t, w, scanAggGroupBy)
		s := res.Stats
		if s.RecordsRead != int64(rows) || len(res.Rows) != 8 {
			t.Fatalf("scale %d: read %d of %d rows into %d groups, want all into 8", scale, s.RecordsRead, rows, len(res.Rows))
		}
		if s.Splits < 2 {
			t.Fatalf("scale %d: %d splits, want several", scale, s.Splits)
		}
		if s.ShufflePairs == 0 || s.ShufflePairs > int64(s.Splits*len(res.Rows)) {
			t.Errorf("scale %d: %d shuffle pairs for %d splits x %d groups", scale, s.ShufflePairs, s.Splits, len(res.Rows))
		}
		if s.ShuffleBytes <= 0 {
			t.Errorf("scale %d: %d shuffle bytes", scale, s.ShuffleBytes)
		}
		splits[i] = s.Splits
		allocs[i] = testing.AllocsPerRun(5, func() {
			if _, err := w.ExecContext(context.Background(), scanAggGroupBy, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if splits[0] != splits[1] {
		t.Fatalf("%d splits at N rows, %d at 4N: the comparison needs equal counts", splits[0], splits[1])
	}
	if allocs[1] > allocs[0]*1.10 {
		t.Errorf("allocations grow with qualifying rows: %.0f at N, %.0f at 4N", allocs[0], allocs[1])
	}
}

// BenchmarkFullScanAggregate is the scan_agg workload's closing statement in
// miniature: every row of an index-free RCFile table qualifies for a scalar
// count and sum. It asserts its own allocation ceiling — 20,000 rows in 40 row
// groups over 13 splits cost some 900 allocations (readers, payload strings,
// job bookkeeping); one per row would be over twenty times that.
func BenchmarkFullScanAggregate(b *testing.B) {
	w, rows := scanAggWarehouse(b, 1)
	const sql = `SELECT count(*), sum(powerConsumed) FROM scanlog`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.ExecContext(context.Background(), sql, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0][0].F != float64(rows) {
			b.Fatalf("counted %v of %d rows", res.Rows[0][0].F, rows)
		}
	}
	b.StopTimer()
	const ceiling = 2000
	if allocs := testing.AllocsPerRun(3, func() { w.ExecContext(context.Background(), sql, ExecOptions{}) }); allocs > ceiling {
		b.Fatalf("%.0f allocs/op over %d rows, ceiling %d", allocs, rows, ceiling)
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
