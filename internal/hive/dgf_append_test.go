package hive

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// TestDgfAppendTwiceIntoExistingCells loads late readings into grid cells the
// index already holds, twice, so every touched GFU pair is merged with its
// stored value two times over. A merge that pairs a cell with another cell's
// old header and slices (as dgf.Index.mergePairs did while it ranged twice
// over one map) shows up here as an index answer that differs from the scan.
// Readings are multiples of 1/4, so sums are exact in any order.
func TestDgfAppendTwiceIntoExistingCells(t *testing.T) {
	const users, regions, days = 40, 4, 8
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	readings := func(day, hour int) []storage.Row {
		rows := make([]storage.Row, 0, users)
		for u := 1; u <= users; u++ {
			rows = append(rows, storage.Row{
				storage.Int64(int64(u)),
				storage.Int64(int64(u%regions + 1)),
				storage.Time(base.AddDate(0, 0, day).Add(time.Duration(hour) * time.Hour)),
				storage.Float64(float64((u*31+day*7+hour*3)%400) / 4),
			})
		}
		return rows
	}
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		t.Run(stored, func(t *testing.T) {
			w := testWarehouse(1 << 14)
			mustExec(t, w, fmt.Sprintf(`CREATE TABLE meterdata (userId bigint, regionId bigint,
				ts timestamp, powerConsumed double) STORED AS %s`, stored))
			tbl, _ := w.Table("meterdata")
			tbl.RowGroupRows = 16
			var first []storage.Row
			for d := 0; d < days; d++ {
				first = append(first, readings(d, 0)...)
			}
			if err := w.LoadRowsByName("meterdata", first); err != nil {
				t.Fatal(err)
			}
			createDgf(t, w)
			// Two late loads, each into 32 existing cells (days 2 and 5).
			for _, hour := range []int{6, 12} {
				late := append(readings(2, hour), readings(5, hour)...)
				if err := w.LoadRowsByName("meterdata", late); err != nil {
					t.Fatal(err)
				}
			}

			queries := []string{
				`SELECT count(*), sum(powerConsumed), min(powerConsumed), max(powerConsumed) FROM meterdata`,
				`SELECT count(*), sum(powerConsumed) FROM meterdata WHERE userId>=3 AND userId<=37 AND ts>='2012-12-02' AND ts<'2012-12-07'`,
				`SELECT count(*), sum(powerConsumed) FROM meterdata WHERE ts>='2012-12-03 03:00:00' AND ts<'2012-12-06 09:00:00'`,
				`SELECT count(*), sum(powerConsumed) FROM meterdata WHERE regionId>=2 AND regionId<=3 AND userId>=14 AND userId<=26`,
				`SELECT regionId, count(*), sum(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=35 GROUP BY regionId`,
				`SELECT userId, ts, powerConsumed FROM meterdata WHERE userId=7`,
				`SELECT * FROM meterdata WHERE userId>=18 AND userId<=23 AND ts>='2012-12-06' AND ts<'2012-12-07'`,
			}
			for d := 0; d < days; d++ {
				day := base.AddDate(0, 0, d).Format("2006-01-02")
				next := base.AddDate(0, 0, d+1).Format("2006-01-02")
				queries = append(queries,
					fmt.Sprintf(`SELECT count(*), sum(powerConsumed) FROM meterdata WHERE userId>=4 AND userId<=33 AND ts>='%s' AND ts<'%s'`, day, next),
					fmt.Sprintf(`SELECT count(*), max(powerConsumed) FROM meterdata WHERE ts>='%s 01:00:00' AND ts<'%s 07:00:00'`, day, day))
			}
			for _, sql := range queries {
				idx := mustExec(t, w, sql)
				if !strings.HasPrefix(idx.Stats.AccessPath, "dgfindex") {
					t.Fatalf("%q: access path %q, want dgfindex", sql, idx.Stats.AccessPath)
				}
				scan, err := w.ExecContext(context.Background(), sql, ExecOptions{DisableIndexes: true})
				if err != nil {
					t.Fatal(err)
				}
				if want, got := sortedExact(scan.Rows), sortedExact(idx.Rows); want != got {
					t.Errorf("%q: index path differs from scan\nscan:\n%s\nindex:\n%s", sql, want, got)
				}
			}
		})
	}
}

// TestDgfAppendFailureRemovesStaging: a load into an indexed table stages its
// rows as a file under the warehouse root before the index append reads
// them. An append that fails — here every time, on a stored GFU value that
// does not decode — must still remove that file: the WAL applier retries a
// failed apply under a new staging name each time, so a kept file would pile
// up once per retry.
func TestDgfAppendFailureRemovesStaging(t *testing.T) {
	w := testWarehouse(1 << 14)
	mustExec(t, w, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	row := storage.Row{storage.Int64(7), storage.Int64(2),
		storage.Time(time.Date(2012, 12, 3, 0, 0, 0, 0, time.UTC)), storage.Float64(1.5)}
	if err := w.LoadRowsByName("meterdata", []storage.Row{row}); err != nil {
		t.Fatal(err)
	}
	createDgf(t, w)
	tbl, _ := w.Table("meterdata")
	pairs := tbl.DgfKV.ScanPrefix("g/")
	if len(pairs) != 1 {
		t.Fatalf("index over one row holds %d GFU pairs, want 1", len(pairs))
	}
	tbl.DgfKV.Put(pairs[0].Key, []byte{0xff})
	for i := 0; i < 3; i++ {
		err := w.LoadRowsByName("meterdata", []storage.Row{row})
		if err == nil || !strings.Contains(err.Error(), "stored GFU") {
			t.Fatalf("load %d into the corrupt cell: %v, want a stored-GFU error", i, err)
		}
	}
	staged, err := w.FS.List("/warehouse/_staging")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range staged {
		t.Errorf("%s is left under _staging", f.Path)
	}
}
