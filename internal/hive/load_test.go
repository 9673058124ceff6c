package hive

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// fsTree reads every file under root, keyed by path.
func fsTree(t *testing.T, fs *dfs.FS, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := fs.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir {
				walk(e.Path)
				continue
			}
			data, err := fs.ReadFile(e.Path)
			if err != nil {
				t.Fatal(err)
			}
			files[e.Path] = data
		}
	}
	walk(root)
	return files
}

// diffTrees describes how two file trees differ, or returns "" when they hold
// the same paths with the same bytes.
func diffTrees(a, b map[string][]byte) string {
	var out []string
	for p, data := range a {
		if other, ok := b[p]; !ok {
			out = append(out, "only in the first: "+p)
		} else if !bytes.Equal(data, other) {
			out = append(out, "bytes differ: "+p)
		}
	}
	for p := range b {
		if _, ok := a[p]; !ok {
			out = append(out, "only in the second: "+p)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

const meterColumns = `(userId bigint, regionId bigint, ts timestamp, powerConsumed double)`

// TestPartitionedLoadNamesFilesDeterministically: a load that touches eight
// partitions writes them in sorted value order, so six fresh warehouses
// loading the same batch end with the same file names and bytes. (Ranging
// over a map once gave each run its own assignment of part-NNNNN to
// partitions.)
func TestPartitionedLoadNamesFilesDeterministically(t *testing.T) {
	rows := meterRows(64, 8, 2)
	var first map[string][]byte
	for i := 0; i < 6; i++ {
		w := testWarehouse(1 << 14)
		mustExec(t, w, `CREATE TABLE pm `+meterColumns+` PARTITIONED BY (regionId) STORED AS RCFILE`)
		for _, batch := range [][]storage.Row{rows[:64], rows[64:]} {
			if err := w.LoadRowsByName("pm", batch); err != nil {
				t.Fatal(err)
			}
		}
		tree := fsTree(t, w.FS, "/warehouse")
		if i == 0 {
			first = tree
			if _, ok := tree["/warehouse/pm/regionId=1/part-00000"]; !ok {
				t.Fatalf("the first batch's first file is not the lowest partition's: %v", tree)
			}
			continue
		}
		if d := diffTrees(first, tree); d != "" {
			t.Fatalf("warehouse %d's files differ from the first's:\n%s", i, d)
		}
	}
}

// tableAnswers renders what a table answers: every row, an aggregate, a
// GROUP BY, and each statement's access path (a partitioned table's names
// the partitions it kept of how many).
func tableAnswers(t *testing.T, w *Warehouse, table string) string {
	t.Helper()
	var out []string
	for _, q := range []string{
		`SELECT * FROM ` + table,
		`SELECT count(*), sum(powerConsumed) FROM ` + table,
		`SELECT regionId, count(*), max(ts) FROM ` + table + ` WHERE regionId>=2 GROUP BY regionId`,
	} {
		res := mustExec(t, w, q)
		out = append(out, q, res.Stats.AccessPath, renderExact(res.Rows))
	}
	return strings.Join(out, "\n")
}

// TestLoadRejectedLeavesTableAsBefore: a load holding one row the table's
// files cannot carry — an empty row, a row short of a column after more
// than one full row group, a timestamp past the year 9999 — is refused
// before anything moves, so a TEXTFILE, an RCFILE and a partitioned table
// answer exactly as they did before it and hold the same files, and an
// indexed table still answers through its Compact index. (The text writer
// used to write the empty row and fail every later read; the RCFile writer
// left a data file without its column statistics; a partitioned load kept
// the partitions it wrote before the bad row; a refused load retired every
// Compact, Aggregate and Bitmap index of its table, so later queries
// scanned.)
func TestLoadRejectedLeavesTableAsBefore(t *testing.T) {
	good := meterRows(40, 4, 80) // 3,200 rows: three full RCFile row groups
	bad := map[string]storage.Row{
		"empty row":      {},
		"short row":      good[0][:3],
		"year past 9999": {storage.Int64(1), storage.Int64(2), storage.TimeUnix(1 << 40), storage.Float64(1)},
	}
	for _, tc := range []struct{ ddl, index string }{
		{ddl: `CREATE TABLE t ` + meterColumns},
		{ddl: `CREATE TABLE t ` + meterColumns + ` STORED AS RCFILE`},
		{ddl: `CREATE TABLE t ` + meterColumns + ` PARTITIONED BY (regionId) STORED AS RCFILE`},
		{ddl: `CREATE TABLE t ` + meterColumns, index: `CREATE INDEX c ON TABLE t(regionId) AS 'compact'`},
	} {
		ddl := tc.ddl + " " + tc.index
		w := testWarehouse(1 << 14)
		mustExec(t, w, tc.ddl)
		if err := w.LoadRowsByName("t", good[:100]); err != nil {
			t.Fatal(err)
		}
		if tc.index != "" {
			mustExec(t, w, tc.index)
		}
		before, files := tableAnswers(t, w, "t"), fsTree(t, w.FS, "/warehouse")
		if tc.index != "" && !strings.Contains(before, "index:c") {
			t.Fatalf("%s: no query answers through the index:\n%s", ddl, before)
		}
		for name, row := range bad {
			rows := append(append([]storage.Row(nil), good...), row)
			err := w.LoadRowsByName("t", rows)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("row %d", len(good))) {
				t.Fatalf("%s: load with a %s: %v, want the row refused by position", ddl, name, err)
			}
			if got := tableAnswers(t, w, "t"); got != before {
				t.Errorf("%s: after a load with a %s the table answers\n%s\nwant\n%s", ddl, name, got, before)
			}
			if d := diffTrees(files, fsTree(t, w.FS, "/warehouse")); d != "" {
				t.Errorf("%s: a load with a %s changed the files:\n%s", ddl, name, d)
			}
		}
	}
}

// TestLoadRejectsGroupKeySeparatorDirect: a multi-column GROUP BY key joins
// its cells' text with \x01 and splits it back, so a string cell holding that
// byte answers wrong: ("a\x01b", 1) and ("a\x01c", 2) came back from a GROUP
// BY k as ("a", 1) and ("a", 2). A direct load refuses such a cell, as the
// fleet's load path does, and leaves the table as it was.
func TestLoadRejectsGroupKeySeparatorDirect(t *testing.T) {
	w := testWarehouse(1 << 12)
	mustExec(t, w, `CREATE TABLE t (k string, v bigint)`)
	rows := []storage.Row{
		{storage.Str("a\x01b"), storage.Int64(1)},
		{storage.Str("a\x01c"), storage.Int64(2)},
	}
	err := w.LoadRowsByName("t", rows)
	if err == nil || !strings.Contains(err.Error(), "row 0") || !strings.Contains(err.Error(), "group-key separator") {
		t.Fatalf("load of a \\x01 cell: %v, want row 0 refused for the group-key separator", err)
	}
	if got := mustExec(t, w, `SELECT k, sum(v) FROM t GROUP BY k`).Rows; len(got) != 0 {
		t.Errorf("after the refused load GROUP BY k answers %v, want no groups", got)
	}
}

// TestInsertOverwriteDirectoryRefusesWarehouse: the sink replaces its
// directory's files, so a directory that is the warehouse root, lies inside
// it or holds it is refused before the query runs, and every table keeps its
// files and answers. ('/warehouse/m' used to swap table m's data for the
// query's output; '/warehouse' and '/' deleted every table's files.) A
// directory outside the warehouse still receives the rows.
func TestInsertOverwriteDirectoryRefusesWarehouse(t *testing.T) {
	w := testWarehouse(1 << 14)
	mustExec(t, w, `CREATE TABLE m `+meterColumns)
	if err := w.LoadRowsByName("m", meterRows(20, 4, 5)); err != nil {
		t.Fatal(err)
	}
	before, files := tableAnswers(t, w, "m"), fsTree(t, w.FS, "/")
	for _, dir := range []string{"/warehouse/m", "/warehouse", "/", "warehouse/m", "/warehouse/../warehouse/x"} {
		_, err := w.ExecContext(context.Background(), `INSERT OVERWRITE DIRECTORY '`+dir+`' SELECT userId FROM m`, ExecOptions{})
		if err == nil || !strings.Contains(err.Error(), "overlaps the warehouse") {
			t.Errorf("INSERT OVERWRITE DIRECTORY %q: %v, want it refused", dir, err)
		}
		if d := diffTrees(files, fsTree(t, w.FS, "/")); d != "" {
			t.Fatalf("INSERT OVERWRITE DIRECTORY %q changed the files:\n%s", dir, d)
		}
		if got := tableAnswers(t, w, "m"); got != before {
			t.Fatalf("after INSERT OVERWRITE DIRECTORY %q the table answers\n%s\nwant\n%s", dir, got, before)
		}
	}
	res := mustExec(t, w, `INSERT OVERWRITE DIRECTORY '/tmp/result' SELECT userId FROM m`)
	if data, err := w.FS.ReadFile("/tmp/result/000000_0"); err != nil || len(res.Rows) != 100 || len(data) == 0 {
		t.Fatalf("sink outside the warehouse: %d rows, %d bytes written, %v", len(res.Rows), len(data), err)
	}
}
