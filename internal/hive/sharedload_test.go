package hive

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
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
// before any file is created, so a TEXTFILE, an RCFILE and a partitioned
// table answer exactly as they did before it and hold the same files. (The
// text writer used to write the empty row and fail every later read; the
// RCFile writer left a data file without its column statistics; a
// partitioned load kept the partitions it wrote before the bad row.)
func TestLoadRejectedLeavesTableAsBefore(t *testing.T) {
	good := meterRows(40, 4, 80) // 3,200 rows: three full RCFile row groups
	bad := map[string]storage.Row{
		"empty row":      {},
		"short row":      good[0][:3],
		"year past 9999": {storage.Int64(1), storage.Int64(2), storage.TimeUnix(1 << 40), storage.Float64(1)},
	}
	for _, ddl := range []string{
		`CREATE TABLE t ` + meterColumns,
		`CREATE TABLE t ` + meterColumns + ` STORED AS RCFILE`,
		`CREATE TABLE t ` + meterColumns + ` PARTITIONED BY (regionId) STORED AS RCFILE`,
	} {
		w := testWarehouse(1 << 14)
		mustExec(t, w, ddl)
		if err := w.LoadRowsByName("t", good[:100]); err != nil {
			t.Fatal(err)
		}
		before, files := tableAnswers(t, w, "t"), fsTree(t, w.FS, "/warehouse")
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

// replicaPair is two warehouses sharing one record of jobs, as a shard's two
// replicas do, each with table t created by ddl.
func replicaPair(t *testing.T, ddl string) ([2]*Warehouse, []*dgf.SharedJobs) {
	t.Helper()
	jobs := dgf.NewSharedJobs(2, nil)
	var ws [2]*Warehouse
	for i := range ws {
		ws[i] = testWarehouse(1 << 14)
		ws[i].DgfJobs = jobs[i]
		mustExec(t, ws[i], ddl)
	}
	return ws, jobs
}

// checkLoads requires the record to count written loads and installed ones
// and to hold none.
func checkLoads(t *testing.T, jobs *dgf.SharedJobs, wantWritten, wantInstalled int) {
	t.Helper()
	if written, installed := jobs.LoadCounts(); written != wantWritten || installed != wantInstalled {
		t.Errorf("%d loads written and %d installed, want %d and %d", written, installed, wantWritten, wantInstalled)
	}
	if held := jobs.HeldLoads(); held != 0 {
		t.Errorf("the record holds %d loads, want none", held)
	}
}

// TestReplicaSetLoadSiblingWithOtherRowsOrSettingsWritesItsOwn: a sibling
// installs its publisher's files only for the same rows into the same table
// settings: the same cells, shared or copied. With one cell's bits changed
// (−0 for +0), or a table whose row groups are sized otherwise, it writes its
// own file, which is what a warehouse without siblings writes.
func TestReplicaSetLoadSiblingWithOtherRowsOrSettingsWritesItsOwn(t *testing.T) {
	const ddl = `CREATE TABLE t ` + meterColumns + ` STORED AS RCFILE`
	rows := meterRows(40, 4, 30)
	rows[500][3] = storage.Float64(0)
	for _, tc := range []struct {
		name     string
		installs bool
		sibling  func(w *Warehouse) []storage.Row
	}{
		{"same", true, func(*Warehouse) []storage.Row { return rows }},
		{"same cells, own copy", true, func(*Warehouse) []storage.Row {
			own := make([]storage.Row, len(rows))
			for i, r := range rows {
				own[i] = append(storage.Row(nil), r...)
			}
			return own
		}},
		{"negative zero", false, func(*Warehouse) []storage.Row {
			own := append([]storage.Row(nil), rows...)
			own[500] = append(storage.Row(nil), own[500]...)
			own[500][3] = storage.Float64(math.Copysign(0, -1))
			return own
		}},
		{"row group size", false, func(w *Warehouse) []storage.Row {
			tbl, err := w.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			tbl.RowGroupRows = 100
			return rows
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, jobs := replicaPair(t, ddl)
			sibRows := tc.sibling(ws[1])
			ref := testWarehouse(1 << 14)
			mustExec(t, ref, ddl)
			refTbl, _ := ref.Table("t")
			sibTbl, _ := ws[1].Table("t")
			refTbl.RowGroupRows = sibTbl.RowGroupRows
			if err := ref.LoadRowsByName("t", sibRows); err != nil {
				t.Fatal(err)
			}
			if err := ws[0].LoadRowsByName("t", rows); err != nil {
				t.Fatal(err)
			}
			if err := ws[1].LoadRowsByName("t", sibRows); err != nil {
				t.Fatal(err)
			}
			if tc.installs {
				checkLoads(t, jobs[0], 1, 1)
			} else {
				checkLoads(t, jobs[0], 2, 0)
			}
			if d := diffTrees(fsTree(t, ref.FS, "/warehouse"), fsTree(t, ws[1].FS, "/warehouse")); d != "" {
				t.Errorf("the sibling's files differ from a warehouse's without siblings:\n%s", d)
			}
		})
	}
}

// TestReplicaSetLoadFailedPublisherLeavesSiblingsToWrite: the replica that
// applies a load first fails half-way — its data file is written, its column
// statistics cannot be — so it publishes nothing and removes the file it
// wrote; its sibling then writes its own files, as a warehouse without
// siblings does, and the record holds nothing.
func TestReplicaSetLoadFailedPublisherLeavesSiblingsToWrite(t *testing.T) {
	const ddl = `CREATE TABLE t ` + meterColumns + ` STORED AS RCFILE`
	rows := meterRows(40, 4, 30)
	ws, jobs := replicaPair(t, ddl)
	// A file where the column statistics directory goes.
	if err := ws[0].FS.WriteFile("/warehouse/t/_colstats", nil); err != nil {
		t.Fatal(err)
	}
	err := ws[0].LoadRowsByName("t", rows)
	if !errors.Is(err, dfs.ErrNotDir) {
		t.Fatalf("load on the publisher: %v, want %v", err, dfs.ErrNotDir)
	}
	if files := fsTree(t, ws[0].FS, "/warehouse"); len(files) != 1 {
		t.Errorf("the failed load left files behind: %v", files)
	}
	if err := ws[1].LoadRowsByName("t", rows); err != nil {
		t.Fatal(err)
	}
	checkLoads(t, jobs[0], 2, 0)
	ref := testWarehouse(1 << 14)
	mustExec(t, ref, ddl)
	if err := ref.LoadRowsByName("t", rows); err != nil {
		t.Fatal(err)
	}
	if d := diffTrees(fsTree(t, ref.FS, "/warehouse"), fsTree(t, ws[1].FS, "/warehouse")); d != "" {
		t.Errorf("the sibling's files differ from a warehouse's without siblings:\n%s", d)
	}
	if got, want := tableAnswers(t, ws[1], "t"), tableAnswers(t, ref, "t"); got != want {
		t.Errorf("the sibling answers\n%s\nwant\n%s", got, want)
	}
}
