package hive

import (
	"context"
	"strings"
	"testing"
)

func TestPartitionedTableDDL(t *testing.T) {
	w := testWarehouse(1 << 16)
	res := mustExec(t, w, `CREATE TABLE pm (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double) PARTITIONED BY (regionId)`)
	if !strings.Contains(res.Message, "partitioned by regionId") {
		t.Errorf("message = %q", res.Message)
	}
	if _, err := w.ExecContext(context.Background(), `CREATE TABLE bad (x bigint) PARTITIONED BY (ghost)`, ExecOptions{}); err == nil {
		t.Error("unknown partition column accepted")
	}
}

func TestPartitionedLoadAndLayout(t *testing.T) {
	w := testWarehouse(1 << 16)
	mustExec(t, w, `CREATE TABLE pm (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double) PARTITIONED BY (regionId)`)
	tbl, _ := w.Table("pm")
	rows := meterRows(40, 4, 3)
	if err := w.LoadRowsByName("pm", rows); err != nil {
		t.Fatal(err)
	}
	w.mu.RLock()
	parts, err := w.partitionsLocked(tbl)
	w.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("partitions = %v, want 4 regions", parts)
	}
	// Each partition directory holds only its region's rows.
	if got := w.TableSizeBytes(tbl); got <= 0 {
		t.Errorf("TableSizeBytes = %d", got)
	}
	// NameNode metadata grew by one directory per partition.
	st := w.FS.NameNodeUsage()
	if st.Dirs < 5 {
		t.Errorf("directories = %d, want at least table+4 partitions", st.Dirs)
	}
}

func TestPartitionPruning(t *testing.T) {
	w := testWarehouse(1 << 14)
	mustExec(t, w, `CREATE TABLE pm (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double) PARTITIONED BY (regionId)`)
	rows := meterRows(60, 6, 4)
	if err := w.LoadRowsByName("pm", rows); err != nil {
		t.Fatal(err)
	}
	// Query constrained to two of six regions must prune the rest.
	res := mustExec(t, w, `SELECT count(*) FROM pm WHERE regionId>=2 AND regionId<=3`)
	if res.Stats.AccessPath != "scan(partitions 2/6)" {
		t.Errorf("access path = %q", res.Stats.AccessPath)
	}
	want := 0
	for _, r := range rows {
		if r[1].I >= 2 && r[1].I <= 3 {
			want++
		}
	}
	if int(res.Rows[0][0].F) != want {
		t.Errorf("count = %v, want %d", res.Rows[0][0].F, want)
	}
	// The pruned scan reads only the kept partitions' records.
	if res.Stats.RecordsRead != int64(want) {
		t.Errorf("records read = %d, want %d (only kept partitions)", res.Stats.RecordsRead, want)
	}
	// Unconstrained queries read everything.
	all := mustExec(t, w, `SELECT count(*) FROM pm`)
	if all.Stats.AccessPath != "scan(partitions 6/6)" {
		t.Errorf("unpruned path = %q", all.Stats.AccessPath)
	}
	if int(all.Rows[0][0].F) != len(rows) {
		t.Errorf("full count = %v", all.Rows[0][0].F)
	}
}

func TestPartitionedRCFile(t *testing.T) {
	w := testWarehouse(1 << 14)
	mustExec(t, w, `CREATE TABLE pm (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double) PARTITIONED BY (regionId) STORED AS RCFILE`)
	tbl, _ := w.Table("pm")
	tbl.RowGroupRows = 16
	rows := meterRows(30, 3, 4)
	if err := w.LoadRowsByName("pm", rows); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, w, `SELECT count(*) FROM pm WHERE regionId=1`)
	want := 0
	for _, r := range rows {
		if r[1].I == 1 {
			want++
		}
	}
	if int(res.Rows[0][0].F) != want {
		t.Errorf("count = %v, want %d", res.Rows[0][0].F, want)
	}
	if !strings.HasPrefix(res.Stats.AccessPath, "scan(partitions 1/") {
		t.Errorf("access path = %q", res.Stats.AccessPath)
	}
}

func TestIndexesRejectPartitionedTables(t *testing.T) {
	w := testWarehouse(1 << 16)
	mustExec(t, w, `CREATE TABLE pm (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double) PARTITIONED BY (regionId)`)
	if _, err := w.ExecContext(context.Background(), `CREATE INDEX i ON TABLE pm(userId) AS 'dgf' IDXPROPERTIES ('userId'='1_10')`, ExecOptions{}); err == nil {
		t.Error("DGFIndex on partitioned table accepted")
	}
	if _, err := w.ExecContext(context.Background(), `CREATE INDEX i2 ON TABLE pm(userId) AS 'compact'`, ExecOptions{}); err == nil {
		t.Error("Compact index on partitioned table accepted")
	}
}

func TestPartitionsOnUnpartitionedTable(t *testing.T) {
	w := testWarehouse(1 << 16)
	mustExec(t, w, `CREATE TABLE plain (x bigint)`)
	tbl, _ := w.Table("plain")
	w.mu.RLock()
	defer w.mu.RUnlock()
	if _, err := w.partitionsLocked(tbl); err == nil {
		t.Error("partitionsLocked on unpartitioned table succeeded")
	}
}
