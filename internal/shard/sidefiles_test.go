package shard

import (
	"path"
	"slices"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// TestRCFileHasOneSideFile: every path that writes an RCFile — a plain
// load, a partitioned load, a DGF build and append, and RCFile Compact, Bitmap and
// Aggregate index tables — leaves each data file exactly one side file,
// "_colstats/<base>", which locates its row groups, and no other side
// directory anywhere under the warehouse root.
func TestRCFileHasOneSideFile(t *testing.T) {
	r, err := New(Config{Shards: 2, Replicas: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	cfg := testMeterConfig()
	const cols = `(userId bigint, regionId bigint, ts timestamp, powerConsumed double)`
	mustExec(t, r, `CREATE TABLE meterdata `+cols+` STORED AS RCFILE`)
	mustExec(t, r, `CREATE TABLE byregion `+cols+` PARTITIONED BY (regionId) STORED AS RCFILE`)
	mustExec(t, r, `CREATE TABLE indexed `+cols+` STORED AS RCFILE`)
	for _, table := range []string{"meterdata", "byregion", "indexed"} {
		if err := loadRows(r, table, cfg.AllRows()); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, r, meterIndexSQL)
	if err := loadRows(r, "meterdata", lateReadings(cfg.Days+1)); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"compact", "bitmap", "aggregate"} {
		mustExec(t, r, `CREATE INDEX `+kind+` ON TABLE indexed(regionId, ts) AS '`+kind+`' IDXPROPERTIES ('format'='rcfile')`)
	}

	for s := 0; s < 2; s++ {
		dataFiles := checkOneSideFile(t, r.Shard(s).FS, "/")
		for _, dir := range []string{"/warehouse/indexed/", "/warehouse/byregion/regionId=", "/warehouse/meterdata_dgf/",
			"/warehouse/_idx_indexed_compact/", "/warehouse/_idx_indexed_bitmap/", "/warehouse/_idx_indexed_aggregate/"} {
			if !slices.ContainsFunc(dataFiles, func(p string) bool { return strings.HasPrefix(p, dir) }) {
				t.Errorf("shard %d: no data file under %s*", s, dir)
			}
		}
	}
}

// checkOneSideFile walks fs from dir and requires every regular file outside
// a "_colstats" directory to have "_colstats/<base>" beside it, which
// ReadGroups accepts; every "_colstats" file to belong to such a file; and
// no other side directory to exist. It returns the data files.
func checkOneSideFile(t *testing.T, fs *dfs.FS, dir string) []string {
	t.Helper()
	entries, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dataFiles []string
	data := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir {
			data[e.Name] = true
			dataFiles = append(dataFiles, e.Path)
			if _, _, err := storage.ReadGroups(fs, e.Path); err != nil {
				t.Errorf("%s: %v", e.Path, err)
			}
		}
	}
	for _, e := range entries {
		switch {
		case !e.IsDir:
		case e.Name == "_colstats":
			side, err := fs.List(e.Path)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range side {
				if f.IsDir || !data[f.Name] {
					t.Errorf("%s belongs to no data file", f.Path)
				}
				delete(data, f.Name)
			}
		case e.Name == "_groups":
			t.Errorf("%s exists", e.Path)
		default:
			dataFiles = append(dataFiles, checkOneSideFile(t, fs, e.Path)...)
		}
	}
	for name := range data {
		t.Errorf("%s has no column statistics", path.Join(dir, name))
	}
	return dataFiles
}
