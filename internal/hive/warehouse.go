package hive

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hiveindex"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Warehouse is the top of the stack: a catalog of tables in the model
// filesystem plus the cluster cost model every job runs under.
//
// A Warehouse is safe for concurrent use: DDL and LOAD statements are
// serialized as writers. A SELECT holds the read lock only while it plans;
// the plan names every file the query reads, and binding and the jobs run
// with no lock held. So a writer never waits for a scan, each query sees all
// of a load or none of it, and one whose planned files a DROP or a DGF build
// removes fails with a read error naming a file. Mutate tables only through
// Warehouse methods (HiveQL statements run through ExecContext); writing
// Table fields directly is not synchronized.
type Warehouse struct {
	FS      *dfs.FS
	Cluster *cluster.Config
	// Root is the warehouse directory ("/warehouse").
	Root string

	mu     sync.RWMutex
	tables map[string]*Table
	// versions counts mutations per table key. A dropped table keeps its
	// counter so that drop+recreate never repeats a version — cache keys
	// built from versions stay unique across the table's whole history.
	versions map[string]uint64
}

// Table is one catalog entry.
type Table struct {
	Name   string
	Schema *storage.Schema
	Format hiveindex.Format
	// Dir holds the data files. Building a DGFIndex reorganises the data
	// and repoints Dir at the reorganised directory (the paper's build job
	// rewrites the base table; each table can have only one DGFIndex).
	Dir string
	// RowGroupRows sizes RCFile row groups.
	RowGroupRows int
	// DisableEncoding forces plain-text row groups (no dictionary/RLE column
	// encoding); benchmarks use it to measure the unencoded baseline.
	DisableEncoding bool
	// PartitionBy names the partitioning column; data files then live under
	// one "<col>=<value>" directory per distinct value (Hive partitioning,
	// the paper's Section 2.2 "coarse-grained index"). Empty means
	// unpartitioned.
	PartitionBy string

	// Dgf is the table's DGFIndex, if any.
	Dgf *dgf.Index
	// DgfKV is the key-value store backing Dgf.
	DgfKV *kvstore.Store
	// HiveIndexes are the Compact/Aggregate/Bitmap indexes by name.
	HiveIndexes map[string]*hiveindex.Index

	// fileSeq numbers data files; every load advances it. indexedAt holds it
	// as each Hive index was built: loads do not maintain those, so the
	// planner uses one only while fileSeq has not moved (fresh-index rule).
	fileSeq   int
	indexedAt map[string]int
}

// NewWarehouse creates an empty warehouse rooted at root ("/warehouse" when
// empty).
func NewWarehouse(fs *dfs.FS, cfg *cluster.Config, root string) *Warehouse {
	if root == "" {
		root = "/warehouse"
	}
	return &Warehouse{
		FS: fs, Cluster: cfg, Root: root,
		tables:   map[string]*Table{},
		versions: map[string]uint64{},
	}
}

// bumpLocked records a mutation of the named table. Caller holds w.mu.
func (w *Warehouse) bumpLocked(key string) {
	w.versions[key]++
}

// TableVersions snapshots the mutation counters of the named tables in one
// consistent read (result cache keys combine several tables' versions). A
// table never touched reads 0, and a counter survives DROP, so a recreated
// table never reuses a version.
func (w *Warehouse) TableVersions(names ...string) map[string]uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		out[strings.ToLower(n)] = w.versions[strings.ToLower(n)]
	}
	return out
}

// ColumnInfo is one schema column rendered with its HiveQL type name.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// TableInfo is a read-only snapshot of one catalog entry, safe to use
// without holding the warehouse lock.
type TableInfo struct {
	Name        string       `json:"name"`
	Columns     []ColumnInfo `json:"columns"`
	Format      string       `json:"format"`
	PartitionBy string       `json:"partition_by,omitempty"`
	HasDgfIndex bool         `json:"has_dgf_index"`
	// DgfIndexBytes and DgfEntries are the DGFIndex's size (GFU keys and
	// values, Tables 2/5's "Size") and pair count, from its running totals.
	DgfIndexBytes int64    `json:"dgf_index_bytes,omitempty"`
	DgfEntries    int64    `json:"dgf_entries,omitempty"`
	HiveIndexes   []string `json:"hive_indexes,omitempty"`
	SizeBytes     int64    `json:"size_bytes"`
	Version       uint64   `json:"version"`
}

// TableInfos snapshots the whole catalog in one consistent read, sorted by
// table name.
func (w *Warehouse) TableInfos() []TableInfo {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]TableInfo, 0, len(w.tables))
	for key, t := range w.tables {
		cols := make([]ColumnInfo, len(t.Schema.Cols))
		for i, c := range t.Schema.Cols {
			cols[i] = ColumnInfo{Name: c.Name, Type: c.Kind.String()}
		}
		info := TableInfo{
			Name:        t.Name,
			Columns:     cols,
			Format:      t.Format.String(),
			PartitionBy: t.PartitionBy,
			HasDgfIndex: t.Dgf != nil,
			Version:     w.versions[key],
		}
		_, info.SizeBytes, _ = w.tableFilesLocked(t)
		if t.Dgf != nil {
			info.DgfIndexBytes, info.DgfEntries = t.Dgf.SizeBytes(), int64(t.Dgf.Entries())
		}
		for name := range t.HiveIndexes {
			info.HiveIndexes = append(info.HiveIndexes, name)
		}
		sort.Strings(info.HiveIndexes)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (w *Warehouse) createTableLocked(name string, schema *storage.Schema, format hiveindex.Format) (*Table, error) {
	key := strings.ToLower(name)
	if _, ok := w.tables[key]; ok {
		return nil, fmt.Errorf("hive: table %q already exists", name)
	}
	// A re-created table gets a directory of its own: a query planned
	// against the dropped one may still be reading that one's files by path.
	dir := path.Join(w.Root, key)
	if v := w.versions[key]; v > 0 {
		dir += "." + strconv.FormatUint(v, 10)
	}
	t := &Table{
		Name:         name,
		Schema:       schema,
		Format:       format,
		Dir:          dir,
		RowGroupRows: storage.DefaultRowGroupRows,
		HiveIndexes:  map[string]*hiveindex.Index{},
		indexedAt:    map[string]int{},
	}
	if err := w.FS.MkdirAll(t.Dir); err != nil {
		return nil, err
	}
	w.tables[key] = t
	w.bumpLocked(key)
	return t, nil
}

// Table looks a table up by name (case-insensitive, like HiveQL).
func (w *Warehouse) Table(name string) (*Table, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.tableLocked(name)
}

func (w *Warehouse) tableLocked(name string) (*Table, error) {
	t, ok := w.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("hive: table %q does not exist", name)
	}
	return t, nil
}

func (w *Warehouse) dropTableLocked(name string) error {
	key := strings.ToLower(name)
	t, ok := w.tables[key]
	if !ok {
		return fmt.Errorf("hive: table %q does not exist", name)
	}
	delete(w.tables, key)
	w.bumpLocked(key)
	for _, ix := range t.HiveIndexes {
		w.FS.RemoveAll(ix.IndexDir)
	}
	return w.FS.RemoveAll(t.Dir)
}

func (w *Warehouse) tableNamesLocked() []string {
	names := make([]string, 0, len(w.tables))
	for _, t := range w.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// LoadRowsByName appends rows to the named table as one new data file. When
// the table has a DGFIndex, the rows are first staged and then run through
// the index's append pipeline so that the reorganised layout and the GFU
// pairs stay consistent (the data-load flow of Section 4.2). Partitioned
// tables route each row into its partition's directory. The table is
// resolved and loaded under one write-lock acquisition, so the load can never
// interleave with a concurrent DROP or CREATE of the same table. Rows are
// checked (storage.CheckRows) before anything moves: a refused load leaves
// the table's files, version and indexes as they were. A load that fails
// writing removes every file it created.
func (w *Warehouse) LoadRowsByName(name string, rows []storage.Row) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, err := w.tableLocked(name)
	if err != nil {
		return err
	}
	return w.loadRowsLocked(t, rows)
}

func (w *Warehouse) loadRowsLocked(t *Table, rows []storage.Row) error {
	if len(rows) == 0 {
		return nil
	}
	if err := storage.CheckRows(t.Schema, rows); err != nil {
		return fmt.Errorf("hive: load into %q: %w", t.Name, err)
	}
	files, err := w.loadFilesLocked(t, rows)
	if err != nil {
		return err
	}
	w.bumpLocked(strings.ToLower(t.Name))
	t.fileSeq += len(files)
	// An indexed table's load stages its rows as text for the index append.
	rc := t.Format == hiveindex.RCFile && t.Dgf == nil
	for _, f := range files {
		var err error
		if rc {
			_, err = storage.WriteRCRowsOpts(w.FS, f.path, t.Schema, f.rows, t.RowGroupRows,
				storage.RCWriteOptions{DisableEncoding: t.DisableEncoding})
		} else {
			err = storage.WriteTextRows(w.FS, f.path, f.rows)
		}
		if err != nil {
			w.removeLoadLocked(t, files, rc)
			return err
		}
	}
	if t.Dgf == nil {
		return nil
	}
	staging := files[0].path
	_, err = t.Dgf.Append(w.Cluster, []string{staging})
	// The staging file goes whatever happened: a failed apply is retried
	// under a new sequence number, so a kept file would pile up once per
	// retry under the warehouse root.
	if rmErr := w.FS.RemoveAll(staging); err == nil {
		err = rmErr
	}
	return err
}

// loadFile is one file a load writes, and the rows it holds.
type loadFile struct {
	path string
	rows []storage.Row
}

// loadFilesLocked names the files a load of rows into t writes, numbered
// from t.fileSeq: one data file, a staging file for a DGF-indexed table's
// append, or one data file per touched partition in the partitions' sorted
// order — so every run gives a partition the same file.
func (w *Warehouse) loadFilesLocked(t *Table, rows []storage.Row) ([]loadFile, error) {
	switch {
	case t.PartitionBy != "":
		ci := t.Schema.ColIndex(t.PartitionBy)
		if ci < 0 {
			return nil, fmt.Errorf("hive: partition column %q not in schema of %q", t.PartitionBy, t.Name)
		}
		byPart := map[string][]storage.Row{}
		for _, r := range rows {
			val := r[ci].String() // the load's check refused a short row
			byPart[val] = append(byPart[val], r)
		}
		vals := make([]string, 0, len(byPart))
		for val := range byPart {
			vals = append(vals, val)
		}
		sort.Strings(vals)
		files := make([]loadFile, len(vals))
		for i, val := range vals {
			files[i] = loadFile{
				path: path.Join(t.Dir, t.PartitionBy+"="+val, fmt.Sprintf("part-%05d", t.fileSeq+i)),
				rows: byPart[val],
			}
		}
		return files, nil
	case t.Dgf != nil:
		return []loadFile{{path: path.Join(w.Root, "_staging", fmt.Sprintf("%s-%d", strings.ToLower(t.Name), t.fileSeq)), rows: rows}}, nil
	default:
		return []loadFile{{path: path.Join(t.Dir, fmt.Sprintf("part-%05d", t.fileSeq)), rows: rows}}, nil
	}
}

// removeLoadLocked deletes the files a failed load may have created — names
// at sequence numbers no earlier load used, and for RCFile their `_colstats`
// side files — and a partition directory that leaves empty: it would still
// count as a partition.
func (w *Warehouse) removeLoadLocked(t *Table, files []loadFile, rc bool) {
	for _, f := range files {
		w.FS.RemoveAll(f.path)
		if rc {
			w.FS.RemoveAll(storage.ColStatsPath(f.path))
		}
		for dir := path.Dir(f.path); t.PartitionBy != "" && dir != t.Dir; dir = path.Dir(dir) {
			if fis, err := w.FS.List(dir); err != nil || len(fis) > 0 {
				break
			}
			w.FS.RemoveAll(dir)
		}
	}
}

// partitionsLocked lists the table's partition values, sorted. Caller holds
// w.mu (either mode).
func (w *Warehouse) partitionsLocked(t *Table) ([]string, error) {
	if t.PartitionBy == "" {
		return nil, fmt.Errorf("hive: table %q is not partitioned", t.Name)
	}
	entries, err := w.FS.List(t.Dir)
	if err != nil {
		return nil, err
	}
	prefix := t.PartitionBy + "="
	var out []string
	for _, e := range entries {
		if e.IsDir && strings.HasPrefix(e.Name, prefix) {
			out = append(out, strings.TrimPrefix(e.Name, prefix))
		}
	}
	sort.Strings(out)
	return out, nil
}

// partitionFilesLocked returns the data files of the partitions whose value
// satisfies keep (nil keeps all), plus how many partitions were kept of how
// many. Caller holds w.mu (either mode).
func (w *Warehouse) partitionFilesLocked(t *Table, keep func(storage.Value) bool) (files []dfs.FileInfo, kept, total int, err error) {
	vals, err := w.partitionsLocked(t)
	if err != nil {
		return nil, 0, 0, err
	}
	ci := t.Schema.ColIndex(t.PartitionBy)
	kind := t.Schema.Col(ci).Kind
	for _, raw := range vals {
		total++
		v, perr := storage.ParseValue(kind, raw)
		if perr != nil {
			v = storage.Str(raw)
		}
		if keep != nil && !keep(v) {
			continue
		}
		kept++
		fis, lerr := w.FS.ListFiles(path.Join(t.Dir, t.PartitionBy+"="+raw))
		if lerr != nil {
			return nil, 0, 0, lerr
		}
		files = append(files, fis...)
	}
	return files, kept, total, nil
}

// TableSizeBytes returns the total data size of the table.
func (w *Warehouse) TableSizeBytes(t *Table) int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, size, _ := w.tableFilesLocked(t)
	return size
}

// tableFilesLocked lists every data file of the table, across all its
// partitions, and their total size as the model charges it
// (storage.DataSize). Caller holds w.mu (either mode).
func (w *Warehouse) tableFilesLocked(t *Table) (files []dfs.FileInfo, size int64, err error) {
	if t.PartitionBy != "" {
		files, _, _, err = w.partitionFilesLocked(t, nil)
	} else {
		files, err = w.FS.ListFiles(t.Dir)
	}
	for _, f := range files {
		n, serr := storage.DataSize(w.FS, f.Path, t.Format)
		if serr != nil {
			return files, size, serr
		}
		size += n
	}
	return files, size, err
}

// BuildDgfIndex builds the table's DGFIndex from a spec, reorganising the
// table data (Listing 3 ends up here).
func (w *Warehouse) BuildDgfIndex(t *Table, spec dgf.Spec) (*dgf.BuildStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buildDgfIndexLocked(t, spec)
}

func (w *Warehouse) buildDgfIndexLocked(t *Table, spec dgf.Spec) (*dgf.BuildStats, error) {
	if t.Dgf != nil {
		return nil, fmt.Errorf("hive: table %q already has a DGFIndex (each table can create only one)", t.Name)
	}
	if t.PartitionBy != "" {
		return nil, fmt.Errorf("hive: table %q is partitioned; the experiments assume unpartitioned tables (paper Section 5.2: \"we suppose that there is no partitions\")", t.Name)
	}
	// The paper restricts builds to TextFile tables (Section 5.3.1); the
	// segment abstraction lifts that: an RCFile table's index records
	// row-group-granular slices and its reads push column projections down.
	kv := kvstore.New()
	dataDir := t.Dir + "_dgf"
	src := dgf.Source{Dir: t.Dir, Format: t.Format, GroupRows: t.RowGroupRows}
	ix, stats, err := dgf.Build(w.Cluster, w.FS, kv, spec, t.Schema, src, dataDir)
	if err != nil {
		return nil, err
	}
	t.Dgf = ix
	t.DgfKV = kv
	// The reorganised data replaces the original table layout.
	oldDir := t.Dir
	t.Dir = dataDir
	w.bumpLocked(strings.ToLower(t.Name))
	if err := w.FS.RemoveAll(oldDir); err != nil {
		return nil, err
	}
	return stats, nil
}

// BuildHiveIndexStats builds a Compact/Aggregate/Bitmap index on the table
// and returns the build job's simulated seconds (Table 2 and Table 5 report
// construction times). Indexing partitioned tables (the per-partition
// indexes Section 6 calls "the best way to improve Hive performance") is not
// implemented; combine partitioning with an index by indexing an
// unpartitioned copy.
func (w *Warehouse) BuildHiveIndexStats(t *Table, name string, kind hiveindex.Kind, cols []string, indexFormat hiveindex.Format) (*hiveindex.Index, float64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buildHiveIndexStatsLocked(t, name, kind, cols, indexFormat)
}

func (w *Warehouse) buildHiveIndexStatsLocked(t *Table, name string, kind hiveindex.Kind, cols []string, indexFormat hiveindex.Format) (*hiveindex.Index, float64, error) {
	if t.PartitionBy != "" {
		return nil, 0, fmt.Errorf("hive: cannot index partitioned table %q", t.Name)
	}
	if _, ok := t.HiveIndexes[strings.ToLower(name)]; ok {
		return nil, 0, fmt.Errorf("hive: index %q already exists on %q", name, t.Name)
	}
	ix, stats, err := hiveindex.Build(w.Cluster, w.FS, hiveindex.Options{
		Name: name, Kind: kind,
		BaseDir: t.Dir, BaseFormat: t.Format,
		Schema: t.Schema, Cols: cols,
		// Named after the table's own directory (less a DGF build's
		// suffix), so a re-created table's indexes get directories of their own.
		IndexDir:        path.Join(w.Root, "_idx_"+strings.TrimSuffix(path.Base(t.Dir), "_dgf")+"_"+strings.ToLower(name)),
		IndexFormat:     indexFormat,
		RowGroupRows:    t.RowGroupRows,
		DisableEncoding: t.DisableEncoding,
	})
	if err != nil {
		return nil, 0, err
	}
	t.HiveIndexes[strings.ToLower(name)] = ix
	t.indexedAt[strings.ToLower(name)] = t.fileSeq
	w.bumpLocked(strings.ToLower(t.Name))
	return ix, stats.SimTotalSec(), nil
}
