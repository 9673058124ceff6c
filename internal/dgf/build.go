package dgf

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// BuildStats reports the construction cost of an index build or append.
type BuildStats struct {
	Job          mapreduce.Stats
	Entries      int   // GFU pairs written by this run
	IndexBytes   int64 // index size after the run
	KVSimSeconds float64
}

// SimTotalSec is the simulated construction time: the reorganisation job
// plus the key-value store writes.
func (b BuildStats) SimTotalSec() float64 { return b.Job.SimTotalSec() + b.KVSimSeconds }

// Source describes the base-table records an index build reads: their
// location and storage format, plus the row-group sizing the reorganised
// data inherits when the format is columnar. It is the abstract record
// source that keeps Build format-agnostic — the reorganised Slice files are
// written in the same format, so an index over an RCFile table records
// row-group-granular slices.
type Source struct {
	// Dir holds the table's data files.
	Dir string
	// Format is the storage format of both the input files and the
	// reorganised data (zero value: TextFile).
	Format storage.Format
	// GroupRows sizes the reorganised data's RCFile row groups (<= 0
	// selects storage.DefaultRowGroupRows). Ignored for TextFile.
	GroupRows int
}

// Build constructs a DGFIndex over the table described by src, reorganising
// its records into Slice files under dataDir (Algorithms 1 and 2 of the
// paper). It returns the opened index.
//
// The reorganisation is one MapReduce job: map standardises each record to
// its GFUKey and emits <GFUKey, record>; each reduce task writes its groups
// contiguously to one output file, accumulating the pre-computed header per
// group, and puts the <GFUKey, GFUValue> pair into the key-value store. The
// output files are written through the storage package's segment writers, so
// slice boundaries fall at line offsets for TextFile and at row-group
// boundaries for RCFile.
//
// Each stage does a record's text work once. Map computes the cell
// coordinates a dimension vector at a time from the column batch the reader
// decoded — for a TextFile source only those columns are parsed — and
// shuffles each row's text line as stored (ColumnBatch.Line: a TextFile's
// line, an RCFile group's cells) under its cell's key, found with one lookup
// by the coordinates; a map task renders and interns a GFUKey once per
// distinct cell it meets (buildMapper). Reduce parses each line once, from
// the shuffled bytes, into a row that feeds the header and, for RCFile, the
// row group's zone map; both writers store the line's text as it is — a
// TextFile index parses only the pre-compute factor fields. Each reduce
// task encodes its GFUValues back to back into one buffer, which the store
// copies.
func Build(cfg *cluster.Config, fs *dfs.FS, kv *kvstore.Store, spec Spec,
	schema *storage.Schema, src Source, dataDir string) (*Index, *BuildStats, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, nil, err
	}
	ix := &Index{
		FS:        fs,
		KV:        kv,
		Spec:      spec,
		Schema:    schema,
		DataDir:   dataDir,
		Format:    src.Format,
		GroupRows: src.GroupRows,
		minCell:   make([]int64, len(spec.Policy.Dims)),
		maxCell:   make([]int64, len(spec.Policy.Dims)),
	}
	if ix.Format == storage.RCFile && ix.GroupRows <= 0 {
		ix.GroupRows = storage.DefaultRowGroupRows
	}
	if err := ix.resolveColumns(); err != nil {
		return nil, nil, err
	}
	if err := fs.MkdirAll(dataDir); err != nil {
		return nil, nil, err
	}
	ix.recountGFUs() // pairs a previous index left in kv count, as they always did
	input := &mapreduce.FileInput{FS: fs, Dir: src.Dir, Format: src.Format, Schema: schema,
		Project: ix.readColumns(src.Format, ix.dimCols)}
	stats, err := ix.runBuildJob(cfg, input, true)
	if err != nil {
		return nil, nil, err
	}
	return ix, stats, nil
}

// Append extends the index with new data files (a new collection period).
// The paper makes the timestamp a default index dimension precisely so that
// appends only add new GFU pairs instead of rebuilding: "the time stamp
// dimension in DGFIndex is extended and the DGFIndex construction process is
// executed on these temporary files" (Section 4.2). The staged files are
// always TextFile (loads stage rows as text regardless of the table format);
// the reorganised output follows the index's format. An append costs O(batch):
// it reads back only the GFU pairs it merges into, and the returned IndexBytes
// is a running total rather than a scan of the store.
func (ix *Index) Append(cfg *cluster.Config, files []string) (*BuildStats, error) {
	return ix.runBuildJob(cfg, &mapreduce.FileInput{FS: ix.FS, Paths: files, Schema: ix.Schema,
		Project: ix.readColumns(storage.TextFile, ix.dimCols)}, false)
}

// readColumns is the projection a build job parses rows in the given format
// through. TextFile rows parse only the listed columns: a projection does not
// change the bytes a text reader fetches, and a row's line is the stored
// text. RCFile rows decode every column, so the bytes a reader fetches stay
// those of the whole row groups, a row's line holds every stored cell, and
// the reducer has the whole row whose zone map its writer keeps.
func (ix *Index) readColumns(format storage.Format, cols ...[]int) []bool {
	if format == storage.RCFile {
		return nil
	}
	project := make([]bool, ix.Schema.Len())
	for _, cs := range cols {
		for _, c := range cs {
			project[c] = true
		}
	}
	return project
}

func (ix *Index) runBuildJob(cfg *cluster.Config, input *mapreduce.FileInput, fresh bool) (*BuildStats, error) {
	numReducers := cfg.ReduceSlots()
	if numReducers > 64 {
		numReducers = 64
	}
	// The run's ledger: the job's work and the run's store operations —
	// the generation number's get and put here, the rest in commitRun.
	led := &cluster.Ledger{KV: cluster.KVOps{Gets: 1, Puts: 1}}

	// A distinct file-name generation per build run keeps append output
	// separate from prior runs.
	gen := 0
	if raw, ok := ix.KV.Get(metaGen); ok {
		if n, err := strconv.Atoi(string(raw)); err == nil {
			gen = n
		}
	}
	ix.KV.Put(metaGen, []byte(strconv.Itoa(gen+1)))

	var mu sync.Mutex // guards what reduce tasks report: merged and the job's bounds
	var merged []mergedPairs
	var lo, hi []int64

	// What the reducer parses of a shuffled line: the dimensions of one line
	// per group, and of every line the pre-compute factors, or the whole row
	// whose zone map an RCFile writer keeps.
	dims := ix.readColumns(storage.TextFile, ix.dimCols)
	fold := ix.readColumns(ix.Format, ix.aggCols...)
	job := &mapreduce.Job{
		Name:        "dgf-build-" + ix.Spec.Name,
		Input:       input,
		NewMapper:   func() mapreduce.TaskMapper { return newBuildMapper(ix) },
		NumReducers: numReducers,
		Ledger:      led,
		ReduceTask: func(task int, groups []mapreduce.Group, emit mapreduce.Emit) error {
			if len(groups) == 0 {
				return nil
			}
			name := ix.partFile(int64(gen), int64(task))
			sw, err := storage.NewSegmentWriter(ix.FS, name, ix.Schema, ix.Format, ix.GroupRows)
			if err != nil {
				return err
			}
			pairs := make([]gfuPair, 0, len(groups))
			headers := newHeaders(ix.Spec.Precompute, len(groups))
			// Observed bounds (for ClampRead and partial queries) are kept per
			// task, from one record of every group, and merged once below.
			var taskLo, taskHi []int64
			row := make(storage.Row, ix.Schema.Len()) // the task's one decoded record
			cells := make([]int64, 0, stackDims)
			for gi, g := range groups {
				// Every record of a group standardises to the same cell.
				if err := storage.DecodeTextLineInto(ix.Schema, g.Values[0], dims, row); err != nil {
					return err
				}
				cells = ix.cellsOfRow(row, cells[:0])
				start := sw.Offset()
				header := headers[gi]
				for _, line := range g.Values {
					// One decode per record feeds the header and, for
					// RCFile, the row group's zone map; both writers store
					// the line's text as it is.
					if err := storage.DecodeTextLineInto(ix.Schema, line, fold, row); err != nil {
						return err
					}
					ix.foldRow(row, header)
					if err := sw.WriteRecord(storage.SegmentRecord{Line: line, Row: row}); err != nil {
						return err
					}
				}
				taskLo, taskHi = extendBounds(taskLo, taskHi, cells)
				// Cut at the GFU boundary so the slice covers whole
				// addressable units (row groups for RCFile).
				if err := sw.Cut(); err != nil {
					return err
				}
				pairs = append(pairs, gfuPair{key: g.Key, header: header, start: start, end: sw.Offset()})
			}
			if err := sw.Close(); err != nil {
				return err
			}
			// Merge with any existing pairs (late data for a known cell).
			m, err := ix.mergePairs(gen, task, pairs)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			merged = append(merged, m)
			lo, hi = extendBounds(lo, hi, taskLo)
			extendBounds(lo, hi, taskHi)
			return nil
		},
	}
	jobStats, err := mapreduce.RunContext(context.Background(), cfg, job)
	if err != nil {
		ix.removeRun(gen, numReducers)
		return nil, err
	}
	ix.extendCellBounds(fresh, lo, hi)
	return ix.commitRun(cfg, *jobStats, merged, led), nil
}

// removeRun deletes what a failed run of generation gen wrote: the files its
// finished reduce tasks wrote, and their sidecars, would be read by every
// full scan of the directory.
func (ix *Index) removeRun(gen, reducers int) {
	for task := 0; task < reducers; task++ {
		name := ix.partFile(int64(gen), int64(task))
		ix.FS.RemoveAll(name)
		ix.FS.RemoveAll(storage.ColStatsPath(name))
	}
}

// extendCellBounds folds a successful run's observed cell bounds into the
// index's: a fresh build starts from them, an append widens what is there.
func (ix *Index) extendCellBounds(fresh bool, lo, hi []int64) {
	switch {
	case lo == nil:
	case fresh:
		copy(ix.minCell, lo)
		copy(ix.maxCell, hi)
	default:
		extendBounds(ix.minCell, ix.maxCell, lo)
		extendBounds(ix.minCell, ix.maxCell, hi)
	}
}

// commitRun puts a successful run's merged pairs into the store — only now,
// so a failed run leaves every GFU pair as it was — in task order, saves the
// metadata and prices the run's ledger.
func (ix *Index) commitRun(cfg *cluster.Config, job mapreduce.Stats, merged []mergedPairs, led *cluster.Ledger) *BuildStats {
	sort.Slice(merged, func(a, b int) bool { return merged[a].task < merged[b].task })
	entries := 0
	for _, m := range merged {
		ix.KV.PutBatch(m.pairs)
		ix.gfuBytes.Add(m.grownBytes)
		ix.gfuEntries.Add(m.fresh)
		entries += len(m.pairs)
	}
	// Each pair was read back by its reduce task (mergePairs) and is put
	// here, then the metadata.
	led.KV.Gets += int64(entries)
	led.KV.Puts += int64(entries) + ix.saveMeta()
	bill := job.Charge(cfg, led)
	return &BuildStats{
		Job:          job,
		Entries:      entries,
		IndexBytes:   ix.SizeBytes(),
		KVSimSeconds: bill.KV,
	}
}

// stackDims is how many cell coordinates the per-record scratch slices hold
// before they spill to the heap.
const stackDims = 8

// extendBounds widens the per-dimension bounds [lo, hi] to cover cells and
// returns them; nil bounds start at cells.
func extendBounds(lo, hi, cells []int64) ([]int64, []int64) {
	if lo == nil {
		return append([]int64(nil), cells...), append([]int64(nil), cells...)
	}
	for i, c := range cells {
		if c < lo[i] {
			lo[i] = c
		}
		if c > hi[i] {
			hi[i] = c
		}
	}
	return lo, hi
}

// buildMapper is one map task of a build job: it standardises each row of a
// batch to its GFU cell and emits <GFUKey, line> by the key's shuffle id
// (mapreduce.KeyedMapper). Cell coordinates are computed a column at a time,
// and each row's key id is found with one lookup keyed by its coordinates
// (cellIDs), which builds nothing per row. The task renders the GFUKey of
// each distinct cell it meets, and interns it in the shuffle, once; so map
// tasks share nothing, and the shuffle hashes a key once per task.
type buildMapper struct {
	ix    *Index
	keys  mapreduce.Keys
	cells []int64 // the batch's coordinates, dimension-major
	cell  []int64 // the current row's coordinates
	ids   cellIDs // cell coordinates → shuffle key id
	key   []byte  // scratch a GFUKey is rendered in
}

// newBuildMapper makes one map task's mapper for a build job over ix. It is
// a variable so that a test can build with the string-keyed mapper this one
// replaced and compare what the two write.
var newBuildMapper = func(ix *Index) mapreduce.TaskMapper {
	return &buildMapper{ix: ix, cell: make([]int64, len(ix.dimCols)), ids: cellIDs{dims: len(ix.dimCols)}}
}

func (m *buildMapper) UseKeys(keys mapreduce.Keys) { m.keys = keys }

func (m *buildMapper) Map(rec mapreduce.Record, _ mapreduce.Emit) error {
	b := rec.Batch
	sel := b.Sel()
	if n := len(m.ix.dimCols) * len(sel); cap(m.cells) < n {
		m.cells = make([]int64, 0, n)
	}
	m.cells = m.cells[:0]
	for d, col := range m.ix.dimCols {
		m.cells = m.ix.Spec.Policy.Dims[d].AppendCells(m.cells, &b.Cols[col], sel)
	}
	for k, ri := range sel {
		for d := range m.cell {
			m.cell[d] = m.cells[d*len(sel)+k]
		}
		m.keys.Emit(m.id(), b.Line(ri))
	}
	return nil
}

// id returns the current cell's shuffle key id, rendering and interning its
// GFUKey at the cell's first row.
func (m *buildMapper) id() uint32 {
	id, slot, ok := m.ids.find(m.cell)
	if !ok {
		m.key = m.ix.Spec.Policy.AppendKey(m.key[:0], m.cell)
		id = m.keys.Intern(string(m.key))
		m.ids.insert(slot, m.cell, id)
	}
	return id
}

func (m *buildMapper) Close(mapreduce.Emit) error { return nil }

// cellIDs maps cell coordinates to ids: an open-addressed table of entry
// numbers, with every entry's coordinates stored flat. A lookup hashes the
// coordinates where they lie and compares them in place, for any number of
// dimensions and any coordinates.
type cellIDs struct {
	dims   int
	slots  []uint32 // entry number + 1, or 0 for an empty slot; a power of two long
	coords []int64  // entry e's coordinates at [e*dims, (e+1)*dims)
	ids    []uint32 // entry e's id
}

// find returns cell's id, or false and the slot insert puts it in.
func (t *cellIDs) find(cell []int64) (id uint32, slot int, ok bool) {
	if len(t.slots) == 0 {
		return 0, 0, false
	}
	mask := len(t.slots) - 1
	for i := int(hashCell(cell)) & mask; ; i = (i + 1) & mask {
		e := int(t.slots[i]) - 1
		if e < 0 {
			return 0, i, false
		}
		if slices.Equal(t.coords[e*t.dims:(e+1)*t.dims], cell) {
			return t.ids[e], i, true
		}
	}
}

// insert adds cell, which find did not find and placed at slot, with id.
func (t *cellIDs) insert(slot int, cell []int64, id uint32) {
	if 4*(len(t.ids)+1) > 3*len(t.slots) {
		t.grow()
		_, slot, _ = t.find(cell)
	}
	t.coords = append(t.coords, cell...)
	t.ids = append(t.ids, id)
	t.slots[slot] = uint32(len(t.ids))
}

// grow doubles the slots (64 at first) and places every entry again.
func (t *cellIDs) grow() {
	t.slots = make([]uint32, max(64, 2*len(t.slots)))
	mask := len(t.slots) - 1
	for e := range t.ids {
		i := int(hashCell(t.coords[e*t.dims:(e+1)*t.dims])) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(e + 1)
	}
}

// hashCell mixes every coordinate into a hash whose low bits vary with all
// of them.
func hashCell(cell []int64) uint64 {
	var h uint64
	for _, c := range cell {
		h = bits.RotateLeft64((h^uint64(c))*0x9e3779b97f4a7c15, 31)
	}
	return h
}

// gfuPair is one freshly built <GFUKey, GFUValue> pair: the header and the one
// Slice the reduce task wrote for the cell.
type gfuPair struct {
	key        string
	header     Header
	start, end int64
}

// mergedPairs is one reduce task's pairs ready for the store, in key order,
// with what putting them adds to the SizeBytes and Entries totals.
type mergedPairs struct {
	task              int
	pairs             []kvstore.Pair
	grownBytes, fresh int64
}

// mergePairs encodes the pairs reduce task `task` of run `gen` built, merging
// header and slice list with the stored pair of the same key. A stored value
// that does not decode fails the run: overwriting it would drop the cell's
// earlier Slices from every later query. The task's groups arrive in key
// order, so the pairs leave in it.
func (ix *Index) mergePairs(gen, task int, pairs []gfuPair) (mergedPairs, error) {
	// The store copies what it keeps, so every key is cut from one string.
	size := 0
	for _, p := range pairs {
		size += len(gfuPrefix) + len(p.key)
	}
	var all strings.Builder
	all.Grow(size)
	for _, p := range pairs {
		all.WriteString(gfuPrefix)
		all.WriteString(p.key)
	}
	keys := make([]string, len(pairs))
	joined, off := all.String(), 0
	for i, p := range pairs {
		n := len(gfuPrefix) + len(p.key)
		keys[i], off = joined[off:off+n], off+n
	}
	m := mergedPairs{task: task, pairs: make([]kvstore.Pair, len(pairs))}
	var enc []byte // every encoded value, back to back
	ends := make([]int, len(pairs))
	var stored []SliceLoc // decoded only to check the stored value
	for i, prev := range ix.KV.MultiGet(keys) {
		p := pairs[i]
		slices, oldLocs := uint64(1), []byte(nil)
		if prev != nil {
			old := NewHeader(ix.Spec.Precompute)
			locs, err := readHeader(old, prev)
			if err == nil {
				stored, err = ix.readSlices(stored[:0], locs)
			}
			if err != nil {
				return mergedPairs{}, ix.badGFU(keys[i], err)
			}
			old.Merge(p.header)
			p.header = old
			count, n := binary.Uvarint(locs)
			slices, oldLocs = count+1, locs[n:]
		}
		start := len(enc)
		enc = appendHeader(enc, p.header)
		enc = append(binary.AppendUvarint(enc, slices), oldLocs...)
		enc = appendLoc(enc, gen, task, p.start, p.end)
		ends[i] = len(enc)
		if prev != nil {
			m.grownBytes += int64(ends[i] - start - len(prev))
		} else {
			m.grownBytes += int64(len(keys[i]) + ends[i] - start)
			m.fresh++
		}
		m.pairs[i].Key = keys[i]
	}
	setValues(m.pairs, enc, ends)
	return m, nil
}

// setValues points pair i's Value at enc[ends[i-1]:ends[i]], once enc has
// stopped growing.
func setValues(pairs []kvstore.Pair, enc []byte, ends []int) {
	start := 0
	for i, end := range ends {
		pairs[i].Value = enc[start:end]
		start = end
	}
}

// AddPrecompute registers additional pre-computed aggregations on a live
// index ("users can still add more UDFs dynamically to DGFIndex on demand",
// Section 4.1). It runs one map-only job over the reorganised data,
// recomputing the extended header of every GFU. It changes the index outside
// any log — no record describes it, so a fleet rebuilt from its logs lacks
// the new aggregations — and takes no warehouse lock; only tests call it.
func (ix *Index) AddPrecompute(cfg *cluster.Config, newSpecs []AggSpec) (*mapreduce.Stats, error) {
	for _, s := range newSpecs {
		for _, factor := range s.Factors() {
			if ix.Schema.ColIndex(factor) < 0 {
				return nil, fmt.Errorf("dgf: pre-compute column %q is not a table column", factor)
			}
		}
		for _, have := range ix.Spec.Precompute {
			if have.Key() == s.Key() {
				return nil, fmt.Errorf("dgf: %s is already pre-computed", s)
			}
		}
	}
	extended := append(append([]AggSpec{}, ix.Spec.Precompute...), newSpecs...)

	// Recompute every header in one pass over the reorganised data: each map
	// task standardises its split's records back to their GFUKey and folds
	// them into headers of its own, and the tasks' headers merge in split
	// order once the job ends, so a SUM header does not depend on which task
	// finished first.
	next := &Index{FS: ix.FS, KV: ix.KV, Spec: Spec{Name: ix.Spec.Name, Policy: ix.Spec.Policy, Precompute: extended}, Schema: ix.Schema, DataDir: ix.DataDir}
	if err := next.resolveColumns(); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var folds []*headerFold
	job := &mapreduce.Job{
		Name: "dgf-addudf-" + ix.Spec.Name,
		Input: &mapreduce.FileInput{FS: ix.FS, Dir: ix.DataDir, Format: ix.Format, Schema: ix.Schema,
			Project: next.readColumns(ix.Format, append([][]int{next.dimCols}, next.aggCols...)...)},
		NewMapper: func() mapreduce.TaskMapper {
			f := &headerFold{ix: next}
			mu.Lock()
			folds = append(folds, f)
			mu.Unlock()
			return f
		},
	}
	stats, err := mapreduce.RunContext(context.Background(), cfg, job)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(folds, func(a, b *headerFold) int {
		return cmp.Or(strings.Compare(a.path, b.path), cmp.Compare(a.off, b.off))
	})
	headers := map[string]Header{}
	for _, f := range folds {
		for key, h := range f.headers {
			if prev, ok := headers[key]; ok {
				prev.Merge(h)
			} else {
				headers[key] = h
			}
		}
	}
	// Rewrite the stored pairs with extended headers, keeping locations.
	pairs := ix.KV.ScanPrefix(gfuPrefix)
	var enc []byte // every new value, back to back
	ends := make([]int, len(pairs))
	var total int64
	old := NewHeader(ix.Spec.Precompute)
	for i, p := range pairs {
		key := p.Key[len(gfuPrefix):]
		locs, err := readHeader(old, p.Value)
		if err != nil {
			return nil, ix.badGFU(p.Key, err)
		}
		h, ok := headers[key]
		if !ok {
			h = NewHeader(extended)
		}
		start := len(enc)
		enc = append(appendHeader(enc, h), locs...)
		ends[i] = len(enc)
		total += int64(len(p.Key) + ends[i] - start)
	}
	setValues(pairs, enc, ends)
	ix.KV.PutBatch(pairs)
	ix.gfuBytes.Store(total)
	ix.Spec.Precompute = extended
	if err := ix.resolveColumns(); err != nil {
		return nil, err
	}
	ix.saveMeta()
	return stats, nil
}

// headerFold is one AddPrecompute map task: it folds its split's records
// into headers of its own, keyed by GFUKey, and notes where the split starts
// (its first record's file and offset), which orders the tasks' merge.
type headerFold struct {
	ix      *Index
	path    string
	off     int64
	headers map[string]Header
	cells   []int64
}

func (f *headerFold) Map(rec mapreduce.Record, _ mapreduce.Emit) error {
	if f.headers == nil {
		f.path, f.off, f.headers = rec.Path, rec.Offset, map[string]Header{}
	}
	b := rec.Batch
	for _, ri := range b.Sel() {
		row := b.MaterialiseRow(ri)
		f.cells = f.ix.cellsOfRow(row, f.cells[:0])
		key := f.ix.Spec.Policy.Key(f.cells)
		h, ok := f.headers[key]
		if !ok {
			h = NewHeader(f.ix.Spec.Precompute)
			f.headers[key] = h
		}
		f.ix.foldRow(row, h)
	}
	return nil
}

func (f *headerFold) Close(mapreduce.Emit) error { return nil }

// ParseIdxProperties translates the paper's Listing 3 CREATE INDEX property
// map into a Spec: one 'col'='min_interval' entry per dimension (ordered by
// the cols argument, keys matched case-insensitively) plus an optional
// 'precompute'='sum(x);count(*)'. Any other key is an error, so a misspelt
// key cannot build a different index than the one asked for.
func ParseIdxProperties(name string, cols []string, schema *storage.Schema, props map[string]string) (Spec, error) {
	indexCols := map[int]bool{}
	for _, col := range cols {
		ci := schema.ColIndex(col)
		if ci < 0 {
			return Spec{}, fmt.Errorf("dgf: index column %q is not a table column", col)
		}
		indexCols[ci] = true
	}
	var unknown []string
	for k := range props {
		if k != "precompute" && !indexCols[schema.ColIndex(k)] {
			unknown = append(unknown, strconv.Quote(k))
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return Spec{}, fmt.Errorf("dgf: unknown IDXPROPERTIES key %s: the accepted keys are the index columns (%s) and 'precompute'",
			strings.Join(unknown, ", "), strings.Join(cols, ", "))
	}
	spec := Spec{Name: name}
	for _, col := range cols {
		ci := schema.ColIndex(col)
		raw, ok := props[col]
		if !ok {
			// Tolerate case differences between the column list and the
			// property keys.
			for k, v := range props {
				if schema.ColIndex(k) == ci {
					raw, ok = v, true
					break
				}
			}
		}
		if !ok {
			return Spec{}, fmt.Errorf("dgf: IDXPROPERTIES missing splitting policy for %q", col)
		}
		d, err := gridfile.ParseDimension(col, schema.Col(ci).Kind, raw)
		if err != nil {
			return Spec{}, err
		}
		spec.Policy.Dims = append(spec.Policy.Dims, d)
	}
	if raw, ok := props["precompute"]; ok {
		specs, err := ParseAggSpecs(raw)
		if err != nil {
			return Spec{}, err
		}
		spec.Precompute = specs
	}
	if err := spec.Validate(schema); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
