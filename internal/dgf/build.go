package dgf

import (
	"fmt"
	"path"
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
	// BitmapDisabled names the bitmap columns this run dropped for exceeding
	// storage.BitmapCardinalityCap in some output file (no pruning there,
	// still correct) — CREATE INDEX surfaces them instead of failing.
	BitmapDisabled []string
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
	// Dir is scanned for data files when Paths is empty.
	Dir string
	// Paths selects explicit files.
	Paths []string
	// Format is the storage format of both the input files and the
	// reorganised data (zero value: TextFile).
	Format storage.Format
	// GroupRows sizes the reorganised data's RCFile row groups (<= 0
	// selects storage.DefaultRowGroupRows). Ignored for TextFile.
	GroupRows int
	// GroupBytes, when positive, switches row-group sizing to a byte budget
	// (GroupRows stays the row-count cap). Ignored for TextFile.
	GroupBytes int64
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
		DataDir:    dataDir,
		Format:     src.Format,
		GroupRows:  src.GroupRows,
		GroupBytes: src.GroupBytes,
		minCell:    make([]int64, len(spec.Policy.Dims)),
		maxCell:    make([]int64, len(spec.Policy.Dims)),
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
	input := &mapreduce.FileInput{FS: fs, Dir: src.Dir, Paths: src.Paths, Format: src.Format, Schema: schema}
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
// the reorganised output follows the index's format.
func (ix *Index) Append(cfg *cluster.Config, files []string) (*BuildStats, error) {
	return ix.runBuildJob(cfg, &mapreduce.FileInput{FS: ix.FS, Paths: files}, false)
}

func (ix *Index) runBuildJob(cfg *cluster.Config, input mapreduce.InputFormat, fresh bool) (*BuildStats, error) {
	numReducers := cfg.ReduceSlots()
	if numReducers > 64 {
		numReducers = 64
	}
	kvBefore := ix.KV.Stats()

	var boundsMu sync.Mutex
	boundsInit := !fresh // appends extend existing bounds
	var entries int
	droppedCols := map[int]bool{} // bitmap columns overflowed in some output file

	// A distinct file-name generation per build run keeps append output
	// separate from prior runs.
	gen := 0
	if raw, ok := ix.KV.Get(metaGen); ok {
		if n, err := strconv.Atoi(string(raw)); err == nil {
			gen = n
		}
	}
	ix.KV.Put(metaGen, []byte(strconv.Itoa(gen+1)))

	job := &mapreduce.Job{
		Name:  "dgf-build-" + ix.Spec.Name,
		Input: input,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			cells := make([]int64, len(ix.dimCols))
			if err := ix.cellsOfLine(rec.Data, cells); err != nil {
				return err
			}
			// Track observed bounds for ClampRead and partial queries.
			boundsMu.Lock()
			if !boundsInit {
				copy(ix.minCell, cells)
				copy(ix.maxCell, cells)
				boundsInit = true
			} else {
				for i, c := range cells {
					if c < ix.minCell[i] {
						ix.minCell[i] = c
					}
					if c > ix.maxCell[i] {
						ix.maxCell[i] = c
					}
				}
			}
			boundsMu.Unlock()
			emit(ix.Spec.Policy.Key(cells), rec.Data)
			return nil
		},
		NumReducers: numReducers,
		ReduceTask: func(task int, groups []mapreduce.Group, emit mapreduce.Emit) error {
			if len(groups) == 0 {
				return nil
			}
			name := path.Join(ix.DataDir, fmt.Sprintf("part-%d-r-%05d", gen, task))
			sw, err := storage.NewSegmentWriterOpts(ix.FS, name, ix.Schema, ix.Format, ix.GroupRows,
				storage.SegmentWriterOptions{BitmapCols: ix.bitmapCols, GroupBytes: ix.GroupBytes})
			if err != nil {
				return err
			}
			pairs := make(map[string][]byte, len(groups))
			for _, g := range groups {
				start := sw.Offset()
				header := NewHeader(ix.Spec.Precompute)
				for _, line := range g.Values {
					if err := ix.foldLine(line, header); err != nil {
						return err
					}
					if err := sw.WriteRecord(line); err != nil {
						return err
					}
				}
				// Cut at the GFU boundary so the slice covers whole
				// addressable units (row groups for RCFile).
				if err := sw.Cut(); err != nil {
					return err
				}
				end := sw.Offset()
				val := GFUValue{Header: header, Slices: []SliceLoc{{File: name, Start: start, End: end}}}
				pairs[g.Key] = encodeGFUValue(val)
			}
			if err := sw.Close(); err != nil {
				return err
			}
			var overflowed []int
			if rep, ok := sw.(storage.BitmapOverflowReporter); ok {
				overflowed = rep.BitmapOverflows()
			}
			// Merge with any existing pairs (late data for a known cell).
			ix.mergePairs(pairs)
			boundsMu.Lock()
			entries += len(pairs)
			for _, c := range overflowed {
				droppedCols[c] = true
			}
			boundsMu.Unlock()
			return nil
		},
	}
	jobStats, err := mapreduce.Run(cfg, job)
	if err != nil {
		return nil, err
	}
	// Fold this run's overflowed bitmap columns into the index's persistent
	// disabled set (sorted column names, deduplicated across runs).
	var runDropped []string
	if len(droppedCols) > 0 {
		seen := map[string]bool{}
		for _, name := range ix.BitmapDisabled {
			seen[name] = true
		}
		for c := range droppedCols {
			name := ix.Schema.Col(c).Name
			runDropped = append(runDropped, name)
			seen[name] = true
		}
		sort.Strings(runDropped)
		all := make([]string, 0, len(seen))
		for name := range seen {
			all = append(all, name)
		}
		sort.Strings(all)
		ix.BitmapDisabled = all
	}
	ix.saveMeta()
	kvDelta := ix.KV.Stats().Sub(kvBefore)
	return &BuildStats{
		Job:            *jobStats,
		Entries:        entries,
		IndexBytes:     ix.SizeBytes(),
		KVSimSeconds:   kvDelta.SimSeconds(cfg),
		BitmapDisabled: runDropped,
	}, nil
}

// mergePairs installs freshly built GFU pairs, merging headers and slice
// lists with existing pairs for the same key.
func (ix *Index) mergePairs(pairs map[string][]byte) {
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, gfuPrefix+k)
	}
	existing := ix.KV.MultiGet(keys)
	out := make(map[string][]byte, len(pairs))
	i := 0
	for k, enc := range pairs {
		full := gfuPrefix + k
		if prev := existing[i]; prev != nil {
			oldVal, err1 := decodeGFUValue(ix.Spec.Precompute, prev)
			newVal, err2 := decodeGFUValue(ix.Spec.Precompute, enc)
			if err1 == nil && err2 == nil {
				oldVal.Header.Merge(newVal.Header)
				oldVal.Slices = append(oldVal.Slices, newVal.Slices...)
				enc = encodeGFUValue(oldVal)
			}
		}
		out[full] = enc
		i++
	}
	ix.KV.PutBatch(out)
}

// AddPrecompute registers additional pre-computed aggregations on a live
// index ("users can still add more UDFs dynamically to DGFIndex on demand",
// Section 4.1). It runs one map-only job over the reorganised data,
// recomputing the extended header of every GFU.
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

	// Recompute every header in one pass over the reorganised data: map
	// standardises records back to their GFUKey and folds the new columns.
	next := &Index{FS: ix.FS, KV: ix.KV, Spec: Spec{Name: ix.Spec.Name, Policy: ix.Spec.Policy, Precompute: extended}, Schema: ix.Schema, DataDir: ix.DataDir}
	if err := next.resolveColumns(); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	headers := map[string]Header{}
	job := &mapreduce.Job{
		Name:  "dgf-addudf-" + ix.Spec.Name,
		Input: &mapreduce.FileInput{FS: ix.FS, Dir: ix.DataDir, Format: ix.Format, Schema: ix.Schema},
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			cells := make([]int64, len(next.dimCols))
			if err := next.cellsOfLine(rec.Data, cells); err != nil {
				return err
			}
			key := next.Spec.Policy.Key(cells)
			h := NewHeader(extended)
			if err := next.foldLine(rec.Data, h); err != nil {
				return err
			}
			mu.Lock()
			if prev, ok := headers[key]; ok {
				prev.Merge(h)
			} else {
				headers[key] = h
			}
			mu.Unlock()
			return nil
		},
	}
	stats, err := mapreduce.Run(cfg, job)
	if err != nil {
		return nil, err
	}
	// Rewrite the stored pairs with extended headers, keeping locations.
	updates := map[string][]byte{}
	for _, p := range ix.KV.ScanPrefix(gfuPrefix) {
		old, err := decodeGFUValue(ix.Spec.Precompute, p.Value)
		if err != nil {
			return nil, err
		}
		key := p.Key[len(gfuPrefix):]
		h, ok := headers[key]
		if !ok {
			h = NewHeader(extended)
		}
		updates[p.Key] = encodeGFUValue(GFUValue{Header: h, Slices: old.Slices})
	}
	ix.KV.PutBatch(updates)
	ix.Spec.Precompute = extended
	if err := ix.resolveColumns(); err != nil {
		return nil, err
	}
	ix.saveMeta()
	return stats, nil
}

// ParseIdxProperties translates the paper's Listing 3 CREATE INDEX property
// map into a Spec: one 'col'='min_interval' entry per dimension (ordered by
// the cols argument) plus an optional 'precompute'='sum(x);count(*)'.
func ParseIdxProperties(name string, cols []string, schema *storage.Schema, props map[string]string) (Spec, error) {
	spec := Spec{Name: name}
	for _, col := range cols {
		ci := schema.ColIndex(col)
		if ci < 0 {
			return Spec{}, fmt.Errorf("dgf: index column %q is not a table column", col)
		}
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
	if raw, ok := props["bitmap"]; ok && raw != "" {
		for _, col := range strings.Split(raw, ";") {
			col = strings.TrimSpace(col)
			if col == "" {
				continue
			}
			spec.BitmapCols = append(spec.BitmapCols, col)
		}
	}
	if err := spec.Validate(schema); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
