package hiveindex

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// FileFilter is the matched offsets of one data file, the content of the
// temporary file Hive's index handler writes before getSplits runs.
type FileFilter struct {
	// Offsets maps a matched BLOCK_OFFSET_INSIDE_FILE to true.
	Offsets map[int64]bool
	// Rows holds the matched row positions per block (Bitmap Index only).
	Rows map[int64]*bitmapT
}

// FilterResult is the outcome of the pre-query index-table scan.
type FilterResult struct {
	Files map[string]*FileFilter
	// ScanStats is the index-table scan job (the "read index" cost).
	ScanStats mapreduce.Stats
	// Entries is the number of matched index rows.
	Entries int64
}

// Files lists the index table's data files. A query lists them when it is
// planned and hands them to Filter or AggregateCounts, so its index scan
// reads the files the plan saw.
func (ix *Index) Files(fs *dfs.FS) ([]string, error) {
	infos, err := fs.ListFiles(ix.IndexDir)
	if err != nil {
		return nil, err
	}
	files := make([]string, len(infos))
	for i, fi := range infos {
		files[i] = fi.Path
	}
	return files, nil
}

// Filter scans the whole index table, the given files (Files), with the
// query predicate, like Hive does before launching the real job. ranges
// constrains the indexed dimensions (missing dimensions are unconstrained).
// The scan is a job of the query: it runs under ctx, stops at a split
// boundary when ctx ends, and traces under ctx's span.
func (ix *Index) Filter(ctx context.Context, cfg *cluster.Config, fs *dfs.FS, files []string, ranges map[string]gridfile.Range) (*FilterResult, error) {
	res := &FilterResult{Files: map[string]*FileFilter{}}
	var mu sync.Mutex

	dimRanges := make([]*gridfile.Range, len(ix.Cols))
	for i, c := range ix.Cols {
		for name, r := range ranges {
			if strings.EqualFold(name, c) {
				rr := r
				dimRanges[i] = &rr
			}
		}
	}
	bucketCol := len(ix.Cols)
	// match folds one index-table row into res when the predicate admits it.
	match := func(row storage.Row) error {
		for i, r := range dimRanges {
			if r != nil && !r.Contains(row[i]) {
				return nil
			}
		}
		file := row[bucketCol].S
		mu.Lock()
		defer mu.Unlock()
		ff := res.Files[file]
		if ff == nil {
			ff = &FileFilter{Offsets: map[int64]bool{}}
			res.Files[file] = ff
		}
		res.Entries++
		switch ix.Kind {
		case Bitmap:
			off, err := strconv.ParseInt(row[bucketCol+1].S, 10, 64)
			if err != nil {
				return err
			}
			bm, err := decodeBitmap(row[bucketCol+2].S)
			if err != nil {
				return err
			}
			ff.Offsets[off] = true
			if ff.Rows == nil {
				ff.Rows = map[int64]*bitmapT{}
			}
			if prev, ok := ff.Rows[off]; ok {
				prev.union(bm)
			} else {
				ff.Rows[off] = bm
			}
		default:
			offs, err := decodeOffsets(row[bucketCol+1].S)
			if err != nil {
				return err
			}
			for _, o := range offs {
				ff.Offsets[o] = true
			}
		}
		return nil
	}
	job := &mapreduce.Job{
		Name:  "hiveindex-scan-" + ix.Name,
		Input: ix.indexInput(fs, files),
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			b := rec.Batch
			for _, ri := range b.Sel() {
				if err := match(b.MaterialiseRow(ri)); err != nil {
					return err
				}
			}
			return nil
		},
	}
	stats, err := mapreduce.RunContext(ctx, cfg, job)
	if err != nil {
		return nil, err
	}
	res.ScanStats = *stats
	return res, nil
}

// indexInput opens the given index table files for scanning.
func (ix *Index) indexInput(fs *dfs.FS, files []string) *mapreduce.FileInput {
	return &mapreduce.FileInput{FS: fs, Paths: files, Format: ix.IndexFormat, Schema: ix.indexSchema}
}

// SplitFilter implements the getSplits behaviour: keep a split iff it
// contains at least one matched offset of its file.
func (fr *FilterResult) SplitFilter(s dfs.Split) bool {
	ff, ok := fr.Files[s.Path]
	if !ok {
		return false
	}
	for off := range ff.Offsets {
		if off >= s.Start && off < s.End() {
			return true
		}
	}
	return false
}

// GroupFilter keeps only matched row groups (Bitmap Index refinement; the
// Compact Index reads whole splits and does not use it).
func (fr *FilterResult) GroupFilter(path string, offset int64) bool {
	ff, ok := fr.Files[path]
	if !ok {
		return false
	}
	return ff.Offsets[offset]
}

// RowFilter keeps only bitmap-matched rows within a group (Bitmap Index).
func (fr *FilterResult) RowFilter(path string, offset int64, row int) bool {
	ff, ok := fr.Files[path]
	if !ok || ff.Rows == nil {
		return false
	}
	bm, ok := ff.Rows[offset]
	if !ok {
		return false
	}
	return bm.get(row)
}

// BaseInput builds the input format for the main query job over the base
// table, with this filter applied the way the real index kind would:
// Compact and Aggregate filter splits only; Bitmap additionally filters row
// groups and rows (RCFile base tables only). The input names the matched
// files rather than the base directory, so it reads the files the filter saw
// even when it runs after a load has started writing a new one.
func (ix *Index) BaseInput(fs *dfs.FS, fr *FilterResult) *mapreduce.FileInput {
	files := make([]string, 0, len(fr.Files))
	for f := range fr.Files {
		files = append(files, f)
	}
	sort.Strings(files)
	in := &mapreduce.FileInput{
		FS: fs, Paths: files, Format: ix.BaseFormat, Schema: ix.Schema,
		SplitFilter: fr.SplitFilter,
	}
	if ix.Kind == Bitmap {
		in.GroupFilter = fr.GroupFilter
		in.RowFilter = fr.RowFilter
	}
	return in
}

// AggregateCounts answers a covered GROUP BY count query from the index
// table's given files (Files) alone (the Aggregate Index "index as data"
// rewrite): groups by the named index dimensions and sums the pre-computed
// _count column. Like Filter, the scan runs under ctx.
func (ix *Index) AggregateCounts(ctx context.Context, cfg *cluster.Config, fs *dfs.FS, files []string, ranges map[string]gridfile.Range, groupBy []string) (map[string]int64, *mapreduce.Stats, error) {
	if ix.Kind != Aggregate {
		return nil, nil, errNotAggregate
	}
	groupIdx := make([]int, len(groupBy))
	for i, g := range groupBy {
		gi := -1
		for j, c := range ix.Cols {
			if strings.EqualFold(c, g) {
				gi = j
			}
		}
		if gi < 0 {
			return nil, nil, errNotCovered
		}
		groupIdx[i] = gi
	}
	dimRanges := make([]*gridfile.Range, len(ix.Cols))
	for i, c := range ix.Cols {
		for name, r := range ranges {
			if strings.EqualFold(name, c) {
				rr := r
				dimRanges[i] = &rr
			}
		}
	}
	counts := map[string]int64{}
	var mu sync.Mutex
	countCol := len(ix.Cols) + 2
	job := &mapreduce.Job{
		Name:  "hiveindex-aggscan-" + ix.Name,
		Input: ix.indexInput(fs, files),
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			b := rec.Batch
		rows:
			for _, ri := range b.Sel() {
				row := b.MaterialiseRow(ri)
				for i, r := range dimRanges {
					if r != nil && !r.Contains(row[i]) {
						continue rows
					}
				}
				var key []string
				for _, gi := range groupIdx {
					key = append(key, row[gi].String())
				}
				mu.Lock()
				counts[strings.Join(key, "\x01")] += row[countCol].I
				mu.Unlock()
			}
			return nil
		},
	}
	stats, err := mapreduce.RunContext(ctx, cfg, job)
	if err != nil {
		return nil, nil, err
	}
	return counts, stats, nil
}

var (
	errNotAggregate = strErr("hiveindex: not an aggregate index")
	errNotCovered   = strErr("hiveindex: GROUP BY not covered by index dimensions")
)

type strErr string

func (e strErr) Error() string { return string(e) }
