package dgf

import (
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// SliceInput is the DgfInputFormat of the paper: given a plan's Slices it
// (a) filters unrelated splits in getSplits (Algorithm 4), and (b) hands
// each chosen split the ordered list of its Slices so the record reader can
// skip the margins between them (step 3 of the query pipeline).
//
// The reader is storage-format-agnostic and delivers column batches (see
// mapreduce.FileInput): slices over TextFile data are read line by line,
// slices over RCFile data open only the row groups the GridFile selected and
// not in the plan's SkipGroups, decoding only the columns the plan's
// projection kept (column-projection pushdown).
//
// A Slice may stretch across two splits; in that case it is divided at the
// boundary and the two parts are processed by the two splits' mappers,
// exactly as Section 4.3 describes. For TextFile, clip boundaries are
// arbitrary byte positions, so the clipped sides follow Hadoop's pairing
// rules (the earlier part owns the straddling line and any line starting
// exactly at the cut; the later part skips through the first newline). True
// Slice edges are exact line boundaries and use exact semantics — crucially,
// the reader must not spill into an adjacent Slice of a GFU the plan
// excluded (an inner GFU already answered from its header, say), or
// aggregation queries would double count. For RCFile, ownership is always
// "row group starts inside the range", which handles both true edges (always
// group boundaries, because the build cuts groups at GFU boundaries) and
// clip edges without special cases.
type SliceInput struct {
	FS   *dfs.FS
	Plan *Plan
	// Format is the storage format of the reorganised data files (the
	// owning Index's Format).
	Format storage.Format
	// Schema decodes the data files' rows.
	Schema *storage.Schema
}

// Splits implements mapreduce.InputFormat (Algorithm 4: choose the splits
// that contain or overlap plan Slices, then prepare per-split slice lists).
func (in *SliceInput) Splits() ([]mapreduce.InputSplit, error) {
	byFile := map[string][]SliceLoc{}
	for _, sl := range in.Plan.Slices {
		byFile[sl.File] = append(byFile[sl.File], sl)
	}
	var out []mapreduce.InputSplit
	for file, slices := range byFile {
		fileSplits, err := storage.Splits(in.FS, file, in.Format)
		if err != nil {
			return nil, err
		}
		for _, sp := range fileSplits {
			var own []mapreduce.Segment
			for _, sl := range slices {
				cs := mapreduce.Segment{Start: sl.Start, End: sl.End}
				if sl.Start < sp.Start {
					cs.Start, cs.ClipStart = sp.Start, true
				}
				if sl.End > sp.End() {
					cs.End, cs.ClipEnd = sp.End(), true
				}
				if cs.Start < cs.End {
					own = append(own, cs)
				}
			}
			if len(own) == 0 {
				continue // split filtered out (Algorithm 4 line 5)
			}
			if in.Plan.DisableSliceSkip {
				// Ablation: read the whole chosen split, Compact-Index
				// style. Hadoop split rules apply at both edges.
				own = []mapreduce.Segment{{
					Start: sp.Start, End: sp.End(),
					ClipStart: sp.Start > 0, ClipEnd: true,
				}}
			}
			out = append(out, mapreduce.FileSplit{Split: sp, Segments: own})
		}
	}
	return out, nil
}

// Open implements mapreduce.InputFormat: the split's slice list goes to the
// one file reader, with the plan's projection and skip set pushed down.
func (in *SliceInput) Open(split mapreduce.InputSplit) (mapreduce.RecordReader, error) {
	fi := &mapreduce.FileInput{
		FS: in.FS, Format: in.Format, Schema: in.Schema,
		Project: in.Plan.Project,
	}
	if skips := in.Plan.SkipGroups; len(skips) > 0 {
		fi.SkipGroup = func(path string, off int64) bool { return skips[path][off] }
	}
	return fi.Open(split)
}
