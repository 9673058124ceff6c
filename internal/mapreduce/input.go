package mapreduce

import (
	"fmt"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Segment is one byte range of a split's file. ClipStart and ClipEnd mark
// edges that are arbitrary byte cuts rather than record boundaries: a
// TextFile reader then follows Hadoop's pairing rules there (skip through the
// first newline after a clipped start; own the line straddling, or starting
// exactly at, a clipped end). Unclipped edges are exact. RCFile ownership is
// always "row group starts inside [Start, End)", so the flags do not matter.
type Segment struct {
	Start, End         int64
	ClipStart, ClipEnd bool
}

// FileSplit is the one split shape the file reader knows: an ordered list of
// byte segments of one file, read in turn by one map task.
type FileSplit struct {
	dfs.Split
	Segments []Segment
}

// Label implements InputSplit.
func (s FileSplit) Label() string {
	if len(s.Segments) == 1 {
		return s.Split.String()
	}
	return fmt.Sprintf("%s (%d segments)", s.Split.String(), len(s.Segments))
}

// FileInput reads table files of either storage format, one segment per
// split under Hadoop's split rules. Every record is a whole
// storage.ColumnBatch: one RCFile row group, or up to
// storage.DefaultRowGroupRows consecutive TextFile lines, located by the
// group's or the first line's Offset. Per row, the batch gives what Hive's
// index population reads (Listing 1 of the paper): RowOffset is the
// BLOCK_OFFSET_INSIDE_FILE — the line's byte position for TextFile, its row
// group's start for RCFile (what the Compact Index records), where the row's
// position in the batch is its position in the group (what the Bitmap Index
// records) — and Line its delimited text.
//
// Its Open is also the reader behind every other file-backed input format:
// dgf.SliceInput enumerates multi-segment FileSplits and opens them here.
type FileInput struct {
	FS *dfs.FS
	// Dir, when set, contributes every data file directly under it, listed
	// when the job asks for its splits.
	Dir string
	// Paths names further files explicitly. With Dir empty they are the
	// whole input, so an empty list reads nothing.
	Paths []string
	// Format is the files' storage format (zero value: TextFile).
	Format storage.Format
	// Schema decodes the files' rows (required).
	Schema *storage.Schema
	// Project, when set, keeps only the flagged columns: RCFile readers
	// fetch only their payloads (column-projection pushdown) and TextFile
	// batches parse only their cells. Unprojected cells read as zero values.
	Project []bool
	// SplitFilter, when set, keeps only the splits it returns true for.
	// Hive's index machinery plugs in here (the paper's Algorithm 4 runs in
	// getSplits).
	SplitFilter func(dfs.Split) bool
	// GroupFilter, when set, skips row groups whose start offset it rejects
	// (Compact Index offset filtering; RCFile only).
	GroupFilter func(path string, offset int64) bool
	// RowFilter, when set, admits rows by their position in the group
	// (Bitmap Index row filtering; RCFile only): a batch arrives with its
	// selection narrowed to the admitted rows, and not at all if none is.
	RowFilter func(path string, offset int64, row int) bool
	// SkipGroup, when set, prunes row groups by start offset before their
	// payloads are fetched (zone-map pruning; RCFile only). Unlike
	// GroupFilter rejections, pruned groups are reported as GroupsSkipped.
	SkipGroup func(path string, offset int64) bool
}

// Splits implements InputFormat: each file's block-sized splits, an
// RCFile's over its bytes in Hive's RCFile (storage.Splits).
func (in *FileInput) Splits() ([]InputSplit, error) {
	paths := in.Paths
	if in.Dir != "" {
		files, err := in.FS.ListFiles(in.Dir)
		if err != nil {
			return nil, err
		}
		paths = make([]string, 0, len(files)+len(in.Paths))
		for _, fi := range files {
			paths = append(paths, fi.Path)
		}
		paths = append(paths, in.Paths...)
	}
	var raw []dfs.Split
	for _, p := range paths {
		s, err := storage.Splits(in.FS, p, in.Format)
		if err != nil {
			return nil, err
		}
		raw = append(raw, s...)
	}
	var out []InputSplit
	for _, s := range raw {
		if in.SplitFilter == nil || in.SplitFilter(s) {
			out = append(out, FileSplit{Split: s, Segments: []Segment{{
				Start: s.Start, End: s.End(), ClipStart: s.Start > 0, ClipEnd: true,
			}}})
		}
	}
	return out, nil
}

// Open implements InputFormat.
func (in *FileInput) Open(split InputSplit) (RecordReader, error) {
	s, ok := split.(FileSplit)
	if !ok {
		return nil, fmt.Errorf("mapreduce: FileInput cannot open %T", split)
	}
	f, err := in.FS.Open(s.Path)
	if err != nil {
		return nil, err
	}
	r := &fileReader{in: in, file: f, path: s.Path, segments: s.Segments, batch: storage.NewColumnBatch(in.Schema)}
	if in.Format == storage.RCFile {
		// A row group belongs to the segment its start offset falls into,
		// but may physically straddle a block boundary. The column
		// statistics side file (the model's stand-in for RCFile sync
		// markers) locates the groups.
		if r.groups, err = storage.LoadRowGroups(in.FS, s.Path); err != nil {
			return nil, fmt.Errorf("mapreduce: FileInput: row groups of %s: %w", s.Path, err)
		}
		if in.GroupFilter != nil || in.SkipGroup != nil {
			r.skipGroup = r.rejectGroup
		}
	}
	return r, nil
}

// fileReader reads the records of each segment in turn through a
// storage.SegmentReader and carries all accounting: bytes fetched, seeks
// (margin jumps between non-adjacent segments plus every rejected row group,
// since skipping a group forces a reposition) and the groups SkipGroup
// pruned.
type fileReader struct {
	in        *FileInput
	file      *dfs.FileReader
	path      string
	segments  []Segment
	groups    *storage.RowGroups // RCFile only
	skipGroup func(offset int64) bool
	batch     *storage.ColumnBatch // shared by the segments

	next      int // next index into segments
	seg       storage.SegmentReader
	lastEnd   int64
	bytesRead int64 // of finished segments
	seeks     int64
	skips     int64
}

func (r *fileReader) rejectGroup(off int64) bool {
	if r.in.GroupFilter != nil && !r.in.GroupFilter(r.path, off) {
		r.seeks++
		return true
	}
	if r.in.SkipGroup != nil && r.in.SkipGroup(r.path, off) {
		r.seeks++
		r.skips++
		return true
	}
	return false
}

func (r *fileReader) Next() (Record, bool, error) {
	in := r.in
	for {
		if r.seg == nil {
			if r.next >= len(r.segments) {
				return Record{}, false, nil
			}
			sg := r.segments[r.next]
			if r.next > 0 && sg.Start != r.lastEnd {
				r.seeks++ // jumping the margin between two segments
			}
			r.next++
			r.lastEnd = sg.End
			r.seg = storage.NewSegmentReader(r.file, in.Schema, in.Format, sg.Start, sg.End, storage.SegmentOptions{
				SkipFirst:    sg.ClipStart,
				InclusiveEnd: sg.ClipEnd,
				Project:      in.Project,
				Groups:       r.groups,
				Batch:        r.batch,
				SkipGroup:    r.skipGroup,
			})
		}
		b, ok, err := r.seg.Next()
		if err != nil {
			return Record{}, false, err
		}
		if !ok {
			r.bytesRead += r.seg.BytesRead()
			r.seg = nil
			continue
		}
		off := b.RowOffset(0)
		if in.Format == storage.RCFile && in.RowFilter != nil {
			b.Select(func(row int) bool { return in.RowFilter(r.path, off, row) })
			if len(b.Sel()) == 0 {
				continue
			}
		}
		return Record{Batch: b, Path: r.path, Offset: off}, true, nil
	}
}

func (r *fileReader) BytesRead() int64 {
	if r.seg != nil {
		return r.bytesRead + r.seg.BytesRead()
	}
	return r.bytesRead
}

func (r *fileReader) Seeks() int64 { return r.seeks }
