package storage

import (
	"sort"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// This file defines the storage-format-agnostic segment abstraction every
// record read and every index build goes through. A "segment" is a byte
// range of one data file addressed at the format's natural record
// granularity: the line offset for TextFile, the row-group offset plus
// in-group row position for RCFile. Index builders write through a
// SegmentWriter and record slice boundaries from Offset/Cut. Every read —
// whole-split table scans and index-guided slice reads alike — goes through
// a SegmentReader, opened per segment by mapreduce's one file reader; for
// RCFile it opens only the row groups starting inside the segment and — with
// a projection pushed down — fetches only the referenced columns' payloads.
// A reader delivers in one of two shapes. Record delivery (index builders)
// hands over one line or one decoded row at a time. Batch delivery (every
// query) hands over a ColumnBatch: one whole row group for RCFile, up to
// DefaultRowGroupRows lines for TextFile, only the projected columns decoded.
// A SegmentReader counts bytes only; seek and pruned-group accounting belong
// to the caller, which sees every SkipGroup decision it makes.

// SegmentRecord is one delivery of a SegmentReader. In record mode text
// formats fill Line (the encoded record) and columnar formats fill Row (the
// decoded, possibly projected record); in batch mode both fill Batch. Offset
// and RowInGroup locate the record at the format's granularity.
type SegmentRecord struct {
	// Line is the delimited text rendering (TextFile; nil for RCFile).
	Line []byte
	// Row is the decoded record (RCFile; nil for TextFile). Cells of
	// columns excluded by the reader's projection hold zero values.
	Row Row
	// Batch is one whole decoded row group (RCFile) or run of consecutive
	// lines (TextFile) in batch mode; nil otherwise. The reader reuses the
	// batch from one delivery to the next, so consumers must finish with it
	// before calling Next again.
	Batch *ColumnBatch
	// Offset is the record position Hive's indexes would record: the line
	// start for TextFile (a batch's first line), the row-group start for
	// RCFile.
	Offset int64
	// RowInGroup is the record's position within its row group (RCFile).
	RowInGroup int
}

// SegmentReader streams the records of one byte range of a data file.
type SegmentReader interface {
	// Next returns the next record; ok is false at segment end.
	Next() (rec SegmentRecord, ok bool, err error)
	// BytesRead is the logical byte volume fetched so far (projected
	// column payloads only for columnar formats).
	BytesRead() int64
}

// SegmentOptions tunes how a segment's boundaries and columns are read.
type SegmentOptions struct {
	// SkipFirst and InclusiveEnd select Hadoop's text split boundary rules
	// for edges that are arbitrary byte cuts (TextFile only; RCFile
	// ownership is always "group starts inside the range").
	SkipFirst    bool
	InclusiveEnd bool
	// Project keeps only the flagged columns: RCFile readers fetch only
	// their payloads, TextFile batches parse only their cells (nil keeps
	// everything).
	Project []bool
	// GroupOffsets lists the file's row-group start offsets (RCFile only;
	// loaded once per file via ReadGroupIndex and shared by the file's
	// segments).
	GroupOffsets []int64
	// Batch, when non-nil, selects batch delivery into it: one record per
	// row group (RCFile) or per run of up to DefaultRowGroupRows lines
	// (TextFile) with Batch set (Row and Line nil). A caller reading several
	// segments in turn shares one batch among them, so small segments do not
	// each pay for their own vectors.
	Batch *ColumnBatch
	// SkipGroup, when non-nil, is consulted before each row group is
	// fetched (RCFile only); a true return drops the group without reading
	// its payloads — the hook index offset filters and zone-map pruning
	// plug into.
	SkipGroup func(offset int64) bool
}

// NewSegmentReader opens the records of [start, end) of file r in the given
// format. The schema is required for RCFile decoding and for TextFile batch
// delivery; TextFile record delivery ignores it.
func NewSegmentReader(r *dfs.FileReader, schema *Schema, format Format, start, end int64, opts SegmentOptions) SegmentReader {
	if format == RCFile {
		// Own the groups starting inside [start, end); a clipped edge can
		// fall mid-group, in which case the group belongs to the segment
		// that contains its start offset.
		offs := opts.GroupOffsets
		lo := sort.Search(len(offs), func(i int) bool { return offs[i] >= start })
		hi := sort.Search(len(offs), func(i int) bool { return offs[i] >= end })
		return &rcSegmentReader{
			r:       r,
			schema:  schema,
			offsets: offs[lo:hi],
			project: opts.Project,
			skip:    opts.SkipGroup,
			batch:   opts.Batch,
		}
	}
	return &textSegmentReader{
		lr:      NewLineReaderOpts(r, start, end, opts.SkipFirst, opts.InclusiveEnd),
		schema:  schema,
		project: opts.Project,
		batch:   opts.Batch,
	}
}

type textSegmentReader struct {
	lr      *LineReader
	schema  *Schema
	project []bool
	batch   *ColumnBatch // non-nil selects batch delivery
}

func (t *textSegmentReader) Next() (SegmentRecord, bool, error) {
	line, off, ok := t.lr.Next()
	if !ok {
		return SegmentRecord{}, false, nil
	}
	if t.batch == nil {
		return SegmentRecord{Line: line, Offset: off}, true, nil
	}
	b := t.batch
	b.lines = append(append(b.lines[:0], line...), '\n')
	rows := 1
	for ; rows < DefaultRowGroupRows; rows++ {
		if line, _, ok = t.lr.Next(); !ok {
			break
		}
		b.lines = append(append(b.lines, line...), '\n')
	}
	if err := b.decodeTextLines(t.schema, t.project, rows); err != nil {
		return SegmentRecord{}, false, err
	}
	return SegmentRecord{Batch: b, Offset: off}, true, nil
}

func (t *textSegmentReader) BytesRead() int64 { return t.lr.BytesRead() }

type rcSegmentReader struct {
	r       *dfs.FileReader
	schema  *Schema
	offsets []int64
	project []bool
	skip    func(offset int64) bool
	batch   *ColumnBatch // non-nil selects batch delivery

	next      int // next index into offsets
	group     *RowGroup
	rows      []Row
	nextRow   int
	bytesRead int64
}

func (t *rcSegmentReader) Next() (SegmentRecord, bool, error) {
	for {
		if t.group != nil && t.nextRow < len(t.rows) {
			i := t.nextRow
			t.nextRow++
			return SegmentRecord{Row: t.rows[i], Offset: t.group.Offset, RowInGroup: i}, true, nil
		}
		if t.next >= len(t.offsets) {
			return SegmentRecord{}, false, nil
		}
		off := t.offsets[t.next]
		t.next++
		if t.skip != nil && t.skip(off) {
			continue
		}
		if t.batch != nil {
			read, err := ReadGroupColumns(t.r, off, t.schema, t.project, t.batch)
			if err != nil {
				return SegmentRecord{}, false, err
			}
			t.bytesRead += read
			return SegmentRecord{Batch: t.batch, Offset: off}, true, nil
		}
		g, read, err := ReadGroupProjected(t.r, off, t.project)
		if err != nil {
			return SegmentRecord{}, false, err
		}
		rows, err := g.DecodeRowsProjected(t.schema, t.project)
		if err != nil {
			return SegmentRecord{}, false, err
		}
		t.bytesRead += read
		t.group, t.rows, t.nextRow = g, rows, 0
	}
}

func (t *rcSegmentReader) BytesRead() int64 { return t.bytesRead }

// SegmentWriter writes the records of one data file sequentially and exposes
// positions at the format's slice granularity, so one index-build reducer
// works for every storage format.
type SegmentWriter interface {
	// WriteRecord appends one record, given in the form the format's
	// SegmentReader delivers: Line (the delimited text without the trailing
	// newline) for TextFile, the decoded Row for RCFile. A writer reads only
	// its own form and copies what it keeps, so the caller may reuse both.
	WriteRecord(rec SegmentRecord) error
	// Offset is the position the next record will occupy: the byte offset
	// of its line for TextFile, the start offset of its row group for
	// RCFile.
	Offset() int64
	// Cut forces the next record onto a fresh addressable position so a
	// slice boundary can fall exactly here: it flushes the pending row
	// group for RCFile and is a no-op for TextFile, where every line
	// already starts an addressable position.
	Cut() error
	// Close flushes the data and any side metadata (group index and column
	// statistics for RCFile).
	Close() error
}

// NewSegmentWriter creates the file at path and returns a writer for the
// format. groupRows sizes RCFile row groups (<= 0 selects the default).
func NewSegmentWriter(fs *dfs.FS, path string, schema *Schema, format Format, groupRows int) (SegmentWriter, error) {
	w, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	if format == RCFile {
		return &rcSegmentWriter{fs: fs, path: path, rw: NewRCWriter(w, schema, groupRows)}, nil
	}
	return &textSegmentWriter{tw: NewTextWriter(w)}, nil
}

type textSegmentWriter struct {
	tw *TextWriter
}

func (t *textSegmentWriter) WriteRecord(rec SegmentRecord) error { return t.tw.WriteLine(rec.Line) }
func (t *textSegmentWriter) Offset() int64                       { return t.tw.Offset() }
func (t *textSegmentWriter) Cut() error                          { return nil }
func (t *textSegmentWriter) Close() error                        { return t.tw.Close() }

type rcSegmentWriter struct {
	fs   *dfs.FS
	path string
	rw   *RCWriter
}

func (t *rcSegmentWriter) WriteRecord(rec SegmentRecord) error { return t.rw.WriteRow(rec.Row) }

func (t *rcSegmentWriter) Offset() int64 { return t.rw.Offset() }
func (t *rcSegmentWriter) Cut() error    { return t.rw.Flush() }

func (t *rcSegmentWriter) Close() error {
	if err := t.rw.Close(); err != nil {
		return err
	}
	if err := WriteGroupIndex(t.fs, t.path, t.rw.GroupOffsets()); err != nil {
		return err
	}
	return WriteColStats(t.fs, t.path, t.rw.GroupStats())
}
