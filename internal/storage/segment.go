package storage

import (
	"sort"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// This file defines the storage-format-agnostic segment abstraction every
// record read and every index build goes through. A "segment" is a byte
// range of one data file addressed at the format's natural record
// granularity: the line offset for TextFile, the row-group offset plus
// in-group row position for RCFile, where offsets count Hive's bytes (the
// group addresses of RowGroups). Index builders write through a
// SegmentWriter and record slice boundaries from Offset/Cut. Every read —
// whole-split table scans, index builds and index-guided slice reads alike —
// goes through a SegmentReader, opened per segment by mapreduce's one file
// reader; for RCFile it opens only the row groups starting inside the segment
// and — with a projection pushed down — fetches only the referenced columns'
// payloads. A reader delivers one shape: a ColumnBatch holding one whole row
// group for RCFile, or up to DefaultRowGroupRows lines for TextFile, with only
// the projected columns decoded. The batch also answers, per row, the text
// line and the offset Hive's indexes record (ColumnBatch.Line, RowOffset).
// A SegmentReader counts bytes only; seek and pruned-group accounting belong
// to the caller, which sees every SkipGroup decision it makes.

// SegmentReader streams the batches of one byte range of a data file.
type SegmentReader interface {
	// Next decodes the next row group (RCFile) or run of lines (TextFile)
	// into the reader's batch and returns it; ok is false at segment end.
	// The batch is reused from one delivery to the next, so a consumer must
	// finish with it before calling Next again.
	Next() (batch *ColumnBatch, ok bool, err error)
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
	// Groups locates the file's row groups (RCFile only; loaded once per
	// file via LoadRowGroups and shared by the file's segments).
	Groups *RowGroups
	// Batch is the batch every delivery decodes into (required). A caller
	// reading several segments in turn shares one batch among them, so
	// small segments do not each pay for their own vectors.
	Batch *ColumnBatch
	// SkipGroup, when non-nil, is consulted before each row group is
	// fetched (RCFile only); a true return drops the group without reading
	// its payloads — the hook index offset filters and zone-map pruning
	// plug into.
	SkipGroup func(offset int64) bool
}

// NewSegmentReader opens the batches of [start, end) of file r in the given
// format, decoded under schema.
func NewSegmentReader(r *dfs.FileReader, schema *Schema, format Format, start, end int64, opts SegmentOptions) SegmentReader {
	if format == RCFile {
		// Own the groups starting inside [start, end); a clipped edge can
		// fall mid-group, in which case the group belongs to the segment
		// that contains its start offset.
		offs := opts.Groups.Offsets
		lo := sort.Search(len(offs), func(i int) bool { return offs[i] >= start })
		hi := sort.Search(len(offs), func(i int) bool { return offs[i] >= end })
		return &rcSegmentReader{
			r:       r,
			schema:  schema,
			groups:  opts.Groups,
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
	batch   *ColumnBatch
}

func (t *textSegmentReader) Next() (*ColumnBatch, bool, error) {
	b := t.batch
	b.lines, b.ends, b.offsets = b.lines[:0], b.ends[:0], b.offsets[:0]
	for len(b.ends) < DefaultRowGroupRows {
		line, off, ok := t.lr.Next()
		if !ok {
			break
		}
		b.lines = append(b.lines, line...)
		b.ends = append(b.ends, len(b.lines))
		b.offsets = append(b.offsets, off)
		b.lines = append(b.lines, '\n')
	}
	if len(b.ends) == 0 {
		return nil, false, nil
	}
	if err := b.decodeTextLines(t.schema, t.project); err != nil {
		return nil, false, err
	}
	return b, true, nil
}

func (t *textSegmentReader) BytesRead() int64 { return t.lr.BytesRead() }

type rcSegmentReader struct {
	r       *dfs.FileReader
	schema  *Schema
	groups  *RowGroups
	offsets []int64
	project []bool
	skip    func(offset int64) bool
	batch   *ColumnBatch

	next      int // next index into offsets
	bytesRead int64
}

func (t *rcSegmentReader) Next() (*ColumnBatch, bool, error) {
	for t.next < len(t.offsets) {
		off := t.offsets[t.next]
		t.next++
		if t.skip != nil && t.skip(off) {
			continue
		}
		read, err := t.groups.readColumns(t.r, off, t.schema, t.project, t.batch)
		if err != nil {
			return nil, false, err
		}
		t.bytesRead += read
		return t.batch, true, nil
	}
	return nil, false, nil
}

func (t *rcSegmentReader) BytesRead() int64 { return t.bytesRead }

// SegmentRecord is one record handed to a SegmentWriter: Line, the delimited
// text without the trailing newline, and Row, the same record decoded. Both
// formats store Line's text — a TextFile writer the line as it is, an RCFile
// writer each cell of it in its column — so a record is never rendered again
// on the way out. Line must therefore be the text form of Row's values (what
// AppendTextRow renders), which every line a build shuffles is: a TextFile's
// stored line, or ColumnBatch.Line over an RCFile group. Only the RCFile
// writer reads Row, for the group's zone-map minimum and maximum, which
// compare typed values.
type SegmentRecord struct {
	Line []byte
	Row  Row
}

// SegmentWriter writes the records of one data file sequentially and exposes
// positions at the format's slice granularity, so one index-build reducer
// works for every storage format.
type SegmentWriter interface {
	// WriteRecord appends one record. A writer copies what it keeps, so the
	// caller may reuse both Line and Row.
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
	// Close flushes the data and any side metadata (the column statistics
	// for RCFile).
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

func (t *rcSegmentWriter) WriteRecord(rec SegmentRecord) error {
	return t.rw.WriteRowText(rec.Line, rec.Row)
}

func (t *rcSegmentWriter) Offset() int64 { return t.rw.Offset() }
func (t *rcSegmentWriter) Cut() error    { return t.rw.Flush() }

func (t *rcSegmentWriter) Close() error {
	if err := t.rw.Close(); err != nil {
		return err
	}
	return WriteColStats(t.fs, t.path, t.rw.schema, t.rw.GroupStats())
}
