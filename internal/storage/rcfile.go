package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// The RCFile model: data is stored as a sequence of row groups; within one
// row group values are stored column-major so that scans touching few
// columns read few bytes. Hive's Compact Index on an RCFile table records
// the *row-group start offset* as BLOCK_OFFSET_INSIDE_FILE, and the Bitmap
// Index additionally records each row's position within its group. Both
// behaviours are reproduced here.
//
// On-disk layout of one row group:
//
//	magic byte 'R'
//	uvarint rowCount
//	uvarint colCount
//	colCount times: uvarint payloadLen, payload
//
// where payload is the column's values rendered as text and joined by '\n'.

// DefaultRowGroupRows is the number of rows buffered into one row group.
// Hive's default RCFile row group is 4 MB; at benchmark scale a row-count
// bound keeps group sizes proportional.
const DefaultRowGroupRows = 1024

const rcMagic = 'R'

// maxGroupRows guards readers against a corrupt header whose row count
// would size the decode arena: no writer configuration produces groups
// anywhere near this large (the default is DefaultRowGroupRows).
const maxGroupRows = 1 << 20

// RCWriter writes rows to a dfs file in the RCFile model format.
type RCWriter struct {
	w            *dfs.FileWriter
	schema       *Schema
	groupRows    int
	cols         [][]byte // pending column payloads
	pending      int      // rows buffered
	off          int64    // file offset of the next group to be flushed
	groupOffsets []int64
	groupStats   []GroupStat
	zones        *zoneMaps // the flushed groups' zone maps
	mins, maxs   []Value   // running per-column min/max of the pending group
	statsInit    bool
	noEncode     bool
	cellScratch  []rawCell
	runScratch   []rawRun
	bodyScratch  [][]byte
	outScratch   []byte
}

// NewRCWriter creates a writer; groupRows <= 0 selects DefaultRowGroupRows.
func NewRCWriter(w *dfs.FileWriter, schema *Schema, groupRows int) *RCWriter {
	if groupRows <= 0 {
		groupRows = DefaultRowGroupRows
	}
	return &RCWriter{
		w:           w,
		schema:      schema,
		zones:       newZoneMaps(kindsOf(schema)),
		groupRows:   groupRows,
		cols:        make([][]byte, schema.Len()),
		bodyScratch: make([][]byte, schema.Len()),
		mins:        make([]Value, schema.Len()),
		maxs:        make([]Value, schema.Len()),
		off:         w.Size(),
	}
}

// DisableEncoding forces every flushed group into the legacy plain-text 'R'
// layout (benchmark baselines and compatibility tests).
func (w *RCWriter) DisableEncoding() { w.noEncode = true }

// Offset returns the file offset of the row group that the *next* written
// row will belong to. This is the offset Hive's indexes record for a row.
func (w *RCWriter) Offset() int64 { return w.off }

// WriteRow buffers one row, flushing a full row group if needed.
func (w *RCWriter) WriteRow(row Row) error {
	if len(row) != w.schema.Len() {
		return fmt.Errorf("storage: row has %d fields, schema wants %d", len(row), w.schema.Len())
	}
	for i, v := range row {
		if w.pending > 0 {
			w.cols[i] = append(w.cols[i], '\n')
		}
		w.cols[i] = v.AppendText(w.cols[i])
	}
	return w.rowDone(row)
}

// WriteRowText buffers one row whose cells are given as its text line (the
// row's AppendTextRow rendering without the newline), stored cell by cell as
// it is, so a row that arrives as text is not rendered again; row, the same
// record decoded, feeds only the group's zone map.
func (w *RCWriter) WriteRowText(line []byte, row Row) error {
	if len(row) != w.schema.Len() {
		return fmt.Errorf("storage: row has %d fields, schema wants %d", len(row), w.schema.Len())
	}
	rest := line
	last := len(w.cols) - 1
	for i := range w.cols {
		field := rest
		if i < last {
			j := bytes.IndexByte(rest, TextDelim)
			if j < 0 {
				return fmt.Errorf("storage: line has %d fields, schema wants %d: %q", i+1, len(w.cols), line)
			}
			field, rest = rest[:j], rest[j+1:]
		}
		if w.pending > 0 {
			w.cols[i] = append(w.cols[i], '\n')
		}
		w.cols[i] = append(w.cols[i], field...)
	}
	return w.rowDone(row)
}

// rowDone folds a buffered row into the pending group's zone map and flushes
// the group once it is full.
func (w *RCWriter) rowDone(row Row) error {
	if !w.statsInit {
		copy(w.mins, row)
		copy(w.maxs, row)
		w.statsInit = true
	} else {
		for i, v := range row {
			if Compare(v, w.mins[i]) < 0 {
				w.mins[i] = v
			}
			if Compare(v, w.maxs[i]) > 0 {
				w.maxs[i] = v
			}
		}
	}
	w.pending++
	if w.pending >= w.groupRows {
		return w.flushGroup()
	}
	return nil
}

func (w *RCWriter) flushGroup() error {
	if w.pending == 0 {
		return nil
	}
	// Pick the cheapest per-column representation. The group stays in the
	// legacy 'R' layout (no tags) when every column is plain, so data the
	// encodings cannot compress round-trips bit-identically with files
	// written before encodings existed.
	tags := make([]byte, len(w.cols))
	bodies := w.bodyScratch
	encoded := false
	for i := range w.cols {
		tags[i], bodies[i] = EncPlain, w.cols[i]
		if !w.noEncode {
			w.cellScratch = splitRawCells(w.cols[i], w.pending, w.cellScratch)
			tags[i], bodies[i], w.runScratch = encodeColumnBody(w.schema.Col(i).Kind, w.cols[i], w.pending, w.cellScratch, w.runScratch)
			if tags[i] != EncPlain {
				encoded = true
			}
		}
	}
	// The group is assembled in scratch the writer keeps: an indexed file
	// flushes one small group per GFU, and the file writer copies.
	buf := w.outScratch[:0]
	if encoded {
		buf = append(buf, rcEncodedMagic)
	} else {
		buf = append(buf, rcMagic)
	}
	buf = binary.AppendUvarint(buf, uint64(w.pending))
	buf = binary.AppendUvarint(buf, uint64(len(w.cols)))
	stat := GroupStat{
		Rows:    w.pending,
		ColLens: make([]int64, len(w.cols)),
		zones:   w.zones,
		zone:    w.zones.add(),
	}
	if encoded {
		stat.Encs = tags
	}
	for i := range w.cols {
		plen := len(bodies[i])
		if encoded {
			plen++ // the encoding tag byte is part of the payload
		}
		buf = binary.AppendUvarint(buf, uint64(plen))
		if encoded {
			buf = append(buf, tags[i])
		}
		buf = append(buf, bodies[i]...)
		stat.ColLens[i] = int64(plen)
		if lo, hi, ok := zoneOf(w.schema.Col(i).Kind, w.mins[i], w.maxs[i]); ok {
			w.zones.set(stat.zone, i, lo, hi)
		}
		w.cols[i] = w.cols[i][:0]
	}
	w.outScratch = buf
	w.groupOffsets = append(w.groupOffsets, w.off)
	w.groupStats = append(w.groupStats, stat)
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.off += int64(len(buf))
	w.pending = 0
	w.statsInit = false
	return nil
}

// Flush ends the current row group so that the next written row starts a new
// one; a writer with no buffered rows is left untouched. Index builders call
// this at slice boundaries so that every slice covers whole row groups.
func (w *RCWriter) Flush() error { return w.flushGroup() }

// GroupOffsets returns the start offsets of the groups flushed so far.
func (w *RCWriter) GroupOffsets() []int64 { return w.groupOffsets }

// GroupStats returns the per-group row counts, column payload sizes,
// encoding tags and zone maps of the groups flushed so far.
func (w *RCWriter) GroupStats() []GroupStat { return w.groupStats }

// Close flushes the final partial group and closes the file.
func (w *RCWriter) Close() error {
	if err := w.flushGroup(); err != nil {
		return err
	}
	return w.w.Close()
}

// RowGroup is one decoded row group.
type RowGroup struct {
	Offset  int64
	Size    int64 // encoded size in bytes
	Rows    int
	columns [][]byte // raw column payload bodies; values split lazily
	encs    []byte   // per-column encoding tags; nil for legacy 'R' groups
}

// Enc returns column i's encoding tag (EncPlain for legacy 'R' groups).
func (g *RowGroup) Enc(i int) byte {
	if g.encs == nil {
		return EncPlain
	}
	return g.encs[i]
}

// Column returns the text values of column i, one per row. Column panics for
// a column skipped by a projected read; use DecodeRows instead.
func (g *RowGroup) Column(i int) []string {
	if g.Rows == 0 {
		return nil
	}
	if g.columns[i] == nil {
		panic(fmt.Sprintf("storage: column %d was not read (projected row group)", i))
	}
	out := make([]string, 0, g.Rows)
	err := forEachCell(g.Enc(i), string(g.columns[i]), g.Rows, func(r int, field string) error {
		out = append(out, field)
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// DecodeRows materialises all rows of the group using the schema. Readers
// decode through ReadGroupColumns; this row decoder is the independent
// reference tests check it against.
func (g *RowGroup) DecodeRows(schema *Schema) ([]Row, error) {
	return g.decodeRowsProjected(schema, nil)
}

// decodeRowsProjected materialises the group's rows, decoding only the
// columns whose project flag is set (nil keeps every column). Cells of
// unprojected columns carry the column kind's zero value — callers that push
// a projection down promise never to read them.
//
// All cells live in one flat arena sliced into rows, and each column payload
// is copied into a single string the cells slice into, so decoding a group
// costs a fixed handful of allocations — rows, arena, one string per decoded
// column — independent of the row count.
func (g *RowGroup) decodeRowsProjected(schema *Schema, project []bool) ([]Row, error) {
	width := schema.Len()
	if len(g.columns) < width {
		return nil, fmt.Errorf("storage: row group has %d columns, schema wants %d", len(g.columns), width)
	}
	rows := make([]Row, g.Rows)
	if g.Rows == 0 {
		return rows, nil
	}
	arena := make([]Value, g.Rows*width)
	for r := range rows {
		rows[r] = Row(arena[r*width : (r+1)*width : (r+1)*width])
	}
	for c := 0; c < width; c++ {
		kind := schema.Col(c).Kind
		if project != nil && (c >= len(project) || !project[c]) {
			zv := ZeroValue(kind)
			for r := range rows {
				rows[r][c] = zv
			}
			continue
		}
		if g.columns[c] == nil {
			panic(fmt.Sprintf("storage: column %d was not read (projected row group)", c))
		}
		err := forEachCell(g.Enc(c), string(g.columns[c]), g.Rows, func(r int, field string) error {
			switch kind {
			case KindInt64:
				if n, ok := parseIntStr(field); ok {
					rows[r][c] = Int64(n)
					return nil
				}
				return fmt.Errorf("storage: parse bigint %q", field)
			case KindTime:
				if n, ok := parseIntStr(field); ok {
					rows[r][c] = TimeUnix(n)
					return nil
				}
				if n, ok := parseTimeStr(field); ok {
					rows[r][c] = TimeUnix(n)
					return nil
				}
				v, err := ParseTime(field)
				if err != nil {
					return err
				}
				rows[r][c] = v
				return nil
			default:
				v, err := ParseValue(kind, field)
				if err != nil {
					return err
				}
				rows[r][c] = v
				return nil
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// ReadGroupProjected decodes the row group starting at offset, fetching only
// the payloads of the columns whose project flag is set (nil fetches all).
// The second return value is the logical byte volume the read consumed: the
// group header and every column's length varint are always paid, skipped
// payloads are not. With a nil projection it equals the group's encoded size.
func ReadGroupProjected(r *dfs.FileReader, offset int64, project []bool) (*RowGroup, int64, error) {
	// Read the header conservatively, then the column payloads exactly.
	hdr := make([]byte, 64)
	n, err := r.ReadAt(hdr, offset)
	if n == 0 {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, fmt.Errorf("storage: rcfile header at %d: %w", offset, err)
	}
	hdr = hdr[:n]
	if hdr[0] != rcMagic && hdr[0] != rcEncodedMagic {
		return nil, 0, fmt.Errorf("storage: bad rcfile magic %q at offset %d", hdr[0], offset)
	}
	encoded := hdr[0] == rcEncodedMagic
	p := 1
	rowCount, w := binary.Uvarint(hdr[p:])
	if w <= 0 {
		return nil, 0, fmt.Errorf("storage: bad rcfile rowCount at %d", offset)
	}
	p += w
	colCount, w := binary.Uvarint(hdr[p:])
	if w <= 0 {
		return nil, 0, fmt.Errorf("storage: bad rcfile colCount at %d", offset)
	}
	p += w
	// Sanity-bound the claimed shape before allocating by it: every column
	// costs at least its one-byte length varint, so more columns than bytes
	// left in the file is corruption, and a row count past maxGroupRows is a
	// header no writer produces.
	if rowCount > maxGroupRows {
		return nil, 0, fmt.Errorf("storage: rcfile rowCount %d at %d exceeds the %d-row group bound", rowCount, offset, maxGroupRows)
	}
	if remaining := r.Size() - offset - int64(p); remaining < 0 || colCount > uint64(remaining) {
		return nil, 0, fmt.Errorf("storage: rcfile colCount %d at %d exceeds file size", colCount, offset)
	}

	g := &RowGroup{Offset: offset, Rows: int(rowCount), columns: make([][]byte, colCount)}
	if encoded {
		g.encs = make([]byte, colCount)
	}
	pos := offset + int64(p)
	read := int64(p)
	for c := 0; c < int(colCount); c++ {
		var lenBuf [binary.MaxVarintLen64]byte
		n, err := r.ReadAt(lenBuf[:], pos)
		if n == 0 {
			return nil, 0, fmt.Errorf("storage: rcfile column %d header: %w", c, err)
		}
		plen, w := binary.Uvarint(lenBuf[:n])
		if w <= 0 {
			return nil, 0, fmt.Errorf("storage: bad rcfile column %d length", c)
		}
		pos += int64(w)
		read += int64(w)
		// A payload cannot extend past the file; reject the claimed length
		// before it sizes an allocation (or, via int conversion, wraps).
		if remaining := r.Size() - pos; remaining < 0 || plen > uint64(remaining) {
			return nil, 0, fmt.Errorf("storage: rcfile column %d payload length %d exceeds file size", c, plen)
		}
		if project != nil && (c >= len(project) || !project[c]) {
			// Column-projection pushdown: skip the payload entirely; the
			// nil marker tells decodeRowsProjected the column is absent.
			pos += int64(plen)
			continue
		}
		payload := make([]byte, plen)
		if plen > 0 {
			if _, err := r.ReadAt(payload, pos); err != nil && err != io.EOF {
				return nil, 0, err
			}
		}
		if encoded {
			// Encoded payloads open with their one-byte encoding tag.
			if plen == 0 {
				return nil, 0, fmt.Errorf("storage: encoded rcfile column %d has empty payload", c)
			}
			g.encs[c] = payload[0]
			payload = payload[1:]
		}
		g.columns[c] = payload
		pos += int64(plen)
		read += int64(plen)
	}
	g.Size = pos - offset
	return g, read, nil
}

// Real RCFile interleaves sync markers so readers can find row-group
// boundaries from an arbitrary split offset. The model keeps the equivalent
// information in the column statistics side file, "<dir>/_colstats/<base>":
// it records each group's row count and column payload lengths, which fix the
// group's exact size, so the groups' start offsets are the running sums of
// those sizes (ReadGroups). The underscore directory is skipped by
// dfs.DirSplits (it only lists regular files directly under the table
// directory), exactly like Hadoop ignores "_logs"-style side directories.

// RCWriteOptions tunes WriteRCRowsOpts.
type RCWriteOptions struct {
	// DisableEncoding writes plain-text row groups unconditionally.
	DisableEncoding bool
}

// WriteRCRows writes rows to a new RCFile at path.
func WriteRCRows(fs *dfs.FS, path string, schema *Schema, rows []Row, groupRows int) ([]int64, error) {
	return WriteRCRowsOpts(fs, path, schema, rows, groupRows, RCWriteOptions{})
}

// WriteRCRowsOpts is WriteRCRows with writer options.
func WriteRCRowsOpts(fs *dfs.FS, path string, schema *Schema, rows []Row, groupRows int, opts RCWriteOptions) ([]int64, error) {
	w, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	rw := NewRCWriter(w, schema, groupRows)
	if opts.DisableEncoding {
		rw.DisableEncoding()
	}
	for _, r := range rows {
		if err := rw.WriteRow(r); err != nil {
			return nil, err
		}
	}
	if err := rw.Close(); err != nil {
		return nil, err
	}
	if err := WriteColStats(fs, path, schema, rw.GroupStats()); err != nil {
		return nil, err
	}
	return rw.GroupOffsets(), nil
}
