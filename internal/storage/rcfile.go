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
//
// A row is buffered cell by cell into its group's column payloads and folded
// into the group's zone map in its column's kind (zoneAcc): no cell is
// copied or sent through Compare unless it, or a bound, is of another kind.
// A full group is encoded into the writer's batch, which is handed to the
// file in writes of about rcWriteBatch bytes and at Close: an indexed file
// flushes one small group per GFU, and every dfs write takes the
// filesystem's lock. Offset and GroupOffsets count the groups flushed, not
// the bytes the file holds yet.
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
	acc          []zoneAcc // the pending group's per-column bounds
	noEncode     bool
	cellScratch  []rawCell
	runScratch   []rawRun
	bodyScratch  [][]byte
	encScratch   [][]byte // per column, the storage its encoded bodies are built in
	tagScratch   []byte
	lens         []int64 // storage the ColLens of groups to come are cut from
	encs         []byte  // storage the Encs of groups to come are cut from
	batch        []byte  // flushed groups not yet written to the file
}

// rcStatGroups is how many groups' ColLens and Encs an RCWriter allocates at
// once: a DGF build flushes a small group per cell.
const rcStatGroups = 128

// rcWriteBatch is the size of the batch in which an RCWriter hands its
// flushed groups to the file (a larger group gets a batch of its own size).
const rcWriteBatch = 64 << 10

// NewRCWriter creates a writer; groupRows <= 0 selects DefaultRowGroupRows.
func NewRCWriter(w *dfs.FileWriter, schema *Schema, groupRows int) *RCWriter {
	if groupRows <= 0 {
		groupRows = DefaultRowGroupRows
	}
	kinds := kindsOf(schema)
	acc := make([]zoneAcc, len(kinds))
	for i, k := range kinds {
		acc[i].kind = k
	}
	return &RCWriter{
		w:           w,
		schema:      schema,
		zones:       newZoneMaps(kinds),
		groupRows:   groupRows,
		cols:        make([][]byte, schema.Len()),
		bodyScratch: make([][]byte, schema.Len()),
		encScratch:  make([][]byte, schema.Len()),
		tagScratch:  make([]byte, schema.Len()),
		acc:         acc,
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
	if w.pending == 0 {
		for i := range row {
			w.acc[i].start(&row[i])
		}
	} else {
		for i := range row {
			a, v := &w.acc[i], &row[i]
			if !a.typed || v.Kind != a.kind {
				a.addMixed(v)
				continue
			}
			// Compare's order, in the column's kind: bigint and timestamp
			// cells compare as doubles, a NaN never orders before or after
			// anything, strings compare bytewise.
			switch a.kind {
			case KindInt64, KindTime:
				f := float64(v.I)
				if f < float64(a.lo.I) {
					a.lo.I = v.I
				}
				if f > float64(a.hi.I) {
					a.hi.I = v.I
				}
			case KindFloat64:
				if v.F < a.lo.F {
					a.lo.F = v.F
				}
				if v.F > a.hi.F {
					a.hi.F = v.F
				}
			case KindString:
				if v.S < a.lo.S {
					a.lo.S = v.S
				}
				if v.S > a.hi.S {
					a.hi.S = v.S
				}
			default:
				a.addMixed(v)
			}
		}
	}
	w.pending++
	if w.pending >= w.groupRows {
		return w.flushGroup()
	}
	return nil
}

// zoneAcc is one column's least and greatest cell by Compare over the
// pending group. While typed — both bounds of the column's kind — a cell of
// that kind moves a bound by its one field (rowDone); any other cell goes
// through Compare.
type zoneAcc struct {
	kind   Kind
	typed  bool
	lo, hi Value
}

// start makes v both bounds: the group's first cell.
func (a *zoneAcc) start(v *Value) {
	a.lo, a.hi = *v, *v
	a.typed = v.Kind == a.kind
}

// addMixed folds v in by Compare.
func (a *zoneAcc) addMixed(v *Value) {
	if Compare(*v, a.lo) < 0 {
		a.lo = *v
	}
	if Compare(*v, a.hi) > 0 {
		a.hi = *v
	}
	a.typed = a.lo.Kind == a.kind && a.hi.Kind == a.kind
}

func (w *RCWriter) flushGroup() error {
	if w.pending == 0 {
		return nil
	}
	// Pick the cheapest per-column representation. The group stays in the
	// legacy 'R' layout (no tags) when every column is plain, so data the
	// encodings cannot compress round-trips bit-identically with files
	// written before encodings existed.
	tags, bodies := w.tagScratch, w.bodyScratch
	encoded := false
	for i := range w.cols {
		tags[i], bodies[i] = EncPlain, w.cols[i]
		if !w.noEncode {
			w.cellScratch = splitRawCells(w.cols[i], w.pending, w.cellScratch)
			tags[i], bodies[i], w.runScratch = encodeColumnBody(w.schema.Col(i).Kind, w.cols[i], w.pending, w.cellScratch, w.runScratch, w.encScratch[i])
			if tags[i] != EncPlain {
				w.encScratch[i] = bodies[i]
				encoded = true
			}
		}
	}
	n := len(w.cols)
	if len(w.lens) < n {
		w.lens = make([]int64, rcStatGroups*n)
	}
	stat := GroupStat{
		Rows:    w.pending,
		ColLens: w.lens[:n:n],
		zones:   w.zones,
		zone:    w.zones.add(),
	}
	w.lens = w.lens[n:]
	if encoded {
		if len(w.encs) < n {
			w.encs = make([]byte, rcStatGroups*n)
		}
		stat.Encs, w.encs = w.encs[:n:n], w.encs[n:]
		copy(stat.Encs, tags)
	}
	for i, body := range bodies {
		stat.ColLens[i] = int64(len(body))
		if encoded {
			stat.ColLens[i]++ // the encoding tag byte is part of the payload
		}
	}
	// The group goes into the batch whole; a batch without room for it is
	// written first.
	size := int(stat.EncodedSize())
	if len(w.batch)+size > cap(w.batch) {
		if err := w.writeBatch(); err != nil {
			return err
		}
		if size > cap(w.batch) {
			w.batch = make([]byte, 0, max(size, rcWriteBatch))
		}
	}
	buf := w.batch
	if encoded {
		buf = append(buf, rcEncodedMagic)
	} else {
		buf = append(buf, rcMagic)
	}
	buf = binary.AppendUvarint(buf, uint64(w.pending))
	buf = binary.AppendUvarint(buf, uint64(len(w.cols)))
	for i := range w.cols {
		buf = binary.AppendUvarint(buf, uint64(stat.ColLens[i]))
		if encoded {
			buf = append(buf, tags[i])
		}
		buf = append(buf, bodies[i]...)
		a := &w.acc[i]
		if lo, hi, ok := zoneOf(a.kind, a.lo, a.hi); ok {
			w.zones.set(stat.zone, i, lo, hi)
		}
		w.cols[i] = w.cols[i][:0]
	}
	w.batch = buf
	w.groupOffsets = append(w.groupOffsets, w.off)
	w.groupStats = append(w.groupStats, stat)
	w.off += int64(size)
	w.pending = 0
	return nil
}

// writeBatch hands the flushed groups the file does not hold yet to it.
func (w *RCWriter) writeBatch() error {
	if len(w.batch) == 0 {
		return nil
	}
	_, err := w.w.Write(w.batch)
	w.batch = w.batch[:0]
	return err
}

// Flush ends the current row group so that the next written row starts a new
// one; a writer with no buffered rows is left untouched. Index builders call
// this at slice boundaries so that every slice covers whole row groups. The
// group reaches the file with its batch, by Close at the latest.
func (w *RCWriter) Flush() error { return w.flushGroup() }

// GroupOffsets returns the start offsets of the groups flushed so far.
func (w *RCWriter) GroupOffsets() []int64 { return w.groupOffsets }

// GroupStats returns the per-group row counts, column payload sizes,
// encoding tags and zone maps of the groups flushed so far.
func (w *RCWriter) GroupStats() []GroupStat { return w.groupStats }

// Close flushes the final partial group, writes what the file does not hold
// yet and closes it.
func (w *RCWriter) Close() error {
	if err := w.flushGroup(); err != nil {
		return err
	}
	if err := w.writeBatch(); err != nil {
		return err
	}
	w.batch = nil
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
