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
// where payload is the column's values rendered as text and joined by '\n'
// (an encoded 'E' group tags each payload with its encoding instead, see
// encoding.go). A group is addressed by where it would start in Hive's
// RCFile, which stores no column packed (see RowGroups).

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
// A row is buffered cell by cell into its group's columns and folded into
// the group's zone map in its column's kind (zoneAcc): no cell is copied or
// sent through Compare unless it, or a bound, is of another kind. A bigint,
// timestamp or double column keeps its cells typed while they are of its
// kind (numCol), so a group that packs the column never renders them; every
// other column, and such a column once a cell of another kind arrives,
// buffers the cells' text. A full group is encoded into the writer's batch,
// which is handed to the file in writes of about rcWriteBatch bytes and at
// Close: an indexed file flushes one small group per GFU, and every dfs
// write takes the filesystem's lock. Offset and GroupOffsets count the
// groups flushed, not the bytes the file holds yet, and count them in
// Hive's bytes (GroupStat.ChargedSize): they are the groups' addresses.
type RCWriter struct {
	w            *dfs.FileWriter
	schema       *Schema
	groupRows    int
	cols         [][]byte // pending column payloads as text (see numCol)
	nums         []numCol // pending typed cells, per column
	pending      int      // rows buffered
	off          int64    // address of the next group to be flushed
	groupOffsets []int64
	groupStats   []GroupStat
	zones        *zoneMaps // the flushed groups' zone maps
	acc          []zoneAcc // the pending group's per-column bounds
	noEncode     bool
	noPack       bool // HiveRCFile's writer: every column as Hive stores it
	cellScratch  []rawCell
	runScratch   []rawRun
	bodyScratch  [][]byte
	encScratch   [][]byte // per column, the storage its encoded bodies are built in
	tagScratch   []byte
	hiveScratch  []byte  // per column, the tag Hive's RCFile would give it
	hiveLens     []int64 // per column, the body Hive's RCFile would store
	lens         []int64 // storage the ColLens and Charged of groups to come are cut from
	encs         []byte  // storage the Encs and hiveEncs of groups to come are cut from
	batch        []byte  // flushed groups not yet written to the file
}

// numCol holds the pending cells of a bigint, timestamp or double column in
// the column's kind. typed says that ints (bigint, timestamp) or floats
// (double) hold every pending cell, text that the column's text payload
// does; at least one of them holds. A row written as text keeps its cells'
// text as given, so a column of such rows is both.
type numCol struct {
	typed, text bool
	ints        []int64
	floats      []float64
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
	n := schema.Len()
	rw := &RCWriter{
		w:           w,
		schema:      schema,
		zones:       newZoneMaps(kinds),
		groupRows:   groupRows,
		cols:        make([][]byte, n),
		nums:        make([]numCol, n),
		bodyScratch: make([][]byte, n),
		encScratch:  make([][]byte, n),
		tagScratch:  make([]byte, n),
		hiveScratch: make([]byte, n),
		hiveLens:    make([]int64, n),
		acc:         acc,
		off:         w.Size(),
	}
	rw.startGroup()
	return rw
}

// DisableEncoding forces every flushed group into the legacy plain-text 'R'
// layout (benchmark baselines and compatibility tests).
func (w *RCWriter) DisableEncoding() {
	w.noEncode = true
	for i := range w.cols {
		w.untype(i)
	}
}

// startGroup readies the columns for a group's first row: a bigint,
// timestamp or double column starts typed unless encoding is off.
func (w *RCWriter) startGroup() {
	for i := range w.cols {
		n := &w.nums[i]
		n.typed = !w.noEncode && !w.noPack && packedEnc(w.acc[i].kind) != EncPlain
		n.text = !n.typed
		n.ints, n.floats = n.ints[:0], n.floats[:0]
		w.cols[i] = w.cols[i][:0]
	}
}

// Offset returns the address of the row group that the *next* written row
// will belong to. This is the offset Hive's indexes record for a row.
func (w *RCWriter) Offset() int64 { return w.off }

// WriteRow buffers one row, flushing a full row group if needed.
func (w *RCWriter) WriteRow(row Row) error {
	if len(row) != w.schema.Len() {
		return fmt.Errorf("storage: row has %d fields, schema wants %d", len(row), w.schema.Len())
	}
	for i := range row {
		v, n := &row[i], &w.nums[i]
		if n.typed && v.Kind == w.acc[i].kind {
			n.add(v)
			if !n.text {
				continue
			}
		} else {
			w.untype(i)
		}
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
// record decoded, feeds the group's zone map and the typed cells a packed
// column is made of. A column packs only if every cell's text is exactly
// AppendText's of the typed cell; otherwise the text is stored.
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
		n := &w.nums[i]
		w.toText(i)
		if w.pending > 0 {
			w.cols[i] = append(w.cols[i], '\n')
		}
		w.cols[i] = append(w.cols[i], field...)
		if n.typed {
			if v := &row[i]; v.Kind == w.acc[i].kind {
				n.add(v)
			} else {
				n.typed = false
			}
		}
	}
	return w.rowDone(row)
}

// add appends a cell of the column's kind.
func (n *numCol) add(v *Value) {
	if v.Kind == KindFloat64 {
		n.floats = append(n.floats, v.F)
	} else {
		n.ints = append(n.ints, v.I)
	}
}

// toText renders column i's pending typed cells into its text payload
// unless that already holds them.
func (w *RCWriter) toText(i int) {
	n := &w.nums[i]
	if n.text {
		return
	}
	kind := w.acc[i].kind
	for r := 0; r < w.pending; r++ {
		if r > 0 {
			w.cols[i] = append(w.cols[i], '\n')
		}
		if kind == KindFloat64 {
			w.cols[i] = Float64(n.floats[r]).AppendText(w.cols[i])
		} else {
			w.cols[i] = Value{Kind: kind, I: n.ints[r]}.AppendText(w.cols[i])
		}
	}
	n.text = true
}

// untype moves column i to text for the rest of the group.
func (w *RCWriter) untype(i int) {
	w.toText(i)
	w.nums[i].typed = false
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
	// Pick the cheapest per-column representation: the text one Hive's
	// RCFile would store, or a packed one where that is smaller. The group
	// stays in the legacy 'R' layout (no tags) when every column is plain,
	// so data the encodings cannot compress round-trips bit-identically
	// with files written before encodings existed.
	tags, bodies, hive := w.tagScratch, w.bodyScratch, w.hiveScratch
	encoded, packed, hiveTagged := false, false, false
	for i := range w.cols {
		if w.nums[i].typed {
			if body, tag, hiveTag, hiveLen, ok := w.pack(i); ok {
				tags[i], bodies[i], hive[i], w.hiveLens[i] = tag, body, hiveTag, hiveLen
				w.encScratch[i] = body
				encoded, packed = true, true
				hiveTagged = hiveTagged || hiveTag != EncPlain
				continue
			}
			w.toText(i)
		}
		tags[i], bodies[i] = EncPlain, w.cols[i]
		if !w.noEncode {
			w.cellScratch = splitRawCells(w.cols[i], w.pending, w.cellScratch)
			tags[i], bodies[i], w.runScratch = encodeColumnBody(w.schema.Col(i).Kind, w.cols[i], w.pending, w.cellScratch, w.runScratch, w.encScratch[i])
			if tags[i] != EncPlain {
				w.encScratch[i] = bodies[i]
				encoded, hiveTagged = true, true
			}
		}
		hive[i], w.hiveLens[i] = tags[i], int64(len(bodies[i]))
	}
	n := len(w.cols)
	stat := GroupStat{
		Rows:    w.pending,
		ColLens: w.cutLens(n),
		zones:   w.zones,
		zone:    w.zones.add(),
	}
	if encoded {
		stat.Encs = w.cutEncs(n)
		copy(stat.Encs, tags)
	}
	if packed {
		stat.Charged, stat.hiveEncs = w.cutLens(n), w.cutEncs(n)
		copy(stat.hiveEncs, hive)
	}
	for i, body := range bodies {
		stat.ColLens[i] = int64(len(body))
		if encoded {
			stat.ColLens[i]++ // the encoding tag byte is part of the payload
		}
		if packed {
			stat.Charged[i] = w.hiveLens[i]
			if hiveTagged {
				stat.Charged[i]++
			}
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
	}
	w.batch = buf
	w.groupOffsets = append(w.groupOffsets, w.off)
	w.groupStats = append(w.groupStats, stat)
	w.off += stat.ChargedSize()
	w.pending = 0
	w.startGroup()
	return nil
}

// cutLens returns n lengths from the writer's stat storage.
func (w *RCWriter) cutLens(n int) []int64 {
	if len(w.lens) < n {
		w.lens = make([]int64, rcStatGroups*n)
	}
	l := w.lens[:n:n]
	w.lens = w.lens[n:]
	return l
}

// cutEncs returns n tags from the writer's stat storage.
func (w *RCWriter) cutEncs(n int) []byte {
	if len(w.encs) < n {
		w.encs = make([]byte, rcStatGroups*n)
	}
	e := w.encs[:n:n]
	w.encs = w.encs[n:]
	return e
}

// pack packs typed column i if it can and that is smaller than the text
// body Hive's RCFile would store, side file included: it returns the packed
// body and tag, and the tag and body length Hive's RCFile would have
// instead (hiveTag, hiveLen).
func (w *RCWriter) pack(i int) (body []byte, tag, hiveTag byte, hiveLen int64, ok bool) {
	n, kind := &w.nums[i], w.acc[i].kind
	var size int
	var e int
	var lo, hi int64
	if kind == KindFloat64 {
		if e, lo, hi = DecimalRange(n.floats); e < 0 {
			return nil, 0, 0, 0, false
		}
		size = 1 + PackedSize(len(n.floats), lo, hi)
		hiveTag, hiveLen = textBody(n.floats, floatTextLen)
	} else {
		var inRange bool
		if lo, hi, inRange = intRange(n.ints, kind); !inRange {
			return nil, 0, 0, 0, false
		}
		size = PackedSize(len(n.ints), lo, hi)
		if kind == KindTime {
			hiveTag, hiveLen = textBody(n.ints, timeTextLen)
		} else {
			hiveTag, hiveLen = textBody(n.ints, intTextLen)
		}
	}
	// The side file records hiveLen (and the tag) in a uvarint: packing
	// has to save more than that.
	if int64(size)+uvarintLen(uint64(hiveLen)<<1|1) >= hiveLen || (n.text && !w.textIsRendering(i)) {
		return nil, 0, 0, 0, false
	}
	if kind == KindFloat64 {
		return AppendPackedDecimal(w.encScratch[i][:0], n.floats, e, lo, hi), EncPackedDecimal, hiveTag, hiveLen, true
	}
	return AppendPacked(w.encScratch[i][:0], n.ints, lo, hi), EncPacked, hiveTag, hiveLen, true
}

// isIntText reports whether text is strconv's rendering of v, digit by
// digit from the last without rendering it.
func isIntText(text []byte, v int64) bool {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	i := len(text)
	for {
		if i--; i < 0 || text[i] != byte('0'+u%10) {
			return false
		}
		if u /= 10; u == 0 {
			break
		}
	}
	if v < 0 {
		i--
		if i < 0 || text[i] != '-' {
			return false
		}
	}
	return i == 0
}

// intRange returns the least and greatest of a bigint or timestamp
// column's cells; inRange is false for a timestamp outside the years
// 0000–9999, whose text a reader may not parse back.
func intRange(vals []int64, kind Kind) (lo, hi int64, inRange bool) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, kind != KindTime || (lo >= minLayoutUnix && hi <= maxLayoutUnix)
}

// textIsRendering reports whether typed column i's text payload is exactly
// its cells' AppendText renderings: the text a packed column renders back.
func (w *RCWriter) textIsRendering(i int) bool {
	n, kind := &w.nums[i], w.acc[i].kind
	var scratch [32]byte
	text := w.cols[i]
	for r := 0; r < w.pending; r++ {
		cell := text
		if k := bytes.IndexByte(text, '\n'); k >= 0 {
			cell, text = text[:k], text[k+1:]
		}
		switch kind {
		case KindInt64:
			if !isIntText(cell, n.ints[r]) {
				return false
			}
		case KindFloat64:
			if !bytes.Equal(cell, Float64(n.floats[r]).AppendText(scratch[:0])) {
				return false
			}
		default:
			if !bytes.Equal(cell, appendTimeText(scratch[:0], n.ints[r])) {
				return false
			}
		}
	}
	return true
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
	Offset  int64 // the group's address (see RowGroups)
	Size    int64 // the group's size on disk
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
		if enc := g.Enc(c); packedTag(enc) {
			// A packed column holds the typed cells themselves.
			v := ColumnVector{Kind: kind, Valid: true}
			if err := v.unpack(enc, g.columns[c], g.Rows); err != nil {
				return nil, err
			}
			for r := range rows {
				rows[r][c] = v.Value(r)
			}
			continue
		}
		err := forEachCell(kind, g.Enc(c), string(g.columns[c]), g.Rows, func(r int, field string) error {
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

// ReadGroupProjected decodes the row group at address offset (see
// RowGroups) of the RCFile r reads, fetching only the payloads of the
// columns whose project flag is set (nil fetches all). The second return
// value is the logical byte volume the read consumed, counted in Hive's
// bytes: the group header and every column's length varint are always
// paid, skipped payloads are not (GroupStat.ProjectedSize). With a nil
// projection it equals the group's ChargedSize.
func ReadGroupProjected(r *dfs.FileReader, offset int64, project []bool) (*RowGroup, int64, error) {
	groups, err := LoadRowGroups(r.FS(), r.Path())
	if err != nil {
		return nil, 0, err
	}
	return groups.read(r, offset, project)
}

// read reads the group at address offset (ReadGroupProjected).
func (gs *RowGroups) read(r *dfs.FileReader, offset int64, project []bool) (*RowGroup, int64, error) {
	i, ok := gs.find(offset)
	if !ok {
		return nil, 0, fmt.Errorf("storage: no row group of %s at %d", r.Path(), offset)
	}
	g, err := readGroupAt(r, gs.disk[i], project)
	if err != nil {
		return nil, 0, err
	}
	if st := gs.Stats[i]; g.Rows != st.Rows || len(g.columns) != len(st.ColLens) {
		return nil, 0, fmt.Errorf("storage: row group of %s at %d holds %d rows of %d columns, its stats %d of %d", r.Path(), offset, g.Rows, len(g.columns), st.Rows, len(st.ColLens))
	}
	g.Offset = offset
	return g, gs.Stats[i].ProjectedSize(project), nil
}

// readGroupAt decodes the row group stored at byte pos of the file,
// fetching only the flagged columns' payloads (nil fetches all). The
// group's Offset is pos until the caller sets its address.
func readGroupAt(r *dfs.FileReader, offset int64, project []bool) (*RowGroup, error) {
	// Read the header conservatively, then the column payloads exactly.
	hdr := make([]byte, 64)
	n, err := r.ReadAt(hdr, offset)
	if n == 0 {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("storage: rcfile header at %d: %w", offset, err)
	}
	hdr = hdr[:n]
	if hdr[0] != rcMagic && hdr[0] != rcEncodedMagic {
		return nil, fmt.Errorf("storage: bad rcfile magic %q at offset %d", hdr[0], offset)
	}
	encoded := hdr[0] == rcEncodedMagic
	p := 1
	rowCount, w := binary.Uvarint(hdr[p:])
	if w <= 0 {
		return nil, fmt.Errorf("storage: bad rcfile rowCount at %d", offset)
	}
	p += w
	colCount, w := binary.Uvarint(hdr[p:])
	if w <= 0 {
		return nil, fmt.Errorf("storage: bad rcfile colCount at %d", offset)
	}
	p += w
	// Sanity-bound the claimed shape before allocating by it: every column
	// costs at least its one-byte length varint, so more columns than bytes
	// left in the file is corruption, and a row count past maxGroupRows is a
	// header no writer produces.
	if rowCount > maxGroupRows {
		return nil, fmt.Errorf("storage: rcfile rowCount %d at %d exceeds the %d-row group bound", rowCount, offset, maxGroupRows)
	}
	if remaining := r.Size() - offset - int64(p); remaining < 0 || colCount > uint64(remaining) {
		return nil, fmt.Errorf("storage: rcfile colCount %d at %d exceeds file size", colCount, offset)
	}

	g := &RowGroup{Offset: offset, Rows: int(rowCount), columns: make([][]byte, colCount)}
	if encoded {
		g.encs = make([]byte, colCount)
	}
	pos := offset + int64(p)
	for c := 0; c < int(colCount); c++ {
		var lenBuf [binary.MaxVarintLen64]byte
		n, err := r.ReadAt(lenBuf[:], pos)
		if n == 0 {
			return nil, fmt.Errorf("storage: rcfile column %d header: %w", c, err)
		}
		plen, w := binary.Uvarint(lenBuf[:n])
		if w <= 0 {
			return nil, fmt.Errorf("storage: bad rcfile column %d length", c)
		}
		pos += int64(w)
		// A payload cannot extend past the file; reject the claimed length
		// before it sizes an allocation (or, via int conversion, wraps).
		if remaining := r.Size() - pos; remaining < 0 || plen > uint64(remaining) {
			return nil, fmt.Errorf("storage: rcfile column %d payload length %d exceeds file size", c, plen)
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
				return nil, err
			}
		}
		if encoded {
			// Encoded payloads open with their one-byte encoding tag.
			if plen == 0 {
				return nil, fmt.Errorf("storage: encoded rcfile column %d has empty payload", c)
			}
			g.encs[c] = payload[0]
			payload = payload[1:]
		}
		g.columns[c] = payload
		pos += int64(plen)
	}
	g.Size = pos - offset
	return g, nil
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
