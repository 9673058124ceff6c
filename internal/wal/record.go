// Package wal implements the fleet's one write path: one append-only
// write-ahead log per shard plus one applier that applies the log's records
// to the shard's stores one at a time, in LSN order. A record holds the rows
// of one load that routed to the shard, or one DDL statement's text, which
// every shard's log carries in its LSN sequence. A load acks once its
// records are appended (and, policy permitting, fsynced) and queued, so
// acks run at log speed while index maintenance happens at apply time; a
// restart rebuilds every shard, catalog included, from its log alone.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Record is one durable unit of a shard's log, stamped with the shard's next
// log sequence number: every row of one load that routed to the shard, or
// one DDL statement. A shard's stores apply the one LSN sequence of the
// shard's log.
type Record struct {
	LSN   uint64
	Table string
	Rows  []storage.Row
	// DDL is a DDL record's statement text (see hive.DDL), the table it
	// names in Table; a DDL record has no rows. Empty for a load.
	DDL string
}

// On-disk framing: u32 payload length | u32 CRC-32 (IEEE) of payload |
// payload. The payload stores the rows column by column:
//
//	u64   LSN (little-endian)
//	uvar  len(table) | table bytes
//	uvar  row count; when it is zero, a DDL record continues with
//	uvar  len(text) | text bytes (never empty); a load record ends here.
//	      When the row count is not zero:
//	uvar  column count: the widest row's cell count
//	byte  shapeFull: every row has every column; or shapeRagged: a uvar
//	      width per row follows
//	cols  column c holds cell c of every row that has one, in row order,
//	      behind a tag byte naming its layout:
//	      tagRuns           kind byte, svar min, uvar run count, per run
//	                        uvar (v − min) and uvar length
//	      tagFloat          per cell the 8-byte LE bits
//	      tagString         per cell uvar length + bytes
//	      tagMixed          per cell a kind byte and its plain value: svar
//	                        for int64, time and any other kind, 8-byte LE
//	                        bits for double, uvar length + bytes for string
//	      tagPacked         kind byte, svar min, byte w, then each cell's
//	                        offset v − min, packed at w bits
//	      tagPackedDecimal  byte e, svar min, byte w, then each cell's
//	                        mantissa m (the double float64(m)/10^e) as
//	                        m − min, packed at w bits
//
// A packed column of n cells takes ⌈n·w/8⌉ bytes: cell i's offset fills
// bits i·w to i·w+w−1, counting each byte from its low bit, and the bits
// after the last cell are zero. min is the column's least value and w the
// fewest bits that hold its greatest offset, at least 1; the decoder
// refuses any other min, w or padding. A runs column likewise has the
// column's least value as min and never two adjacent runs of one value, so
// a record has one spelling — but for one freedom kept for logs written
// before bit packing: the encoder writes runs only where they are shorter
// than packing (below), while the decoder reads runs either way.
//
// Int64 and time columns (and any kind other than double and string) take
// tagPacked or tagRuns, whichever is fewer bytes. A double column takes
// tagPackedDecimal when one e makes every cell bit-identical through the
// integer written — meter readings at 0.01 resolution cost about two
// bytes — and tagFloat otherwise (−0.0, NaN, ±Inf, subnormals, most
// random doubles). A column whose cells differ in kind is tagMixed.
//
// A torn tail (partial header, short payload, or CRC mismatch) marks the
// end of the recoverable log; OpenLog truncates it away. A frame that
// passes its CRC but does not decode is not a torn write, and recovery
// refuses the log instead (see scanRecords).
const frameHeaderLen = 8

// maxPayloadLen guards recovery against a torn header that happens to
// decode as an absurd length: anything larger is treated as corruption.
const maxPayloadLen = 1 << 30

// maxCellsPerByte bounds rows + cells of a record by its payload length,
// so a decoder sizes nothing it was not given bytes for. Without runs a
// column of n cells costs at least ⌈n/8⌉ bytes (a packed cell at least a
// bit, a cell of any other layout at least a byte), and a ragged record a
// byte a row besides, so k ≥ 1 full columns hold (1+k)·rows ≤ 16·k·rows/8:
// the bound is met exactly by one column of one-bit cells. Runs can beat
// it (a column of one repeated value costs a few bytes); encodePayload
// then encodes without runs.
const maxCellsPerByte = 16

// Row shapes.
const (
	shapeFull byte = iota
	shapeRagged
)

// Column layouts. Tags 0 and 2 named the varint layouts that integer and
// decimal columns took before they were bit-packed; the packed layouts
// take new tags so that no such column decodes as a packed one, and the
// decoder refuses 0 and 2.
const (
	tagVarintOffsets byte = iota
	tagRuns
	tagVarintDecimal
	tagFloat
	tagString
	tagMixed
	tagPacked
	tagPackedDecimal
)

// encodePayload renders rec's payload (without framing) into dst.
func encodePayload(dst []byte, rec Record) []byte {
	start := len(dst)
	dst, cells := appendBody(dst, rec, true)
	if len(rec.Rows)+cells > maxCellsPerByte*(len(dst)-start) {
		dst, _ = appendBody(dst[:start], rec, false)
	}
	return dst
}

// appendBody appends rec's payload, run-length encoding integer columns
// where that is smaller if runs is set, and reports the record's cell count.
func appendBody(dst []byte, rec Record, runs bool) ([]byte, int) {
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Table)))
	dst = append(dst, rec.Table...)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Rows)))
	if len(rec.Rows) == 0 {
		if rec.DDL != "" {
			dst = binary.AppendUvarint(dst, uint64(len(rec.DDL)))
			dst = append(dst, rec.DDL...)
		}
		return dst, 0
	}
	// One pass over the rows summarises every column, so each row is read
	// row-major once before the columns are written one by one.
	var fixed [8]colStats
	cols, cells := fixed[:0], 0
	for _, row := range rec.Rows {
		for len(cols) < len(row) {
			cols = append(cols, colStats{})
		}
		cells += len(row)
		for c := range row {
			cols[c].add(&row[c])
		}
	}
	width := len(cols)
	dst = binary.AppendUvarint(dst, uint64(width))
	if width > 0 && cells == width*len(rec.Rows) {
		dst = append(dst, shapeFull)
	} else {
		dst = append(dst, shapeRagged)
		for _, row := range rec.Rows {
			dst = binary.AppendUvarint(dst, uint64(len(row)))
		}
	}
	for c, st := range cols {
		dst = appendColumn(dst, rec.Rows, c, st, runs)
	}
	return dst, cells
}

// colStats summarises a column: its kind and, for an integer column, its
// range and how many runs of equal values it holds.
type colStats struct {
	n, nruns     int
	lo, hi, prev int64
	kind         storage.Kind
	mixed        bool
}

func (st *colStats) add(v *storage.Value) {
	switch {
	case st.n == 0:
		st.kind, st.lo, st.hi, st.prev, st.nruns = v.Kind, v.I, v.I, v.I, 1
	case v.Kind != st.kind:
		st.mixed = true
	default:
		st.lo, st.hi = min(st.lo, v.I), max(st.hi, v.I)
		if v.I != st.prev {
			st.nruns++
			st.prev = v.I
		}
	}
	st.n++
}

// appendColumn appends column c: cell c of every row that has one.
func appendColumn(dst []byte, rows []storage.Row, c int, st colStats, runs bool) []byte {
	switch {
	case st.mixed:
		dst = append(dst, tagMixed)
		for _, row := range rows {
			if c < len(row) {
				dst = appendCell(dst, row[c])
			}
		}
		return dst
	case st.kind == storage.KindFloat64:
		return appendFloats(dst, rows, c)
	case st.kind == storage.KindString:
		dst = append(dst, tagString)
		for _, row := range rows {
			if c < len(row) {
				dst = binary.AppendUvarint(dst, uint64(len(row[c].S)))
				dst = append(dst, row[c].S...)
			}
		}
		return dst
	}
	// Runs are chosen against packing by their exact byte count. A run
	// costs at least two bytes (first offset and length), so a column with
	// more runs than that affords is packed without trying them.
	lo, w := st.lo, storage.PackWidth(uint64(st.hi)-uint64(st.lo))
	packed, start := 1+storage.PackedLen(st.n, w), len(dst)
	if runs && 2*st.nruns < packed {
		dst = append(dst, tagRuns, byte(st.kind))
		dst = binary.AppendVarint(dst, lo)
		body := len(dst)
		dst = binary.AppendUvarint(dst, uint64(st.nruns))
		var prev int64
		length := 0
		for _, row := range rows {
			if c >= len(row) {
				continue
			}
			if v := row[c].I; length == 0 || v != prev {
				if length > 0 {
					dst = binary.AppendUvarint(dst, uint64(length))
				}
				dst = binary.AppendUvarint(dst, uint64(v)-uint64(lo))
				prev, length = v, 0
			}
			length++
		}
		if dst = binary.AppendUvarint(dst, uint64(length)); len(dst)-body < packed {
			return dst
		}
		dst = dst[:start]
	}
	dst = append(dst, tagPacked, byte(st.kind))
	var stack [stackCells]int64
	return storage.AppendPacked(dst, gather(stack[:0], rows, c, func(v *storage.Value) int64 { return v.I }), st.lo, st.hi)
}

// stackCells is how many cells of a column appendColumn gathers on its
// stack; a longer column is gathered into a slice of its own. A log keeps
// no scratch between appends: a large load would leave it holding the
// load's largest column.
const stackCells = 1024

// gather appends field(cell c) of every row that has one to dst.
func gather[T int64 | float64](dst []T, rows []storage.Row, c int, field func(*storage.Value) T) []T {
	for _, row := range rows {
		if c < len(row) {
			dst = append(dst, field(&row[c]))
		}
	}
	return dst
}

// appendFloats appends double column c: its mantissas packed at the
// smallest e that carries every cell (see storage.DecimalRange), or else
// raw bits.
func appendFloats(dst []byte, rows []storage.Row, c int) []byte {
	var stack [stackCells]float64
	vals := gather(stack[:0], rows, c, func(v *storage.Value) float64 { return v.F })
	e, lo, hi := storage.DecimalRange(vals)
	if e < 0 {
		dst = append(dst, tagFloat)
		for _, f := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst
	}
	dst = append(dst, tagPackedDecimal)
	return storage.AppendPackedDecimal(dst, vals, e, lo, hi)
}

// appendCell appends one cell of a tagMixed column.
func appendCell(dst []byte, v storage.Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case storage.KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case storage.KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	default: // int64, time (unix seconds in I), and any future I-backed kind
		return binary.AppendVarint(dst, v.I)
	}
}

// columnBuf is the typed scratch a record's packed columns unpack into on
// their way to its rows, kept by a replay across records so that it does
// not allocate one per record.
type columnBuf struct {
	ints   []int64
	floats []float64
}

// decodePayload parses one record payload produced by encodePayload. The
// record's cells share one arena; each row is a full slice of it, so an
// append to one row never writes into the next.
func decodePayload(buf []byte) (Record, error) {
	var b columnBuf
	return b.decodePayload(buf)
}

func (b *columnBuf) decodePayload(buf []byte) (Record, error) {
	var rec Record
	if len(buf) < 8 {
		return rec, fmt.Errorf("payload too short for LSN")
	}
	rec.LSN = binary.LittleEndian.Uint64(buf)
	d := decoder{buf: buf, off: 8, cols: b}
	limit := maxCellsPerByte * len(buf)
	rec.Table = string(d.next(d.count("table name length", len(buf))))
	rows := d.count("row count", limit)
	if d.err == nil && rows == 0 && d.off < len(buf) {
		if rec.DDL = string(d.next(d.count("DDL text length", len(buf)))); d.err == nil && rec.DDL == "" {
			d.fail("DDL record with empty text")
		}
	}
	if d.err != nil || rows == 0 {
		return rec, d.finish()
	}
	width := d.count("column count", limit)
	shape, widthsAt := d.u8(), d.off
	if d.err != nil {
		return rec, d.err
	}
	cells := 0
	switch shape {
	case shapeFull:
		if width == 0 || rows > (limit-rows)/width {
			return rec, fmt.Errorf("%d rows of %d columns exceed a %d-byte payload", rows, width, len(buf))
		}
		cells = rows * width
	case shapeRagged:
		widest := 0
		for i := 0; i < rows && d.err == nil; i++ {
			w := d.count("row width", width)
			widest = max(widest, w)
			if cells += w; rows+cells > limit {
				return rec, fmt.Errorf("%d rows of %d cells exceed a %d-byte payload", rows, cells, len(buf))
			}
		}
		if d.err == nil && widest != width {
			return rec, fmt.Errorf("widest row has %d cells, header says %d", widest, width)
		}
	default:
		d.fail("unknown row shape %d", shape)
	}
	if d.err != nil {
		return rec, d.err
	}
	arena := make([]storage.Value, cells)
	rec.Rows = make([]storage.Row, rows)
	widths := decoder{buf: buf, off: widthsAt}
	for i := range rec.Rows {
		w := width
		if shape == shapeRagged {
			w = int(widths.uvarint())
		}
		rec.Rows[i], arena = arena[:w:w], arena[w:]
	}
	for c := 0; c < width && d.err == nil; c++ {
		d.column(rec.Rows, c)
	}
	return rec, d.finish()
}

// decoder reads a payload front to back. Its first error sticks: every
// later read returns zero values, so callers check err once per section.
type decoder struct {
	buf  []byte
	off  int
	err  error
	cols *columnBuf
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.fail("%d trailing bytes after record", len(d.buf)-d.off)
	}
	return d.err
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("truncated record")
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

func (d *decoder) next(n int) []byte {
	if d.err != nil || len(d.buf)-d.off < n {
		d.fail("truncated record")
		return nil
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint that must not exceed limit.
func (d *decoder) count(what string, limit int) int {
	v := d.uvarint()
	if v > uint64(limit) {
		d.fail("%s %d exceeds %d", what, v, limit)
		return 0
	}
	return int(v)
}

// column fills cell c of every row that has one.
func (d *decoder) column(rows []storage.Row, c int) {
	switch tag := d.u8(); tag {
	case tagVarintOffsets, tagVarintDecimal:
		d.fail("column %d: layout %d is a varint column, written before columns were bit-packed", c, tag)
	case tagPacked, tagRuns:
		kind := storage.Kind(d.u8())
		if kind == storage.KindFloat64 || kind == storage.KindString {
			d.fail("column %d: integer layout for %v cells", c, kind)
			return
		}
		if tag == tagPacked {
			d.packed(rows, c, kind)
			return
		}
		d.runs(rows, c, kind, uint64(d.varint()))
	case tagPackedDecimal:
		d.packedDecimal(rows, c)
	case tagFloat:
		for _, row := range rows {
			if c < len(row) {
				if b := d.next(8); b != nil {
					row[c] = storage.Float64(math.Float64frombits(binary.LittleEndian.Uint64(b)))
				}
			}
		}
	case tagString:
		// One string holds the column's bytes; cells are substrings of it.
		start := d.off
		for _, row := range rows {
			if c < len(row) {
				d.next(d.count("string length", len(d.buf)))
			}
		}
		if d.err != nil {
			return
		}
		s, at := string(d.buf[start:d.off]), decoder{buf: d.buf[start:d.off]}
		for _, row := range rows {
			if c < len(row) {
				n := int(at.uvarint())
				row[c] = storage.Str(s[at.off : at.off+n])
				at.off += n
			}
		}
	case tagMixed:
		for _, row := range rows {
			if c < len(row) {
				row[c] = d.cell()
			}
		}
	default:
		d.fail("column %d: unknown layout %d", c, tag)
	}
}

// scratch returns the decoder's column scratch, made on first use for a
// decoder that was not handed one.
func (d *decoder) scratch() *columnBuf {
	if d.cols == nil {
		d.cols = new(columnBuf)
	}
	return d.cols
}

// cells counts the rows that have a cell c.
func cells(rows []storage.Row, c int) int {
	n := 0
	for _, row := range rows {
		if c < len(row) {
			n++
		}
	}
	return n
}

// packed fills cell c of every row that has one from a packed integer
// column (storage.UnpackInts, which refuses every spelling but the
// encoder's): it sets the cell's kind and its I. (The cells are zero;
// writing whole Values would also write their strings, behind a GC write
// barrier while the collector runs.)
func (d *decoder) packed(rows []storage.Row, c int, kind storage.Kind) {
	if d.err != nil {
		return
	}
	b := d.scratch()
	b.ints = slices.Grow(b.ints[:0], cells(rows, c))[:cells(rows, c)]
	n, err := storage.UnpackInts(d.buf[d.off:], b.ints)
	if err != nil {
		d.fail("column %d: %v", c, err)
		return
	}
	d.off += n
	i := 0
	for _, row := range rows {
		if c < len(row) {
			row[c].Kind, row[c].I = kind, b.ints[i]
			i++
		}
	}
}

// packedDecimal fills double column c from a packed decimal column
// (storage.UnpackDecimals), setting each cell's kind and F as packed does.
func (d *decoder) packedDecimal(rows []storage.Row, c int) {
	if d.err != nil {
		return
	}
	b := d.scratch()
	b.floats = slices.Grow(b.floats[:0], cells(rows, c))[:cells(rows, c)]
	n, err := storage.UnpackDecimals(d.buf[d.off:], b.floats)
	if err != nil {
		d.fail("column %d: %v", c, err)
		return
	}
	d.off += n
	i := 0
	for _, row := range rows {
		if c < len(row) {
			row[c].Kind, row[c].F = storage.KindFloat64, b.floats[i]
			i++
		}
	}
}

// runs fills integer column c from its runs, setting each cell's kind and
// I as packed does. It refuses a min no run has, a min + offset past
// math.MaxInt64 and two adjacent runs of one value. It reads runs where
// packing would be shorter, which the encoder never writes: a log written
// before columns were bit-packed holds such columns (runs were then chosen
// against one varint offset a cell) and must still replay.
func (d *decoder) runs(rows []storage.Row, c int, kind storage.Kind, lo uint64) {
	nruns := d.uvarint()
	r := 0
	least, most, prev := ^uint64(0), uint64(0), uint64(0)
	for i := uint64(0); i < nruns && d.err == nil; i++ {
		off := d.uvarint()
		length := d.uvarint()
		switch {
		case length == 0:
			d.fail("column %d: empty run", c)
		case i > 0 && off == prev:
			d.fail("column %d: two adjacent runs of one value", c)
		}
		least, most, prev = min(least, off), max(most, off), off
		for ; length > 0 && d.err == nil; length-- {
			for r < len(rows) && c >= len(rows[r]) {
				r++
			}
			if r == len(rows) {
				d.fail("column %d: runs cover more cells than the column has", c)
				return
			}
			rows[r][c].Kind, rows[r][c].I = kind, int64(lo+off)
			r++
		}
	}
	for ; r < len(rows) && d.err == nil; r++ {
		if c < len(rows[r]) {
			d.fail("column %d: runs cover fewer cells than the column has", c)
		}
	}
	switch {
	case d.err != nil:
	case least != 0:
		d.fail("column %d: min %d is below every run", c, int64(lo))
	case most > math.MaxInt64-lo:
		d.fail("column %d: min %d + offset %d overflows int64", c, int64(lo), most)
	}
}

// cell reads one cell of a tagMixed column.
func (d *decoder) cell() storage.Value {
	v := storage.Value{Kind: storage.Kind(d.u8())}
	switch v.Kind {
	case storage.KindFloat64:
		if b := d.next(8); b != nil {
			v.F = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	case storage.KindString:
		v.S = string(d.next(d.count("string length", len(d.buf))))
	default:
		v.I = d.varint()
	}
	return v
}

// encodeFrame renders the full framed record (header + payload) into dst.
func encodeFrame(dst []byte, rec Record) []byte {
	headerAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = encodePayload(dst, rec)
	payload := dst[headerAt+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[headerAt:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[headerAt+4:], crc32.ChecksumIEEE(payload))
	return dst
}
