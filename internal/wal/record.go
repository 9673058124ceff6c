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
	"math/bits"

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
//	      tagOffsets  kind byte, svar min, per cell uvar (v − min)
//	      tagRuns     kind byte, svar min, uvar run count, per run
//	                  uvar (v − min) and uvar length
//	      tagDecimal  byte e, per cell svar m: the double float64(m)/10^e
//	      tagFloat    per cell the 8-byte LE bits
//	      tagString   per cell uvar length + bytes
//	      tagMixed    per cell a kind byte and its plain value: svar for
//	                  int64, time and any other kind, 8-byte LE bits for
//	                  double, uvar length + bytes for string
//
// Int64 and time columns (and any kind other than double and string) take
// tagOffsets or tagRuns, whichever is smaller. A double column takes
// tagDecimal when one e makes every cell bit-identical through the integer
// written — meter readings at 0.01 resolution cost two or three bytes — and
// tagFloat otherwise (−0.0, NaN, ±Inf, subnormals, most random doubles). A
// column whose cells differ in kind is tagMixed.
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
// so a decoder sizes nothing it was not given bytes for. Runs can beat the
// bound (a column of one repeated value costs a few bytes); encodePayload
// then encodes without runs, where every cell and row costs a byte.
const maxCellsPerByte = 16

// Row shapes.
const (
	shapeFull byte = iota
	shapeRagged
)

// Column layouts.
const (
	tagOffsets byte = iota
	tagRuns
	tagDecimal
	tagFloat
	tagString
	tagMixed
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
	lo := st.lo
	if runs && runsSmaller(rows, c, st) {
		dst = append(dst, tagRuns, byte(st.kind))
		dst = binary.AppendVarint(dst, lo)
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
		return binary.AppendUvarint(dst, uint64(length))
	}
	dst = append(dst, tagOffsets, byte(st.kind))
	dst = binary.AppendVarint(dst, lo)
	for _, row := range rows {
		if c < len(row) {
			dst = binary.AppendUvarint(dst, uint64(row[c].I)-uint64(lo))
		}
	}
	return dst
}

// runsSmaller reports whether integer column c costs fewer bytes as runs
// than as one offset per cell. With n cells in nruns runs, an offset costs
// 1 to w bytes, and a run its first offset plus 1 to uvarintLen(n) bytes of
// length, so runs save at most (n−nruns)·w − nruns bytes and cost at most
// nruns·(w+uvarintLen(n)): the bounds settle most columns (keys, regions,
// one timestamp) without another pass.
func runsSmaller(rows []storage.Row, c int, st colStats) bool {
	n, nruns, lo := st.n, st.nruns, st.lo
	w := uvarintLen(uint64(st.hi) - uint64(lo))
	switch {
	case nruns >= (n-nruns)*w:
		return false
	case uvarintLen(uint64(nruns))+nruns*(w+uvarintLen(uint64(n))) < n:
		return true
	}
	offsets, runs := 0, uvarintLen(uint64(nruns))
	var prev int64
	length := 0
	for _, row := range rows {
		if c >= len(row) {
			continue
		}
		v := row[c].I
		l := uvarintLen(uint64(v) - uint64(lo))
		offsets += l
		if length == 0 || v != prev {
			if length > 0 {
				runs += uvarintLen(uint64(length))
			}
			runs += l
			prev, length = v, 0
		}
		length++
	}
	return runs+uvarintLen(uint64(length)) < offsets
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendFloats appends double column c in one pass: the exponent e is
// guessed from the first cell, and every cell is checked through the
// integer actually written. A cell that needs a larger e restarts the
// column with it; a cell no e up to storage.MaxDecimalExp carries makes the
// column raw bits.
func appendFloats(dst []byte, rows []storage.Row, c int) []byte {
	start := len(dst)
	e := -1
	for _, row := range rows {
		if c < len(row) {
			e = storage.DecimalExp(row[c].F, 0)
			break
		}
	}
encode:
	for e >= 0 {
		dst = append(dst[:start], tagDecimal, byte(e))
		for _, row := range rows {
			if c >= len(row) {
				continue
			}
			m, ok := storage.Decimal(row[c].F, e)
			if !ok {
				e = storage.DecimalExp(row[c].F, e+1)
				continue encode
			}
			dst = binary.AppendVarint(dst, m)
		}
		return dst
	}
	dst = append(dst[:start], tagFloat)
	for _, row := range rows {
		if c < len(row) {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(row[c].F))
		}
	}
	return dst
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

// decodePayload parses one record payload produced by encodePayload. The
// record's cells share one arena; each row is a full slice of it, so an
// append to one row never writes into the next.
func decodePayload(buf []byte) (Record, error) {
	var rec Record
	if len(buf) < 8 {
		return rec, fmt.Errorf("payload too short for LSN")
	}
	rec.LSN = binary.LittleEndian.Uint64(buf)
	d := decoder{buf: buf, off: 8}
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
	buf []byte
	off int
	err error
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
	case tagOffsets, tagRuns:
		kind := storage.Kind(d.u8())
		if kind == storage.KindFloat64 || kind == storage.KindString {
			d.fail("column %d: integer layout for %v cells", c, kind)
			return
		}
		lo := uint64(d.varint())
		if tag == tagOffsets {
			for _, row := range rows {
				if c < len(row) {
					row[c] = storage.Value{Kind: kind, I: int64(lo + d.uvarint())}
				}
			}
			return
		}
		d.runs(rows, c, kind, lo)
	case tagDecimal:
		e := d.u8()
		if e > storage.MaxDecimalExp {
			d.fail("column %d: decimal exponent %d exceeds %d", c, e, storage.MaxDecimalExp)
			return
		}
		p := storage.Pow10(int(e))
		for _, row := range rows {
			if c < len(row) {
				row[c] = storage.Float64(float64(d.varint()) / p)
			}
		}
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

// runs fills integer column c from its runs.
func (d *decoder) runs(rows []storage.Row, c int, kind storage.Kind, lo uint64) {
	nruns := d.uvarint()
	r := 0
	for ; nruns > 0 && d.err == nil; nruns-- {
		v := int64(lo + d.uvarint())
		length := d.uvarint()
		if length == 0 {
			d.fail("column %d: empty run", c)
		}
		for ; length > 0 && d.err == nil; length-- {
			for r < len(rows) && c >= len(rows[r]) {
				r++
			}
			if r == len(rows) {
				d.fail("column %d: runs cover more cells than the column has", c)
				return
			}
			rows[r][c] = storage.Value{Kind: kind, I: v}
			r++
		}
	}
	for ; r < len(rows) && d.err == nil; r++ {
		if c < len(rows[r]) {
			d.fail("column %d: runs cover fewer cells than the column has", c)
		}
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
