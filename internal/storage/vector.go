package storage

import (
	"fmt"
	"math"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// This file is the batch shape every query mapper reads: instead of
// materialising one Row per record, a reader decodes a whole RCFile row group
// — or a run of TextFile lines — into typed column vectors (one slice per
// projected column), and predicate kernels shrink a selection vector over
// those slices before any row exists. The batch and its vectors are reused
// from one delivery to the next, so the steady-state decode loop allocates
// once per column payload (RCFile) or once per batch of lines (TextFile) —
// the bytes→string copy cells slice into — never per cell.

// ColumnVector holds one column of a decoded row group in its natural
// representation: int64 for bigint and timestamp columns, float64 for
// double, string for string. Only the slice matching Kind is populated.
//
// Encoded columns keep their encoded shape instead of expanding to one
// value per row where that wins work: a dictionary column (Enc == EncDict)
// fills Dict and Codes and leaves Strs empty — predicate kernels compare
// codes against one binary search of the dictionary instead of per-row
// strings. A run-length column (Enc == EncRLE) expands into the typed slice
// (one parse per run) and additionally records the run boundaries in
// RunEnds so kernels can accept or reject whole runs. A packed column
// (Enc == EncPacked or EncPackedDecimal) unpacks straight into the typed
// slice.
type ColumnVector struct {
	Kind Kind
	// Valid is false for columns the projection skipped; their slices are
	// empty and callers must substitute the kind's zero value.
	Valid  bool
	Ints   []int64
	Floats []float64
	Strs   []string
	// Enc is the column's storage encoding for this group.
	Enc byte
	// Dict and Codes carry a dictionary column: Dict is sorted ascending,
	// Codes holds one dictionary ordinal per row.
	Dict  []string
	Codes []uint32
	// RunEnds holds the exclusive end row of each run of a run-length
	// column (empty otherwise).
	RunEnds []int32

	// body is the column payload body the vector was decoded from, as one
	// string; every cell, dictionary entry and run value slices into it.
	// cells holds each row's stored text for a plain or run-length numeric
	// column, indexed from body on the batch's first Line call (string
	// columns already keep theirs in Strs and Dict).
	body  string
	cells []string
}

// Value materialises cell row of the vector (zero value when !Valid).
func (v *ColumnVector) Value(row int) Value {
	if !v.Valid {
		return ZeroValue(v.Kind)
	}
	switch v.Kind {
	case KindFloat64:
		return Float64(v.Floats[row])
	case KindString:
		if v.Enc == EncDict {
			return Str(v.Dict[v.Codes[row]])
		}
		return Str(v.Strs[row])
	case KindTime:
		return TimeUnix(v.Ints[row])
	default:
		return Int64(v.Ints[row])
	}
}

// grow sizes the typed slice matching the vector's kind to rows cells,
// reusing its backing array.
func (v *ColumnVector) grow(rows int) {
	switch v.Kind {
	case KindFloat64:
		if cap(v.Floats) < rows {
			v.Floats = make([]float64, rows)
		}
		v.Floats = v.Floats[:rows]
	case KindString:
		if cap(v.Strs) < rows {
			v.Strs = make([]string, rows)
		}
		v.Strs = v.Strs[:rows]
	default:
		if cap(v.Ints) < rows {
			v.Ints = make([]int64, rows)
		}
		v.Ints = v.Ints[:rows]
	}
}

// ColumnBatch is one row group (RCFile) or one run of lines (TextFile)
// decoded column-wise. Readers reuse the same batch (and its vectors' backing
// arrays) for every delivery, so a consumer must finish with a batch before
// asking for the next one.
type ColumnBatch struct {
	// Rows is the number of rows in the batch.
	Rows int
	// Cols holds one vector per schema column, aligned by position.
	Cols []ColumnVector

	sel []int // selection vector, refilled per delivery
	row Row   // row-materialisation scratch, reused per delivery

	// A TextFile batch keeps its lines as stored, each '\n'-terminated, with
	// where each ends in lines (at its '\n') and the file offset it starts
	// at; an RCFile batch (ends empty) keeps its row group's start offset.
	lines   []byte
	ends    []int
	offsets []int64
	group   int64
	text    []byte // Line's assembly scratch (RCFile)
	indexed bool   // the vectors' cells are indexed for Line (RCFile)
}

// NewColumnBatch sizes a batch for the schema (vectors fill lazily).
func NewColumnBatch(schema *Schema) *ColumnBatch {
	b := &ColumnBatch{Cols: make([]ColumnVector, schema.Len()), row: make(Row, schema.Len())}
	for i := range b.Cols {
		b.Cols[i].Kind = schema.Col(i).Kind
	}
	return b
}

// Sel returns the batch's selection vector: the row positions still in play,
// ascending. A decode selects every row, a reader's row filter narrows that
// (Select), and predicate kernels then shrink the slice in place.
func (b *ColumnBatch) Sel() []int { return b.sel }

// Select narrows the selection to the positions keep admits.
func (b *ColumnBatch) Select(keep func(row int) bool) {
	out := b.sel[:0]
	for _, i := range b.sel {
		if keep(i) {
			out = append(out, i)
		}
	}
	b.sel = out
}

// selectAll sizes the batch to rows and selects every one of them.
func (b *ColumnBatch) selectAll(rows int) {
	b.Rows = rows
	if cap(b.sel) < rows {
		b.sel = make([]int, rows)
	}
	b.sel = b.sel[:rows]
	for i := range b.sel {
		b.sel[i] = i
	}
}

// MaterialiseRow fills the batch's scratch row with the cells of row ri
// (zero values in unprojected columns) and returns it. The same backing
// slice is returned every call; callers that retain rows must copy.
func (b *ColumnBatch) MaterialiseRow(ri int) Row {
	for c := range b.Cols {
		b.row[c] = b.Cols[c].Value(ri)
	}
	return b.row
}

// Line returns row ri's delimited text without the trailing newline: the
// stored bytes for a TextFile batch, the row group's stored cell texts joined
// by TextDelim for an RCFile one, a packed cell rendered (the text it was
// packed from, byte for byte). The RCFile writer stores each cell as
// AppendText renders it, so either way the line is the text form of the
// row's values (AppendTextRow without the newline): the index builds shuffle
// it, and the RCFile segment writer stores its cells as they are. A cell of
// an unprojected column renders as its kind's zero value. The first call on
// an RCFile delivery indexes its numeric columns' cells, so a reader that
// never asks for a line pays nothing. The slice is valid until the next call
// or delivery.
func (b *ColumnBatch) Line(ri int) []byte {
	if len(b.ends) == 0 {
		if !b.indexed {
			for c := range b.Cols {
				b.Cols[c].indexCells(b.Rows)
			}
			b.indexed = true
		}
		b.text = b.text[:0]
		for c := range b.Cols {
			if c > 0 {
				b.text = append(b.text, TextDelim)
			}
			b.text = b.Cols[c].appendCell(b.text, ri)
		}
		return b.text
	}
	start := 0
	if ri > 0 {
		start = b.ends[ri-1] + 1
	}
	return b.lines[start:b.ends[ri]]
}

// RowOffset returns row ri's BLOCK_OFFSET_INSIDE_FILE, the offset Hive's
// indexes record: its line start for TextFile, its row group's start for
// RCFile (where ri is then the row's position in the group).
func (b *ColumnBatch) RowOffset(ri int) int64 {
	if len(b.ends) == 0 {
		return b.group
	}
	return b.offsets[ri]
}

// appendCell appends the stored text of row ri: the dictionary entry, the
// string cell, or the indexed cell of a numeric column. A column the
// projection skipped, or one whose cells did not index, renders the value.
func (v *ColumnVector) appendCell(dst []byte, ri int) []byte {
	switch {
	case !v.Valid:
		return v.Value(ri).AppendText(dst)
	case v.Enc == EncDict:
		return append(dst, v.Dict[v.Codes[ri]]...)
	case v.Kind == KindString:
		return append(dst, v.Strs[ri]...)
	case ri < len(v.cells):
		return append(dst, v.cells[ri]...)
	default:
		return v.Value(ri).AppendText(dst)
	}
}

// indexCells points cells at each row's stored text for a plain or
// run-length numeric column decoded from text, reusing the slice. The decode
// already checked the payload's shape, so a body that does not split into
// rows cells leaves cells short and appendCell renders instead; so does a
// packed column, whose cells render as the text it was packed from.
func (v *ColumnVector) indexCells(rows int) {
	v.cells = v.cells[:0]
	if !v.Valid || v.Kind == KindString || v.Enc == EncDict || packedTag(v.Enc) {
		return
	}
	if cap(v.cells) < rows {
		v.cells = make([]string, 0, rows)
	}
	_ = forEachCell(v.Kind, v.Enc, v.body, rows, func(r int, field string) error {
		v.cells = append(v.cells, field)
		return nil
	})
}

// parseIntStr parses a decimal int64 from field without allocating; ok is
// false for anything that is not a plain optionally-signed integer, or that
// does not fit an int64. Where ok, the result is strconv.ParseInt's.
func parseIntStr[T string | []byte](field T) (int64, bool) {
	if len(field) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if field[0] == '-' || field[0] == '+' {
		neg = field[0] == '-'
		i++
		if i == len(field) {
			return 0, false
		}
	}
	// The magnitude accumulates unsigned so that -2^63 fits, and each digit
	// is refused before it could carry the magnitude past limit.
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var n uint64
	for ; i < len(field); i++ {
		d := uint64(field[i]) - '0'
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// forEachField walks the '\n'-joined cells of one column payload. The
// payload is handed in as a string — converted from the raw bytes once per
// column — so the field substrings passed to fn share its backing and cost
// nothing, and a string cell can keep its field without copying.
func forEachField(payload string, rows int, fn func(r int, field string) error) error {
	start := 0
	for r := 0; r < rows; r++ {
		field := payload[start:]
		if r+1 < rows {
			k := strings.IndexByte(field, '\n')
			if k < 0 {
				return fmt.Errorf("storage: column payload has %d rows, expected %d", r+1, rows)
			}
			field = field[:k]
			start += k + 1
		}
		if err := fn(r, field); err != nil {
			return err
		}
	}
	return nil
}

// decodeColumn fills vector v from the column's raw payload body under its
// encoding tag, reusing the vector's backing arrays. The payload is copied
// into one string per column; every cell (or dictionary entry, or run
// value) then parses from a substring of it, so the per-cell loop does not
// allocate for any column kind.
func decodeColumn(v *ColumnVector, enc byte, payload []byte, rows int) error {
	v.Valid = true
	v.Enc = enc
	v.Dict, v.Codes, v.RunEnds, v.cells = v.Dict[:0], v.Codes[:0], v.RunEnds[:0], v.cells[:0]
	if packedTag(enc) {
		v.body = ""
		return v.unpack(enc, payload, rows)
	}
	text := string(payload)
	v.body = text
	switch enc {
	case EncDict:
		if v.Kind != KindString {
			return fmt.Errorf("storage: dictionary encoding on non-string column")
		}
		var pos int
		var err error
		v.Dict, pos, err = dictHeader(text, v.Dict)
		if err != nil {
			return err
		}
		if cap(v.Codes) < rows {
			v.Codes = make([]uint32, rows)
		}
		v.Codes = v.Codes[:rows]
		for r := 0; r < rows; r++ {
			code, w := uvarintStr(text, pos)
			if w <= 0 || code >= uint64(len(v.Dict)) {
				return fmt.Errorf("storage: corrupt dictionary column")
			}
			v.Codes[r] = uint32(code)
			pos += w
		}
		v.Strs = v.Strs[:0]
		return nil
	case EncRLE:
		return v.decodeRLE(text, rows)
	}
	v.grow(rows)
	switch v.Kind {
	case KindFloat64:
		return forEachField(text, rows, func(r int, field string) error {
			f, err := parseDouble(field)
			if err != nil {
				return err
			}
			v.Floats[r] = f
			return nil
		})
	case KindString:
		return forEachField(text, rows, func(r int, field string) error {
			v.Strs[r] = field
			return nil
		})
	case KindTime:
		return forEachField(text, rows, func(r int, field string) error {
			if n, ok := parseIntStr(field); ok {
				v.Ints[r] = n
				return nil
			}
			if n, ok := parseTimeStr(field); ok {
				v.Ints[r] = n
				return nil
			}
			pv, err := ParseTime(field)
			if err != nil {
				return err
			}
			v.Ints[r] = pv.I
			return nil
		})
	default: // KindInt64
		return forEachField(text, rows, func(r int, field string) error {
			n, ok := parseIntStr(field)
			if !ok {
				return fmt.Errorf("storage: parse bigint %q", field)
			}
			v.Ints[r] = n
			return nil
		})
	}
}

// unpack fills the vector's typed slice from a packed body holding
// exactly rows cells.
func (v *ColumnVector) unpack(enc byte, body []byte, rows int) error {
	if enc != packedEnc(v.Kind) {
		return fmt.Errorf("storage: packed body (tag %d) on a %v column", enc, v.Kind)
	}
	v.grow(rows)
	var n int
	var err error
	if enc == EncPackedDecimal {
		n, err = UnpackDecimals(body, v.Floats)
	} else {
		n, err = UnpackInts(body, v.Ints)
	}
	switch {
	case err != nil:
		return fmt.Errorf("storage: %w", err)
	case n != len(body):
		return fmt.Errorf("storage: %d bytes after a packed column", len(body)-n)
	}
	return nil
}

// decodeRLE expands a run-length body into the vector's typed slice — one
// parse per run, not per row — and records run boundaries in RunEnds.
func (v *ColumnVector) decodeRLE(text string, rows int) error {
	v.grow(rows)
	pos, r := 0, 0
	for r < rows {
		count, w := uvarintStr(text, pos)
		if w <= 0 {
			return fmt.Errorf("storage: corrupt run-length column")
		}
		pos += w
		l, w := uvarintStr(text, pos)
		if w <= 0 || pos+w+int(l) > len(text) {
			return fmt.Errorf("storage: corrupt run-length column")
		}
		pos += w
		val := text[pos : pos+int(l)]
		pos += int(l)
		end := r + int(count)
		if end > rows {
			end = rows
		}
		switch v.Kind {
		case KindFloat64:
			f, err := parseDouble(val)
			if err != nil {
				return err
			}
			for ; r < end; r++ {
				v.Floats[r] = f
			}
		case KindString:
			for ; r < end; r++ {
				v.Strs[r] = val
			}
		case KindTime:
			n, ok := parseIntStr(val)
			if !ok {
				if n, ok = parseTimeStr(val); !ok {
					pv, err := ParseTime(val)
					if err != nil {
						return err
					}
					n = pv.I
				}
			}
			for ; r < end; r++ {
				v.Ints[r] = n
			}
		default:
			n, ok := parseIntStr(val)
			if !ok {
				return fmt.Errorf("storage: parse bigint %q", val)
			}
			for ; r < end; r++ {
				v.Ints[r] = n
			}
		}
		v.RunEnds = append(v.RunEnds, int32(end))
	}
	return nil
}

// ReadGroupColumns decodes the row group at address offset into batch,
// fetching and decoding only the columns whose project flag is set (nil
// decodes all). The batch's vectors are reused across calls. The returned
// byte count is the same logical read volume ReadGroupProjected reports.
func ReadGroupColumns(r *dfs.FileReader, offset int64, schema *Schema, project []bool, batch *ColumnBatch) (int64, error) {
	groups, err := LoadRowGroups(r.FS(), r.Path())
	if err != nil {
		return 0, err
	}
	return groups.readColumns(r, offset, schema, project, batch)
}

// readColumns reads the group at address offset into batch
// (ReadGroupColumns).
func (gs *RowGroups) readColumns(r *dfs.FileReader, offset int64, schema *Schema, project []bool, batch *ColumnBatch) (int64, error) {
	g, read, err := gs.read(r, offset, project)
	if err != nil {
		return 0, err
	}
	if len(g.columns) != len(batch.Cols) {
		return 0, fmt.Errorf("storage: group at %d has %d columns, schema wants %d", offset, len(g.columns), len(batch.Cols))
	}
	batch.selectAll(g.Rows)
	batch.group, batch.ends, batch.offsets = offset, batch.ends[:0], batch.offsets[:0]
	batch.indexed = false
	for c := range batch.Cols {
		v := &batch.Cols[c]
		v.Kind = schema.Col(c).Kind
		if g.columns[c] == nil {
			v.Valid = false
			v.Enc, v.body = EncPlain, ""
			v.Ints, v.Floats, v.Strs = v.Ints[:0], v.Floats[:0], v.Strs[:0]
			v.Dict, v.Codes, v.RunEnds, v.cells = v.Dict[:0], v.Codes[:0], v.RunEnds[:0], v.cells[:0]
			continue
		}
		if err := decodeColumn(v, g.Enc(c), g.columns[c], g.Rows); err != nil {
			return 0, fmt.Errorf("storage: group at %d column %d: %w", offset, c, err)
		}
	}
	return read, nil
}

// decodeTextLines fills the batch from the lines gathered in b.lines (one per
// entry of b.ends): plain vectors for the projected columns (nil projects
// all), each cell parsed exactly as DecodeTextRow would. Every line's field
// count is checked whether or not its cells are wanted. String cells alias
// the one string copy of the lines.
func (b *ColumnBatch) decodeTextLines(schema *Schema, project []bool) error {
	text := string(b.lines)
	rows := len(b.ends)
	b.selectAll(rows)
	for c := range b.Cols {
		v := &b.Cols[c]
		if v.Valid = project == nil || project[c]; v.Valid {
			v.grow(rows)
		}
	}
	start := 0
	for r, end := range b.ends {
		if err := DecodeTextRowInto(schema, text[start:end], project, b.row); err != nil {
			return err
		}
		start = end + 1
		for c := range b.Cols {
			v := &b.Cols[c]
			if !v.Valid {
				continue
			}
			switch v.Kind {
			case KindFloat64:
				v.Floats[r] = b.row[c].F
			case KindString:
				v.Strs[r] = b.row[c].S
			default:
				v.Ints[r] = b.row[c].I
			}
		}
	}
	return nil
}
