package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// Per-column encodings inside an encoded ('E') row group. Smart-grid meter
// data is massively redundant — low-cardinality dimensions, day-major
// timestamps, readings at 0.01 resolution — so storing every cell as plain
// text wastes both bytes and decode work. An encoded group keeps the 'R'
// layout (magic, uvarint rowCount, uvarint colCount, per-column uvarint
// payloadLen + payload) but every column payload opens with a one-byte
// encoding tag:
//
//	EncPlain          body = the legacy '\n'-joined text cells
//	EncDict           body = uvarint nEntries; nEntries × (uvarint len,
//	                  bytes), sorted ascending; rowCount × uvarint code
//	EncRLE            body = runs of (uvarint runLen, uvarint valLen,
//	                  valBytes) until rowCount cells are covered
//	EncPacked         body = a packed integer column of the cells (svar min,
//	                  width byte, offsets at w bits; see pack.go)
//	EncPackedDecimal  body = a packed decimal column of the cells (exponent
//	                  byte, svar min, width byte, mantissas at w bits)
//
// The writer picks the smallest text representation per column — what
// Hive's RCFile would store — and packs a bigint, timestamp or double
// column instead where that is smaller still and every cell reads back
// from the packed form as its text did: each cell of the column's kind, its
// text exactly AppendText's, no timestamp outside years 0000–9999, and, for
// a double column, one decimal exponent carrying every cell (no −0, NaN or
// ±Inf). A packed cell renders back to that text (ColumnBatch.Line), so
// every consumer of a row's text sees the bytes Hive's file would hold.
// The group stays in the legacy 'R' layout (no tags) when every column
// stays plain, so incompressible data round-trips bit-identically with
// pre-encoding files. Recorded column lengths include the tag byte.
//
// Packing changes the bytes on disk and nothing the model charges: the
// writer records, for every packed column, the length Hive's RCFile would
// have stored (GroupStat.Charged), and every simulated volume, split and
// size — and every offset above this package — is counted in those bytes.
//
// EncDict is restricted to string columns: the dictionary is sorted
// lexicographically, and only for KindString does that order agree with
// Compare, letting range kernels order codes instead of values.
const (
	EncPlain         byte = 0
	EncDict          byte = 1
	EncRLE           byte = 2
	EncPacked        byte = 3
	EncPackedDecimal byte = 4
)

const rcEncodedMagic = 'E'

// EncodingName renders an encoding tag for EXPLAIN output and errors.
func EncodingName(enc byte) string {
	switch enc {
	case EncDict:
		return "dict"
	case EncRLE:
		return "rle"
	case EncPacked, EncPackedDecimal:
		return "packed"
	default:
		return "plain"
	}
}

// packedTag reports whether tag names a packed layout.
func packedTag(tag byte) bool { return tag == EncPacked || tag == EncPackedDecimal }

// packedEnc is the packed layout a column of kind takes: EncPackedDecimal
// for a double, EncPacked for a bigint or timestamp, EncPlain (none) for a
// string.
func packedEnc(kind Kind) byte {
	switch kind {
	case KindFloat64:
		return EncPackedDecimal
	case KindString:
		return EncPlain
	default:
		return EncPacked
	}
}

// rawCell is one cell of a pending column payload, addressed into it.
type rawCell struct {
	start, len int
}

// splitRawCells locates the '\n'-joined cells of a pending column payload.
// Cells never contain '\n' (AppendText renders one line per value).
func splitRawCells(payload []byte, rows int, dst []rawCell) []rawCell {
	dst = dst[:0]
	start := 0
	for r := 0; r < rows; r++ {
		end := len(payload)
		if r+1 < rows {
			end = start + bytes.IndexByte(payload[start:], '\n')
		}
		dst = append(dst, rawCell{start: start, len: end - start})
		start = end + 1
	}
	return dst
}

// rawRun is a maximal run of identical adjacent cells of a pending payload.
type rawRun struct {
	cell  rawCell
	count int
}

// encodeColumnBody picks the cheapest encoding for one pending column
// payload and returns the tag plus the encoded body (the payload itself for
// EncPlain). Sizes compare encoded bodies only; the one-byte tag is paid by
// every column of an encoded group alike, so it cancels out of the choice.
// runs is scratch the caller keeps between calls (an indexed file flushes one
// small group per GFU); the possibly grown slice is handed back. An encoded
// body is built in dst's storage, which the caller may reuse once it has
// copied the body out.
func encodeColumnBody(kind Kind, payload []byte, rows int, cells []rawCell, runs []rawRun, dst []byte) (byte, []byte, []rawRun) {
	if rows == 0 {
		return EncPlain, payload, runs
	}
	cellText := func(c rawCell) []byte { return payload[c.start : c.start+c.len] }

	// Run-length candidate: collect maximal runs of identical adjacent
	// cells. ts loads day-major, so a whole group often collapses into a
	// single run.
	runs = runs[:0]
	var rleSize int64
	for _, c := range cells {
		if n := len(runs); n > 0 && bytes.Equal(cellText(runs[n-1].cell), cellText(c)) {
			runs[n-1].count++
			continue
		}
		runs = append(runs, rawRun{cell: c, count: 1})
		rleSize += uvarintLen(uint64(c.len)) + int64(c.len)
	}
	for _, r := range runs {
		rleSize += uvarintLen(uint64(r.count))
	}

	// Dictionary candidate (string columns only): distinct values sorted
	// ascending, cells become uvarint codes.
	var dictSize int64 = -1
	var entries []string
	var codeOf map[string]uint32
	if kind == KindString && len(runs) > 1 {
		distinct := make(map[string]struct{})
		overflow := false
		for _, c := range cells {
			if _, ok := distinct[string(cellText(c))]; !ok {
				distinct[string(cellText(c))] = struct{}{}
				if len(distinct) > rows/2+1 {
					// More than half the cells are distinct: a dictionary
					// cannot beat plain and the sort is wasted work.
					overflow = true
					break
				}
			}
		}
		if !overflow {
			entries = make([]string, 0, len(distinct))
			for v := range distinct {
				entries = append(entries, v)
			}
			sort.Strings(entries)
			codeOf = make(map[string]uint32, len(entries))
			dictSize = uvarintLen(uint64(len(entries)))
			for i, e := range entries {
				codeOf[e] = uint32(i)
				dictSize += uvarintLen(uint64(len(e))) + int64(len(e))
			}
			for _, c := range cells {
				dictSize += uvarintLen(uint64(codeOf[string(cellText(c))]))
			}
		}
	}

	best, bestSize := EncPlain, int64(len(payload))
	if rleSize < bestSize {
		best, bestSize = EncRLE, rleSize
	}
	if dictSize >= 0 && dictSize < bestSize {
		best, bestSize = EncDict, dictSize
	}

	var tmp [binary.MaxVarintLen64]byte
	putUv := func(body []byte, v uint64) []byte {
		n := binary.PutUvarint(tmp[:], v)
		return append(body, tmp[:n]...)
	}
	switch best {
	case EncRLE:
		body := slices.Grow(dst[:0], int(bestSize))
		for _, r := range runs {
			body = putUv(body, uint64(r.count))
			body = putUv(body, uint64(r.cell.len))
			body = append(body, cellText(r.cell)...)
		}
		return EncRLE, body, runs
	case EncDict:
		body := slices.Grow(dst[:0], int(bestSize))
		body = putUv(body, uint64(len(entries)))
		for _, e := range entries {
			body = putUv(body, uint64(len(e)))
			body = append(body, e...)
		}
		for _, c := range cells {
			body = putUv(body, uint64(codeOf[string(cellText(c))]))
		}
		return EncDict, body, runs
	default:
		return EncPlain, payload, runs
	}
}

// textBody returns the tag and body length encodeColumnBody gives the
// rendered text of typed cells, whose renderings' lengths textLen tells:
// plain, or run-length where that is smaller. Cells of a packable column
// render alike exactly when they are equal (it holds no NaN and no −0), so
// the runs are the runs of equal values.
func textBody[T int64 | float64](vals []T, textLen func(T) int64) (byte, int64) {
	plain, rle := int64(len(vals)-1), int64(0)
	for r := 0; r < len(vals); {
		end := r + 1
		for end < len(vals) && vals[end] == vals[r] {
			end++
		}
		l, count := textLen(vals[r]), end-r
		plain += int64(count) * l
		rle += uvarintLen(uint64(count)) + uvarintLen(uint64(l)) + l
		r = end
	}
	if rle < plain {
		return EncRLE, rle
	}
	return EncPlain, plain
}

// intTextLen is len(Int64(v).AppendText(nil)).
func intTextLen(v int64) int64 {
	n, u := int64(1), uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// timeTextLen is len(TimeUnix(v).AppendText(nil)) for v within years
// 0000–9999: a date at midnight, a date and time otherwise.
func timeTextLen(v int64) int64 {
	if v%secondsPerDay == 0 {
		return int64(len(dateLayout))
	}
	return int64(len(dateTimeLayout))
}

// floatTextLen is len(Float64(f).AppendText(nil)), worked out without
// rendering for whole cents (appendCents).
func floatTextLen(f float64) int64 {
	if f > 0 && f < maxCentsText {
		if c := int64(f*100 + 0.5); float64(c)/100 == f {
			n := intTextLen(c / 100)
			switch frac := c % 100; {
			case frac == 0:
			case frac%10 == 0:
				n += 2
			default:
				n += 3
			}
			return n
		}
	}
	var buf [32]byte
	return int64(len(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)))
}

// uvarintStr decodes a uvarint from s starting at pos without allocating.
// Returns the value and the number of bytes consumed (0 on corruption).
func uvarintStr(s string, pos int) (uint64, int) {
	var x uint64
	var shift uint
	for i := pos; i < len(s); i++ {
		b := s[i]
		if b < 0x80 {
			if shift >= 64 {
				return 0, 0
			}
			return x | uint64(b)<<shift, i - pos + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, 0
		}
	}
	return 0, 0
}

// dictHeader decodes a dictionary body's entry table, appending the entries
// to dst (reusing its capacity). The entries slice into text's backing, so
// decoding a dictionary column allocates once for the body's string
// conversion plus (amortised) the entries slice. Returns the entries and the
// position where the code stream begins.
func dictHeader(text string, dst []string) ([]string, int, error) {
	n, w := uvarintStr(text, 0)
	if w <= 0 {
		return nil, 0, fmt.Errorf("storage: corrupt dictionary column")
	}
	pos := w
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		l, w := uvarintStr(text, pos)
		// Compare in uint64: int(l) can wrap negative for absurd lengths
		// and sail past an int-typed bounds check into a slice panic.
		if w <= 0 || l > uint64(len(text)-pos-w) {
			return nil, 0, fmt.Errorf("storage: corrupt dictionary column")
		}
		pos += w
		dst = append(dst, text[pos:pos+int(l)])
		pos += int(l)
	}
	return dst, pos, nil
}

// forEachCell walks the logical cells of one column payload body of a
// column of kind, handed in as a string, under its encoding tag, delivering
// each cell's stored text in row order; the cells share text's backing. A
// packed cell's text is its rendering, the text it was packed from. It is
// the row-at-a-time decode path and how ColumnBatch.Line indexes a numeric
// column's cells; vectorised decoding has encoding-specific fast paths in
// decodeColumn.
func forEachCell(kind Kind, enc byte, text string, rows int, fn func(r int, field string) error) error {
	switch enc {
	case EncPacked, EncPackedDecimal:
		v := ColumnVector{Kind: kind, Valid: true}
		if err := v.unpack(enc, []byte(text), rows); err != nil {
			return err
		}
		var buf []byte
		for r := 0; r < rows; r++ {
			buf = v.Value(r).AppendText(buf[:0])
			if err := fn(r, string(buf)); err != nil {
				return err
			}
		}
		return nil
	case EncDict:
		dict, pos, err := dictHeader(text, nil)
		if err != nil {
			return err
		}
		for r := 0; r < rows; r++ {
			code, w := uvarintStr(text, pos)
			if w <= 0 || code >= uint64(len(dict)) {
				return fmt.Errorf("storage: corrupt dictionary column")
			}
			pos += w
			if err := fn(r, dict[code]); err != nil {
				return err
			}
		}
		return nil
	case EncRLE:
		pos, r := 0, 0
		for r < rows {
			count, w := uvarintStr(text, pos)
			if w <= 0 {
				return fmt.Errorf("storage: corrupt run-length column")
			}
			pos += w
			l, w := uvarintStr(text, pos)
			if w <= 0 || l > uint64(len(text)-pos-w) {
				return fmt.Errorf("storage: corrupt run-length column")
			}
			pos += w
			val := text[pos : pos+int(l)]
			pos += int(l)
			for j := uint64(0); j < count && r < rows; j++ {
				if err := fn(r, val); err != nil {
					return err
				}
				r++
			}
		}
		if r != rows {
			return fmt.Errorf("storage: run-length column covers %d rows, expected %d", r, rows)
		}
		return nil
	default:
		return forEachField(text, rows, fn)
	}
}
