package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Per-column encodings inside an encoded ('E') row group. Smart-grid meter
// data is massively redundant — low-cardinality dimensions and day-major
// timestamps — so storing every cell as plain text wastes both bytes and
// decode work. An encoded group keeps the 'R' layout (magic, uvarint
// rowCount, uvarint colCount, per-column uvarint payloadLen + payload) but
// every column payload opens with a one-byte encoding tag:
//
//	EncPlain  body = the legacy '\n'-joined text cells
//	EncDict   body = uvarint nEntries; nEntries × (uvarint len, bytes),
//	          sorted ascending; rowCount × uvarint code
//	EncRLE    body = runs of (uvarint runLen, uvarint valLen, valBytes)
//	          until rowCount cells are covered
//
// The writer picks the smallest representation per column and falls back to
// the legacy 'R' group (no tags at all) when every column stays plain, so
// incompressible data round-trips bit-identically with pre-encoding files.
// Recorded column lengths include the tag byte, which keeps the byte
// accounting of GroupStat.EncodedSize/ProjectedSize exact.
//
// EncDict is restricted to string columns: the dictionary is sorted
// lexicographically, and only for KindString does that order agree with
// Compare, letting range kernels order codes instead of values.
const (
	EncPlain byte = 0
	EncDict  byte = 1
	EncRLE   byte = 2
)

const rcEncodedMagic = 'E'

// EncodingName renders an encoding tag for EXPLAIN output and errors.
func EncodingName(enc byte) string {
	switch enc {
	case EncDict:
		return "dict"
	case EncRLE:
		return "rle"
	default:
		return "plain"
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

// forEachCell walks the logical cells of one column payload body, handed in
// as a string, under its encoding tag, delivering each cell's stored text in
// row order; the cells share text's backing. It is the row-at-a-time decode
// path and how ColumnBatch.Line indexes a numeric column's cells; vectorised
// decoding has encoding-specific fast paths in decodeColumn.
func forEachCell(enc byte, text string, rows int, fn func(r int, field string) error) error {
	switch enc {
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
