package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// packCase is one random file: its schema, its rows, how each row reaches
// the writer (as typed cells, or as a text line whose cells may be spelled
// other than AppendText would) and its row-group size.
type packCase struct {
	schema    *Schema
	rows      []Row
	lines     [][]byte // nil: written with WriteRow
	groupRows int
}

const packDay = 1354320000 // 2012-12-01 00:00:00 UTC

// packCell draws a cell for a column of kind: mostly of that kind, from
// runs, ranges and the values a lossy codec gets wrong, and now and then of
// another kind whose text the column reads back.
func packCell(rng *rand.Rand, kind Kind, r int) Value {
	switch kind {
	case KindInt64:
		switch rng.Intn(9) {
		case 0:
			return Int64([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 53, -(1<<53 + 1)}[rng.Intn(6)])
		case 1:
			return Float64(float64(rng.Intn(50))) // renders as a bigint's text
		case 2, 3:
			return Int64(int64(r / 4)) // runs
		default:
			return Int64(int64(rng.Intn(1000)) - 300)
		}
	case KindTime:
		switch rng.Intn(9) {
		case 0:
			return TimeUnix([]int64{minLayoutUnix, maxLayoutUnix, minLayoutUnix - 1, maxLayoutUnix + 1}[rng.Intn(4)])
		case 1:
			return Int64(packDay + int64(rng.Intn(3))*86400) // read back as seconds
		case 2, 3:
			return TimeUnix(packDay + int64(r/5)*86400) // day-major runs of midnights
		default:
			return TimeUnix(packDay + int64(rng.Intn(3*86400)))
		}
	case KindFloat64:
		switch rng.Intn(9) {
		case 0:
			return Float64([]float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e21, 2.5e-7, 1.0 / 3, math.MaxFloat64}[rng.Intn(7)])
		case 1:
			return Int64(int64(rng.Intn(100))) // read back as a double
		case 2:
			return Float64([]float64{0, math.Copysign(0, -1)}[r/3%2]) // −0 and 0 runs
		case 3:
			return Float64(float64(r/4) / 4)
		default:
			return Float64(float64(rng.Intn(200000)-1000) / 100)
		}
	default:
		return Str([]string{"acme", "borealis", "cobalt", fmt.Sprintf("m-%d", rng.Intn(40))}[rng.Intn(4)])
	}
}

// otherSpelling renders v's cell as text a column of kind reads back as the
// same value but AppendText does not write, when there is one.
func otherSpelling(rng *rand.Rand, kind Kind, v Value) (string, bool) {
	switch {
	case v.Kind != kind:
		return "", false
	case kind == KindInt64 && v.I >= 0:
		return []string{"+", "0", "00"}[rng.Intn(3)] + v.String(), true
	case kind == KindTime && v.I >= minLayoutUnix && v.I <= maxLayoutUnix:
		if v.I%secondsPerDay == 0 && rng.Intn(2) == 0 {
			return v.String() + " 00:00:00", true
		}
		return fmt.Sprint(v.I), true
	case kind == KindFloat64 && v.F == v.F && !math.IsInf(v.F, 0):
		s := v.String()
		if strings.ContainsAny(s, "e") {
			return "", false
		}
		if !strings.Contains(s, ".") {
			return s + ".0", true
		}
		return s + "0", true
	}
	return "", false
}

func randomPackCase(rng *rand.Rand) packCase {
	kinds := []Kind{KindInt64, KindTime, KindFloat64, KindString}
	cols := make([]Column, 1+rng.Intn(5))
	for c := range cols {
		cols[c] = Column{Name: fmt.Sprintf("c%d", c), Kind: kinds[rng.Intn(len(kinds))]}
	}
	pc := packCase{schema: NewSchema(cols...), groupRows: []int{1, 1 + rng.Intn(8), 8 + rng.Intn(64)}[rng.Intn(3)]}
	n := 1 + rng.Intn(150)
	asText := rng.Intn(2) == 0
	for r := 0; r < n; r++ {
		row := make(Row, len(cols))
		var line []string
		for c, col := range cols {
			row[c] = packCell(rng, col.Kind, r)
			cell := row[c].String()
			if asText && rng.Intn(8) == 0 {
				if other, ok := otherSpelling(rng, col.Kind, row[c]); ok {
					cell = other
				}
			}
			line = append(line, cell)
		}
		pc.rows = append(pc.rows, row)
		if asText {
			pc.lines = append(pc.lines, []byte(strings.Join(line, string(TextDelim))))
		}
	}
	return pc
}

// write writes the case's rows to path with or without packing and returns
// the writer's group statistics.
func (pc packCase) write(t *testing.T, fs *dfs.FS, path string, pack bool) []GroupStat {
	t.Helper()
	fw, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewRCWriter(fw, pc.schema, pc.groupRows)
	w.noPack = !pack
	w.startGroup()
	for r, row := range pc.rows {
		if pc.lines == nil {
			err = w.WriteRow(row)
		} else {
			// The row a text line hands the writer is the line decoded.
			decoded, derr := DecodeTextRow(pc.schema, string(pc.lines[r]))
			if derr != nil {
				decoded = row // a cell the column does not read back
			}
			err = w.WriteRowText(pc.lines[r], decoded)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteColStats(fs, path, pc.schema, w.GroupStats()); err != nil {
		t.Fatal(err)
	}
	return w.GroupStats()
}

// sameValues compares two rows on everything a cell carries.
func sameValues(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if a[c].Kind != b[c].Kind || a[c].I != b[c].I || math.Float64bits(a[c].F) != math.Float64bits(b[c].F) || a[c].S != b[c].S {
			return false
		}
	}
	return true
}

// TestPackedGroupsReadAsTextBodies holds random typed groups, packed where
// the writer packs them, to the text bodies Hive's RCFile stores for the
// same rows (the writer with packing off): every group reads back — row by
// row, column by column and as Line — exactly as the text body does, or
// fails where it fails; every column's charged length and Hive tag are the
// length and tag encodeColumnBody gives the rendered cells; and the file,
// written again with no column packed (HiveRCFile), is the text-body file
// byte for byte. The cases cover −0 and 0 runs, NaN and ±Inf,
// MinInt64/MaxInt64, timestamps outside years 0000–9999, cells of another
// kind, cells spelled other than AppendText does, and one-row groups.
func TestPackedGroupsReadAsTextBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	var packed, oneRow, otherSpelled, unreadable int
	for i := 0; i < 200; i++ {
		pc := randomPackCase(rng)
		fs := dfs.New(1 << 20)
		got, want := pc.write(t, fs, "/packed", true), pc.write(t, fs, "/text", false)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d groups packed, %d as text", i, len(got), len(want))
		}
		for g := range got {
			hive := got[g].ColLens
			if got[g].Charged != nil {
				hive = got[g].Charged
				packed++
				for c := range hive {
					if w := want[g].Enc(c); packedTag(got[g].Enc(c)) && got[g].hiveEncs[c] != w {
						t.Fatalf("case %d group %d column %d: Hive tag %d, the text body's %d", i, g, c, got[g].hiveEncs[c], w)
					}
				}
			}
			if !slices.Equal(hive, want[g].ColLens) || got[g].ChargedSize() != want[g].EncodedSize() {
				t.Fatalf("case %d group %d: charged %v (%d bytes), the text body's %v (%d bytes)", i, g, hive, got[g].ChargedSize(), want[g].ColLens, want[g].EncodedSize())
			}
			if got[g].Rows == 1 {
				oneRow++
			}
		}
		for _, line := range pc.lines {
			if row, err := DecodeTextRow(pc.schema, string(line)); err == nil && !bytes.Equal(line, AppendTextRow(nil, row)[:len(AppendTextRow(nil, row))-1]) {
				otherSpelled++
			}
		}
		readable := comparePackedReads(t, fmt.Sprintf("case %d", i), fs, pc.schema)
		if !readable {
			unreadable++
			continue
		}
		data, colstats, err := HiveRCFile(fs, "/packed")
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		text, _ := fs.ReadFile("/text")
		textStats, _ := fs.ReadFile(ColStatsPath("/text"))
		if !bytes.Equal(data, text) || !bytes.Equal(colstats, textStats) {
			t.Fatalf("case %d: written with no column packed the file differs from the text-body file", i)
		}
	}
	t.Logf("%d packed groups, %d one-row groups, %d lines spelled otherwise, %d files with an unreadable cell", packed, oneRow, otherSpelled, unreadable)
	if packed == 0 || oneRow == 0 || otherSpelled == 0 || unreadable == 0 {
		t.Fatal("the random cases missed a shape")
	}
}

// comparePackedReads reads every group of /packed and /text both ways and
// requires the same outcome; it reports whether every group read.
func comparePackedReads(t *testing.T, what string, fs *dfs.FS, s *Schema) bool {
	t.Helper()
	offsets, err := ReadGroupIndex(fs, "/text")
	if err != nil {
		t.Fatal(err)
	}
	if packedOffsets, err := ReadGroupIndex(fs, "/packed"); err != nil || !slices.Equal(packedOffsets, offsets) {
		t.Fatalf("%s: packed groups at %v (%v), text bodies at %v", what, packedOffsets, err, offsets)
	}
	pr, _ := fs.Open("/packed")
	tr, _ := fs.Open("/text")
	pb, tb := NewColumnBatch(s), NewColumnBatch(s)
	readable := true
	for _, off := range offsets {
		pg, _, perr := ReadGroupProjected(pr, off, nil)
		tg, _, terr := ReadGroupProjected(tr, off, nil)
		if perr != nil || terr != nil {
			t.Fatalf("%s: group at %d: %v, %v", what, off, perr, terr)
		}
		prows, perr := pg.DecodeRows(s)
		trows, terr := tg.DecodeRows(s)
		if (perr == nil) != (terr == nil) {
			t.Fatalf("%s: group at %d decodes with %v, its text body with %v", what, off, perr, terr)
		}
		_, pverr := ReadGroupColumns(pr, off, s, nil, pb)
		_, tverr := ReadGroupColumns(tr, off, s, nil, tb)
		if (pverr == nil) != (tverr == nil) {
			t.Fatalf("%s: group at %d reads as columns with %v, its text body with %v", what, off, pverr, tverr)
		}
		if perr != nil || pverr != nil {
			readable = false
			continue
		}
		for r := range trows {
			if !sameValues(prows[r], trows[r]) || !sameValues(pb.MaterialiseRow(r).Clone(), tb.MaterialiseRow(r)) {
				t.Fatalf("%s: group at %d row %d reads %v, its text body %v", what, off, r, prows[r], trows[r])
			}
			if p, tx := string(pb.Line(r)), string(tb.Line(r)); p != tx {
				t.Fatalf("%s: group at %d row %d: Line %q, the text body's %q", what, off, r, p, tx)
			}
		}
	}
	return readable
}

// packedGroup is a one-group RCFile of n cells of kind whose only column
// payload is the given packed body, and its column statistics.
func packedGroup(t *testing.T, kind Kind, enc byte, n int, body []byte) (*dfs.FS, *Schema) {
	t.Helper()
	s := NewSchema(Column{Name: "v", Kind: kind})
	group := []byte{rcEncodedMagic}
	group = binary.AppendUvarint(group, uint64(n))
	group = binary.AppendUvarint(group, 1)
	group = binary.AppendUvarint(group, uint64(len(body)+1))
	group = append(append(group, enc), body...)
	fs := dfs.New(1 << 20)
	if err := fs.WriteFile("/g", group); err != nil {
		t.Fatal(err)
	}
	// The side file gives the column its kind's packed tag whatever the
	// payload's own says: the reader goes by the payload's.
	stat := GroupStat{Rows: n, ColLens: []int64{int64(len(body) + 1)}, Encs: []byte{packedEnc(kind)}, Charged: []int64{int64(len(body) + 1)}, hiveEncs: []byte{EncPlain}}
	if err := WriteColStats(fs, "/g", s, []GroupStat{stat}); err != nil {
		t.Fatal(err)
	}
	return fs, s
}

// packBits packs offs at w bits as AppendPacked does: offset i fills bits
// i·w to i·w+w−1, each byte from its low bit.
func packBits(w int, offs ...uint64) []byte {
	dst := make([]byte, (len(offs)*w+7)/8)
	for i, o := range offs {
		for b := 0; b < w; b++ {
			if o>>b&1 != 0 {
				bit := i*w + b
				dst[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return dst
}

// TestPackedColumnRefusesOtherSpellings: an RCFile packed column decodes
// only as AppendPacked and AppendPackedDecimal write it — the least cell as
// min, the fewest bits that hold the greatest offset, zero padding, min +
// offset within int64, the whole payload and nothing after it — the way
// TestRecordPackedRefusesOtherSpellings holds the WAL's packed columns.
func TestPackedColumnRefusesOtherSpellings(t *testing.T) {
	body := func(lo int64, w byte, bits []byte) []byte {
		return append(append(binary.AppendVarint(nil, lo), w), bits...)
	}
	padded := packBits(3, 0, 2, 7) // 9 bits: 7 padding bits in the second byte
	padded[1] |= 0x80
	cents := func(b []byte) []byte { return append([]byte{2}, b...) }
	// The cells 3, 5, 10 (and 0.03, 0.05, 0.10): min 3, offsets 0, 2, 7
	// at 3 bits.
	for _, tc := range []struct {
		name string
		kind Kind
		enc  byte
		n    int
		body []byte
		want string // "" for the one right spelling
	}{
		{"bigint as written", KindInt64, EncPacked, 3, body(3, 3, packBits(3, 0, 2, 7)), ""},
		{"decimal as written", KindFloat64, EncPackedDecimal, 3, cents(body(3, 3, packBits(3, 0, 2, 7))), ""},
		{"width wider than the offsets need", KindInt64, EncPacked, 3, body(3, 4, packBits(4, 0, 2, 7)), "need 3"},
		{"decimal width wider than needed", KindFloat64, EncPackedDecimal, 3, cents(body(3, 64, packBits(64, 0, 2, 7))), "need 3"},
		{"min below every cell", KindTime, EncPacked, 3, body(2, 4, packBits(4, 1, 3, 8)), "below every cell"},
		{"padding bit set", KindInt64, EncPacked, 3, body(3, 3, padded), "padding"},
		{"min + offset past MaxInt64", KindInt64, EncPacked, 2, body(math.MaxInt64-1, 2, packBits(2, 0, 2)), "overflows"},
		{"width 0", KindInt64, EncPacked, 3, body(3, 0, nil), "outside 1..64"},
		{"body cut short", KindInt64, EncPacked, 3, body(3, 3, packBits(3, 0, 2, 7)[:1]), "truncated"},
		{"a byte after the cells", KindInt64, EncPacked, 3, append(body(3, 3, packBits(3, 0, 2, 7)), 0), "after a packed column"},
		{"decimal exponent past 18", KindFloat64, EncPackedDecimal, 3, append([]byte{19}, body(3, 3, packBits(3, 0, 2, 7))...), "exceeds"},
		{"packed body on a double column", KindFloat64, EncPacked, 3, body(3, 3, packBits(3, 0, 2, 7)), "on a double column"},
	} {
		fs, s := packedGroup(t, tc.kind, tc.enc, tc.n, tc.body)
		r, err := fs.Open("/g")
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadGroupColumns(r, 0, s, nil, NewColumnBatch(s))
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.want == "":
		case err == nil:
			t.Fatalf("%s: decodes", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Fatalf("%s: error %q, want it to say %q", tc.name, err, tc.want)
		}
	}
	var lens []int
	for _, vals := range [][]int64{{5, 6, 5}, {-3, 124, 0}, {0, math.MaxInt64}, {math.MinInt64, math.MaxInt64, -1}} {
		lo, hi := slices.Min(vals), slices.Max(vals)
		b := AppendPacked(nil, vals, lo, hi)
		got := make([]int64, len(vals))
		if n, err := UnpackInts(b, got); err != nil || n != len(b) || !slices.Equal(got, vals) {
			t.Fatalf("%v packs as %x and unpacks as %v (%d bytes, %v)", vals, b, got, n, err)
		}
		lens = append(lens, len(b))
	}
	if want := []int{3, 5, 18, 35}; !slices.Equal(lens, want) {
		t.Fatalf("packed lengths %v, want %v", lens, want)
	}
}
