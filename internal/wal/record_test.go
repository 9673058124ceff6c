package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// The values a lossy column codec gets wrong: doubles no decimal exponent
// carries, integers at the ends of int64, strings that are empty or
// multi-byte.
var (
	edgeFloats = []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff80000deadbeef), // negative NaN, payload
		math.Inf(1),
		math.Inf(-1),
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64,
		1 << 53,
		1<<53 + 2,
		0.1, 12.34, -7.5, 1e-7, 1.0 / 3,
	}
	edgeInts = []int64{math.MinInt64, math.MaxInt64, 1<<53 + 1, -(1<<53 + 1), 0, -1, 1, 1356998400}
	edgeStrs = []string{"", "m-001", "ünïcødé ✓ 电表", "a,b\tc", string(make([]byte, 300))}
)

func edgeValue(rng *rand.Rand, kind storage.Kind) storage.Value {
	switch kind {
	case storage.KindFloat64:
		if rng.Intn(3) == 0 {
			return storage.Float64(float64(rng.Intn(100000)) / 100)
		}
		return storage.Float64(edgeFloats[rng.Intn(len(edgeFloats))])
	case storage.KindString:
		return storage.Str(edgeStrs[rng.Intn(len(edgeStrs))])
	default:
		return storage.Value{Kind: kind, I: edgeInts[rng.Intn(len(edgeInts))]}
	}
}

// sameCells compares two rows on everything a cell carries: kind, I, the
// bits of F (so −0.0 and NaN payloads count) and S.
func sameCells(t *testing.T, what string, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: row %d has %d cells, want %d", what, r, len(got[r]), len(want[r]))
		}
		for c, w := range want[r] {
			g := got[r][c]
			if g.Kind != w.Kind || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) || g.S != w.S {
				t.Fatalf("%s: cell (%d,%d) = %+v (F bits %#x), want %+v (F bits %#x)", what, r, c, g, math.Float64bits(g.F), w, math.Float64bits(w.F))
			}
		}
	}
}

func roundTrip(t *testing.T, what string, rec Record) []byte {
	t.Helper()
	p := encodePayload(nil, rec)
	got, err := decodePayload(p)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if got.LSN != rec.LSN || got.Table != rec.Table {
		t.Fatalf("%s: header (%d, %q), want (%d, %q)", what, got.LSN, got.Table, rec.LSN, rec.Table)
	}
	sameCells(t, what, got.Rows, rec.Rows)
	return p
}

// TestRecordRoundTripBitIdentical: decodePayload(encodePayload(rec)) gives
// back every cell bit for bit — a canonical re-encode is not enough, since
// a lossy codec re-encodes its own output canonically.
func TestRecordRoundTripBitIdentical(t *testing.T) {
	col := func(vals ...storage.Value) []storage.Row {
		rows := make([]storage.Row, len(vals))
		for i, v := range vals {
			rows[i] = storage.Row{v}
		}
		return rows
	}
	// Each edge double alone spoils an otherwise decimal column.
	for _, f := range edgeFloats {
		roundTrip(t, "double column", Record{LSN: 1, Table: "t", Rows: col(storage.Float64(1.25), storage.Float64(f), storage.Float64(3.5))})
		roundTrip(t, "leading double", Record{LSN: 1, Table: "t", Rows: col(storage.Float64(f), storage.Float64(0.01))})
	}
	for _, kind := range []storage.Kind{storage.KindInt64, storage.KindTime} {
		var ends, runs []storage.Value
		for _, v := range edgeInts {
			ends = append(ends, storage.Value{Kind: kind, I: v})
			runs = append(runs, storage.Value{Kind: kind, I: v}, storage.Value{Kind: kind, I: v}, storage.Value{Kind: kind, I: v})
		}
		roundTrip(t, kind.String()+" offsets", Record{LSN: 2, Table: "t", Rows: col(ends...)})
		roundTrip(t, kind.String()+" runs", Record{LSN: 2, Table: "t", Rows: col(runs...)})
	}
	var strs []storage.Value
	for _, s := range edgeStrs {
		strs = append(strs, storage.Str(s))
	}
	roundTrip(t, "strings", Record{LSN: 3, Table: "ünï", Rows: col(strs...)})
	roundTrip(t, "mixed kinds", Record{LSN: 4, Table: "t", Rows: col(
		storage.Int64(math.MinInt64), storage.TimeUnix(math.MaxInt64), storage.Float64(math.Copysign(0, -1)),
		storage.Str("ü"), storage.Value{Kind: 9, I: -3}, storage.Float64(0.5))})
	roundTrip(t, "ragged", Record{LSN: 5, Table: "t", Rows: []storage.Row{
		{}, {storage.Int64(1), storage.Str("x"), storage.Float64(2.5)}, {storage.Int64(2)},
		{storage.Int64(3), storage.Float64(1), storage.Float64(math.NaN()), storage.TimeUnix(-1)}, {}}})
	roundTrip(t, "empty rows", Record{LSN: 6, Table: "t", Rows: make([]storage.Row, 40)})
	roundTrip(t, "no rows", Record{LSN: 7, Table: ""})
	// A record of one repeated row: runs would pack it below a byte per
	// cell, which the decoder's bound refuses, so it is written without.
	same := make([]storage.Row, 2000)
	for i := range same {
		same[i] = storage.Row{storage.Int64(7), storage.TimeUnix(1356998400), storage.Str("")}
	}
	if p := roundTrip(t, "one repeated row", Record{LSN: 8, Table: "t", Rows: same}); len(p) < len(same) {
		t.Fatalf("a %d-row record in %d bytes: the decoder's bound would refuse it", len(same), len(p))
	}

	// Random records over the edge values: any width, ragged rows, kinds
	// that vary down a column.
	rng := rand.New(rand.NewSource(7))
	kinds := []storage.Kind{storage.KindInt64, storage.KindFloat64, storage.KindString, storage.KindTime}
	for i := 0; i < 500; i++ {
		width := rng.Intn(6)
		colKinds := make([]storage.Kind, width)
		for c := range colKinds {
			colKinds[c] = kinds[rng.Intn(len(kinds))]
		}
		ragged, mixed := rng.Intn(4) == 0, rng.Intn(4) == 0
		rows := make([]storage.Row, rng.Intn(40))
		for r := range rows {
			w := width
			if ragged {
				w = rng.Intn(width + 1)
			}
			for c := 0; c < w; c++ {
				k := colKinds[c]
				if mixed && rng.Intn(8) == 0 {
					k = kinds[rng.Intn(len(kinds))]
				}
				rows[r] = append(rows[r], edgeValue(rng, k))
			}
		}
		roundTrip(t, "random record", Record{LSN: rng.Uint64(), Table: "meterdata", Rows: rows})
	}
}

// layouts returns each column's tag byte of payload p and the byte after
// it (the kind, or a decimal column's e).
func layouts(t *testing.T, p []byte) [][2]byte {
	t.Helper()
	rec, err := decodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	d := decoder{buf: p, off: 8}
	d.next(d.count("table name length", len(p)))
	d.uvarint()
	width := int(d.uvarint())
	if shape := d.u8(); shape != shapeFull {
		t.Fatalf("shape %d, want full", shape)
	}
	var out [][2]byte
	for c := 0; c < width; c++ {
		out = append(out, [2]byte{p[d.off], p[d.off+1]})
		d.column(rec.Rows, c)
	}
	return out
}

// TestRecordColumnLayouts: a meter record takes the layouts the format is
// built for — packed offsets for users and regions, one run for the
// batch's timestamp, readings as packed two-decimal integers — at about
// four bytes a row.
func TestRecordColumnLayouts(t *testing.T) {
	rows := meterRows(benchRecordRows)
	p := roundTrip(t, "meter record", Record{LSN: 9, Table: "meterdata", Rows: rows})
	if perRow := float64(len(p)) / float64(len(rows)); perRow > maxMeterBytesPerRow {
		t.Fatalf("a meter row costs %.2f payload bytes, want ≤ %.1f", perRow, maxMeterBytesPerRow)
	}
	want := [][2]byte{{tagPacked, byte(storage.KindInt64)}, {tagPacked, byte(storage.KindInt64)}, {tagRuns, byte(storage.KindTime)}, {tagPackedDecimal, 2}}
	if got := layouts(t, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("meter column layouts %v, want %v", got, want)
	}

	// A later cell with more decimals than the first raises e for the whole
	// column; a cell no e carries makes the column raw bits.
	for _, tc := range []struct {
		name   string
		vals   []float64
		layout [2]byte
	}{
		{"restarted", []float64{12.3, 12.34, 0.001}, [2]byte{tagPackedDecimal, 3}},
		{"17 digits", []float64{12.3, math.Nextafter(0.3, 1)}, [2]byte{tagFloat}},
		{"negative zero", []float64{1, math.Copysign(0, -1)}, [2]byte{tagFloat}},
	} {
		rows := make([]storage.Row, len(tc.vals))
		for i, f := range tc.vals {
			rows[i] = storage.Row{storage.Float64(f)}
		}
		p := roundTrip(t, tc.name, Record{Rows: rows})
		got := layouts(t, p)[0]
		if got[0] != tc.layout[0] || (got[0] == tagPackedDecimal && got[1] != tc.layout[1]) {
			t.Fatalf("%s column: layout %v, want %v", tc.name, got, tc.layout)
		}
	}
}

// packedColumn is the payload of a one-column record of n cells whose
// column is packed: head is its tag and the kind (tagPacked) or e
// (tagPackedDecimal), then min lo, w and body as given, spelled right or
// not.
func packedColumn(n int, head [2]byte, lo int64, w byte, body []byte) []byte {
	p := binary.LittleEndian.AppendUint64(nil, 1)
	p = append(p, 1, 't')
	p = binary.AppendUvarint(p, uint64(n))
	p = append(p, 1, shapeFull, head[0], head[1])
	p = binary.AppendVarint(p, lo)
	return append(append(p, w), body...)
}

// pack packs offs at w bits as the encoder does: offset i fills bits i·w
// to i·w+w−1, each byte from its low bit, the padding zero.
func pack(w int, offs ...uint64) []byte {
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

// TestRecordPackedRefusesOtherSpellings: decodePayload accepts a packed
// column only as encodePayload writes it — the least cell as min, the
// fewest bits that hold the greatest offset, zero padding — so decoding
// and encoding again gives back the bytes read.
func TestRecordPackedRefusesOtherSpellings(t *testing.T) {
	ints := [2]byte{tagPacked, byte(storage.KindInt64)}
	cents := [2]byte{tagPackedDecimal, 2}
	padded := pack(3, 0, 2, 7) // 9 bits: 7 padding bits in the second byte
	padded[1] |= 0x80

	// The cells 3, 5, 10 (and 0.03, 0.05, 0.10): min 3, offsets 0, 2, 7 at
	// 3 bits.
	for _, tc := range []struct {
		name string
		p    []byte
		want string // "" for the one right spelling
	}{
		{"int64 as written", packedColumn(3, ints, 3, 3, pack(3, 0, 2, 7)), ""},
		{"decimal as written", packedColumn(3, cents, 3, 3, pack(3, 0, 2, 7)), ""},
		{"width wider than the offsets need", packedColumn(3, ints, 3, 4, pack(4, 0, 2, 7)), "need 3"},
		{"decimal width wider than needed", packedColumn(3, cents, 3, 64, pack(64, 0, 2, 7)), "need 3"},
		{"min below every cell", packedColumn(3, ints, 2, 4, pack(4, 1, 3, 8)), "below every cell"},
		{"decimal min below every cell", packedColumn(3, cents, 2, 4, pack(4, 1, 3, 8)), "below every cell"},
		{"padding bit set", packedColumn(3, ints, 3, 3, padded), "padding"},
		{"width 0", packedColumn(3, ints, 3, 0, nil), "outside 1..64"},
		{"width 65", packedColumn(3, ints, 3, 65, make([]byte, 25)), "outside 1..64"},
		{"body cut short", packedColumn(3, ints, 3, 3, pack(3, 0, 2, 7)[:1]), "truncated"},
		{"body cut to nothing", packedColumn(3, ints, 3, 3, nil), "truncated"},
		{"min + offset past MaxInt64", packedColumn(2, ints, math.MaxInt64-1, 2, pack(2, 0, 2)), "overflows"},
	} {
		rec, err := decodePayload(tc.p)
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.want == "":
			if p := encodePayload(nil, rec); !bytes.Equal(p, tc.p) {
				t.Fatalf("%s: re-encodes as %x, not %x", tc.name, p, tc.p)
			}
		case err == nil:
			t.Fatalf("%s: decodes as %v", tc.name, rec.Rows)
		case !strings.Contains(err.Error(), tc.want):
			t.Fatalf("%s: error %q, want it to say %q", tc.name, err, tc.want)
		}
	}
}

// runsColumn is the payload of a one-column record of n int64 cells
// spelled as min lo and the given (offset, length) runs.
func runsColumn(n int, lo int64, runs ...[2]uint64) []byte {
	p := binary.LittleEndian.AppendUint64(nil, 1)
	p = append(p, 1, 't')
	p = binary.AppendUvarint(p, uint64(n))
	p = append(p, 1, shapeFull, tagRuns, byte(storage.KindInt64))
	p = binary.AppendVarint(p, lo)
	p = binary.AppendUvarint(p, uint64(len(runs)))
	for _, r := range runs {
		p = binary.AppendUvarint(binary.AppendUvarint(p, r[0]), r[1])
	}
	return p
}

// runsSeeds are runs columns, one as encodePayload writes it and the rest
// spellings decodePayload refuses: the 40 cells 3, 3, …, 3 as min 2 and
// as two runs of 20, twenty 0s and twenty MaxInt64s from a min past the
// range, and runs that cover too few or too many cells. FuzzWALRecordDecode
// starts from them.
var runsSeeds = []struct {
	name string
	p    []byte
	want string // "" for the one right spelling
}{
	{"as written", runsColumn(40, 3, [2]uint64{0, 40}), ""},
	{"min below every run", runsColumn(40, 2, [2]uint64{1, 40}), "below every run"},
	{"two adjacent runs of one value", runsColumn(40, 3, [2]uint64{0, 20}, [2]uint64{0, 20}), "two adjacent runs"},
	{"min + offset past MaxInt64", runsColumn(40, math.MaxInt64-1, [2]uint64{0, 20}, [2]uint64{2, 20}), "overflows"},
	{"empty run", runsColumn(40, 3, [2]uint64{0, 40}, [2]uint64{1, 0}), "empty run"},
	{"too few cells", runsColumn(40, 3, [2]uint64{0, 39}), "fewer cells"},
	{"too many cells", runsColumn(40, 3, [2]uint64{0, 41}), "more cells"},
}

// TestRecordRunsRefusesOtherSpellings: decodePayload accepts a runs column
// only with the column's least value as min and without two adjacent runs
// of one value, so decoding and encoding again gives back the bytes read.
func TestRecordRunsRefusesOtherSpellings(t *testing.T) {
	for _, tc := range runsSeeds {
		rec, err := decodePayload(tc.p)
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.want == "":
			if p := encodePayload(nil, rec); !bytes.Equal(p, tc.p) {
				t.Fatalf("%s: re-encodes as %x, not %x", tc.name, p, tc.p)
			}
		case err == nil:
			t.Fatalf("%s: decodes as %v", tc.name, rec.Rows)
		case !strings.Contains(err.Error(), tc.want):
			t.Fatalf("%s: error %q, want it to say %q", tc.name, err, tc.want)
		}
	}
}

// packedSeeds are records whose one column packs at each width the
// unpacker treats apart — one bit, under and at a byte, one below and at a
// whole word (int64's full range) — and a decimal column at the largest e.
// FuzzWALRecordDecode starts from them.
var packedSeeds = []struct {
	rec  Record
	head [2]byte
	w    int
}{
	{oneColumn(ints(storage.KindInt64, 5, 6, 5)...), [2]byte{tagPacked, byte(storage.KindInt64)}, 1},
	{oneColumn(ints(storage.KindInt64, -3, 124, 0)...), [2]byte{tagPacked, byte(storage.KindInt64)}, 7},
	{oneColumn(ints(storage.KindTime, 1356998400, 1356998655)...), [2]byte{tagPacked, byte(storage.KindTime)}, 8},
	// Offsets of nine or ten varint bytes, so runs cost more than packing.
	{oneColumn(ints(storage.KindInt64, 0, math.MaxInt64, 1<<62, math.MaxInt64-1, 1<<62+1, math.MaxInt64-2, 1<<62+2, math.MaxInt64-3)...), [2]byte{tagPacked, byte(storage.KindInt64)}, 63},
	{oneColumn(ints(storage.KindInt64, math.MinInt64, math.MaxInt64, -1, math.MaxInt64-1, 1, math.MaxInt64-2, 2, math.MaxInt64-3)...), [2]byte{tagPacked, byte(storage.KindInt64)}, 64},
	{oneColumn(storage.Float64(1e-18), storage.Float64(2.5e-17), storage.Float64(0)), [2]byte{tagPackedDecimal, 18}, 5},
}

func ints(kind storage.Kind, vals ...int64) []storage.Value {
	out := make([]storage.Value, len(vals))
	for i, v := range vals {
		out[i] = storage.Value{Kind: kind, I: v}
	}
	return out
}

func oneColumn(vals ...storage.Value) Record {
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{v}
	}
	return Record{LSN: 1, Table: "t", Rows: rows}
}

// TestRecordPackedSeeds: each packed seed takes the layout and width it
// stands for and round-trips bit for bit.
func TestRecordPackedSeeds(t *testing.T) {
	for _, s := range packedSeeds {
		p := roundTrip(t, fmt.Sprintf("width %d", s.w), s.rec)
		if got := layouts(t, p)[0]; got != s.head {
			t.Fatalf("width %d seed: layout %v, want %v", s.w, got, s.head)
		}
		// Past LSN, table, row count, column count, shape, tag, kind or e
		// and min, the width byte.
		d := decoder{buf: p, off: 8}
		d.next(d.count("table name length", len(p)))
		d.uvarint()
		d.uvarint()
		d.next(3)
		d.varint()
		if w := int(d.u8()); w != s.w {
			t.Fatalf("%v packs at %d bits, want %d", s.rec.Rows, w, s.w)
		}
	}
}
