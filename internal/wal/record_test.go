package wal

import (
	"math"
	"math/rand"
	"reflect"
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
// built for — offsets for users and regions, one run for the batch's
// timestamp, readings as two-decimal integers — at about six bytes a row.
func TestRecordColumnLayouts(t *testing.T) {
	rows := meterRows(benchRecordRows)
	p := roundTrip(t, "meter record", Record{LSN: 9, Table: "meterdata", Rows: rows})
	if perRow := float64(len(p)) / float64(len(rows)); perRow > 6.5 {
		t.Fatalf("a meter row costs %.2f payload bytes, want ≤ 6.5", perRow)
	}
	want := [][2]byte{{tagOffsets, byte(storage.KindInt64)}, {tagOffsets, byte(storage.KindInt64)}, {tagRuns, byte(storage.KindTime)}, {tagDecimal, 2}}
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
		{"restarted", []float64{12.3, 12.34, 0.001}, [2]byte{tagDecimal, 3}},
		{"17 digits", []float64{12.3, math.Nextafter(0.3, 1)}, [2]byte{tagFloat}},
		{"negative zero", []float64{1, math.Copysign(0, -1)}, [2]byte{tagFloat}},
	} {
		rows := make([]storage.Row, len(tc.vals))
		for i, f := range tc.vals {
			rows[i] = storage.Row{storage.Float64(f)}
		}
		p := roundTrip(t, tc.name, Record{Rows: rows})
		got := layouts(t, p)[0]
		if got[0] != tc.layout[0] || (got[0] == tagDecimal && got[1] != tc.layout[1]) {
			t.Fatalf("%s column: layout %v, want %v", tc.name, got, tc.layout)
		}
	}
}
