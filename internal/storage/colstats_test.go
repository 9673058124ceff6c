package storage

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// zoneEdgeCells are cells whose text is the hard part of reading a bound
// back: ints Compare orders as floats (around ±2^53 and at the int64 ends),
// doubles that are no decimal (−0, NaN with and without a payload, ±Inf,
// subnormals) or render with an exponent, timestamps outside years
// 0000–9999, and strings that do or do not parse as another kind.
var zoneEdgeCells = []Value{
	Int64(0), Int64(-1), Int64(1 << 53), Int64(1<<53 + 1), Int64(-(1 << 53) - 1),
	Int64(math.MaxInt64), Int64(math.MinInt64), Int64(1354320000),
	Float64(0), Float64(math.Copysign(0, -1)), Float64(math.NaN()),
	Float64(math.Float64frombits(0x7ff8000000000abc)), Float64(math.Inf(1)), Float64(math.Inf(-1)),
	Float64(1e21), Float64(2.5e-7), Float64(5e-324), Float64(math.MaxFloat64), Float64(0.1 + 0.2),
	Float64(3.25), Float64(-1234.5), Float64(3), Float64(1 << 60), Float64(123456789012.75),
	TimeUnix(0), TimeUnix(1354320000), TimeUnix(1354320000 + 3661), TimeUnix(minLayoutUnix),
	TimeUnix(maxLayoutUnix), TimeUnix(minLayoutUnix - 1), TimeUnix(maxLayoutUnix + 1),
	TimeUnix(-1 << 40), TimeUnix(1 << 40), TimeUnix(math.MinInt64), TimeUnix(math.MaxInt64),
	Str(""), Str("acme"), Str("12"), Str("-0"), Str("007"), Str(" 5"), Str("1e3"), Str("NaN"),
	Str("2012-12-01"), Str("2012-12-01 00:15:00"), Str("2012-02-30"), Str("9223372036854775808"),
}

var zoneKinds = []Kind{KindInt64, KindFloat64, KindString, KindTime}

// sameValue reports whether two values are identical: kind, I, the bits of
// F, and S.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// checkZoneBound holds zoneBound to its definition: a column of kind stores
// cell v as the value ParseValue(kind, v.String()) returns, exactly when it
// parses.
func checkZoneBound(t *testing.T, kind Kind, v Value) {
	t.Helper()
	want, err := ParseValue(kind, v.String())
	got, ok := zoneBound(kind, v)
	if ok != (err == nil) || ok && !sameValue(got, want) {
		t.Errorf("%s column, %s cell %q: zone bound %+v (ok %v), text path %+v (err %v)", kind, v.Kind, v.String(), got, ok, want, err)
	}
}

func TestZoneBoundIsTextRoundTrip(t *testing.T) {
	for _, kind := range zoneKinds {
		for _, v := range zoneEdgeCells {
			checkZoneBound(t, kind, v)
		}
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 20000; i++ {
		checkZoneBound(t, zoneKinds[rng.Intn(len(zoneKinds))], randomCell(rng))
	}
}

// randomCell draws a cell of any kind, biased toward edges: small and huge
// ints, decimals and raw doubles, in-range and far timestamps, and strings
// with shared prefixes.
func randomCell(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		if rng.Intn(3) == 0 {
			return Int64(int64(rng.Uint64()))
		}
		return Int64(rng.Int63n(2000) - 1000 + int64(rng.Intn(2))<<53)
	case 1:
		switch rng.Intn(3) {
		case 0:
			return Float64(float64(rng.Int63n(1000000)-500000) / 100)
		case 1:
			return Float64(math.Float64frombits(rng.Uint64()))
		default:
			return Float64(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		}
	case 2:
		if rng.Intn(4) == 0 {
			return TimeUnix(int64(rng.Uint64()) >> rng.Intn(30))
		}
		return TimeUnix(1354320000 + rng.Int63n(400*24*3600))
	case 3:
		return zoneEdgeCells[rng.Intn(len(zoneEdgeCells))]
	default:
		prefixes := []string{"", "a", "ab", "abc", "helios", "12", "2012-12-0"}
		return Str(prefixes[rng.Intn(len(prefixes))] + strings.Repeat("z", rng.Intn(3)))
	}
}

// TestColStatsCorruptIsAnError: a side file that does not decode is refused
// with "storage: corrupt column stats for <path>", never a panic or an
// allocation sized by a count the file cannot back.
func TestColStatsCorruptIsAnError(t *testing.T) {
	// One bigint column, one group: 1 row, payload length 1, a zone map,
	// min 5 (zigzag 0x0a from the previous min 0), max − min 0.
	valid := []byte{0x00, 0x04, 0x01, 0x00, 0x01, 0x01, statZone, 0x0a, 0x00}
	corrupt := map[string][]byte{
		// Under version 3 these 12 bytes, one row in a group claiming
		// 2^63−1 columns, panicked ReadColStats with "makeslice: len out
		// of range"; the same counts under version 4 are refused.
		"column count 2^63-1":          {0x00, 0x04, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"column count past the bytes":  {0x00, 0x04, 0x05, 0x00, 0x00, 0x00, 0x00},
		"column count just under 2^40": {0x00, 0x04, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f, 0x00},
		"unknown kind":                 {0x00, 0x04, 0x01, 0x04, 0x01, 0x01, 0x00},
		"lengths past the bytes":       {0x00, 0x04, 0x02, 0x00, 0x00, 0x01, 0x01},
		"no flags":                     valid[:6],
		"truncated zone":               valid[:8],
		"rows past the group bound":    {0x00, 0x04, 0x01, 0x00, 0x81, 0x80, 0x80, 0x01, 0x01, 0x00},
		"non-minimal varint":           {0x00, 0x04, 0x01, 0x00, 0x81, 0x00, 0x01, statZone, 0x0a, 0x00},
		"unknown flag":                 {0x00, 0x04, 0x01, 0x00, 0x01, 0x01, 0x08},
		"unzoned without zone":         {0x00, 0x04, 0x01, 0x00, 0x01, 0x01, statUnzoned, 0x01},
		"unzoned bitmap empty":         {0x00, 0x04, 0x01, 0x00, 0x01, 0x01, statZone | statUnzoned, 0x00, 0x0a, 0x00},
		"unzoned padding set":          {0x00, 0x04, 0x01, 0x00, 0x01, 0x01, statZone | statUnzoned, 0x03},
		"encoding padding set":         {0x00, 0x04, 0x01, 0x00, 0x01, 0x01, statEncs, 0x04},
		"flags on zero columns":        {0x00, 0x04, 0x00, 0x01, statZone},
		// 0.01 is 1/10^2; spelled 10/10^3 it is not the smallest exponent.
		"decimal not smallest": {0x00, 0x04, 0x01, 0x01, 0x01, 0x01, statZone, 0x03, 0x14, 0x00},
		"decimal exponent 19":  {0x00, 0x04, 0x01, 0x01, 0x01, 0x01, statZone, 0x13, 0x02, 0x00},
		// 0.5 and 1 are decimals, so they may not be spelled as bits.
		"raw decimals": {0x00, 0x04, 0x01, 0x01, 0x01, 0x01, statZone, rawDouble,
			0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
		// min "a" (no prefix of ""), max "a" spelled without its prefix.
		"prefix not longest":   {0x00, 0x04, 0x01, 0x02, 0x01, 0x01, statZone, 0x00, 0x01, 'a', 0x00, 0x01, 'a'},
		"prefix past previous": {0x00, 0x04, 0x01, 0x02, 0x01, 0x01, statZone, 0x01, 0x00, 0x00, 0x00},
	}
	fs := dfs.New(1 << 20)
	if err := fs.WriteFile(ColStatsPath("/tbl/valid"), valid); err != nil {
		t.Fatal(err)
	}
	stats, err := ReadColStats(fs, "/tbl/valid")
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := stats[0].Zone(0); len(stats) != 1 || !ok || lo != Int64(5) || hi != Int64(5) {
		t.Fatalf("valid stream decoded to %+v, zone [%v, %v] %v", stats, lo, hi, ok)
	}
	for name, data := range corrupt {
		path := "/tbl/" + strings.ReplaceAll(name, " ", "-")
		if err := fs.WriteFile(ColStatsPath(path), data); err != nil {
			t.Fatal(err)
		}
		_, err := ReadColStats(fs, path)
		if want := "storage: corrupt column stats for " + path; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
	// The 12 bytes themselves carry version 3, which is refused by name.
	v3 := []byte{0x00, 0x03, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if err := fs.WriteFile(ColStatsPath("/tbl/v3"), v3); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadColStats(fs, "/tbl/v3"); err == nil || err.Error() != "storage: unknown column stats version for /tbl/v3" {
		t.Errorf("the version 3 input: error %v", err)
	}
}

// TestColStatsRoundTripsEdgeZones: groups whose zones hold every edge cell
// in every column kind, zone-less columns among them, decode to the bounds
// the writer typed and write back to the same bytes.
func TestColStatsRoundTripsEdgeZones(t *testing.T) {
	schema := NewSchema(Column{"i", KindInt64}, Column{"f", KindFloat64}, Column{"s", KindString}, Column{"t", KindTime})
	fs := dfs.New(1 << 20)
	w, err := fs.Create("/tbl/edges")
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRCWriter(w, schema, 2)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		row := Row{randomCell(rng), randomCell(rng), randomCell(rng), randomCell(rng)}
		if err := rw.WriteRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	written := rw.GroupStats()
	if err := WriteColStats(fs, "/tbl/edges", schema, written); err != nil {
		t.Fatal(err)
	}
	back, err := ReadColStats(fs, "/tbl/edges")
	if err != nil {
		t.Fatal(err)
	}
	unzoned := 0
	for g := range written {
		for c := 0; c < schema.Len(); c++ {
			lo, hi, ok := written[g].Zone(c)
			gotLo, gotHi, gotOK := back[g].Zone(c)
			if ok != gotOK || !sameValue(lo, gotLo) || !sameValue(hi, gotHi) {
				t.Fatalf("group %d column %d: wrote [%+v, %+v] %v, read [%+v, %+v] %v", g, c, lo, hi, ok, gotLo, gotHi, gotOK)
			}
			if !ok {
				unzoned++
			}
		}
	}
	if unzoned == 0 {
		t.Error("no column went without a zone: the mixed-kind cells did not reach the unzoned path")
	}
	data, err := fs.ReadFile(ColStatsPath("/tbl/edges"))
	if err != nil {
		t.Fatal(err)
	}
	again, err := appendColStats(nil, kindsOf(schema), back)
	if err != nil || string(again) != string(data) {
		t.Errorf("writing the decoded groups again gave %d bytes (%v), the file has %d", len(again), err, len(data))
	}
}
