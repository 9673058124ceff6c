package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// encodableSchema shapes the dictionary/RLE test data: a unique id (stays
// plain), a low-cardinality city (dictionary candidate), a day-major ts
// (constant per group, RLE candidate) and a float reading.
func encodableSchema() *Schema {
	return NewSchema(
		Column{"id", KindInt64},
		Column{"city", KindString},
		Column{"ts", KindTime},
		Column{"val", KindFloat64},
	)
}

var testCities = []string{"amsterdam", "berlin", "cairo", "delhi"}

// encodableRows: with 16-row groups, city alternates through 4 values (dict
// wins) and ts is constant within each group (one RLE run).
func encodableRows(n int) []Row {
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Int64(int64(i + 1)),
			Str(testCities[i%len(testCities)]),
			Time(base.AddDate(0, 0, i/16)),
			Float64(float64(i) * 0.5),
		}
	}
	return rows
}

// TestEncodedGroupsRoundTrip: dictionary and packed columns decode back to
// the exact source rows through both the row-at-a-time and the vectorised
// readers, and the group stats record which encoding each column got. In
// 16-row groups a day's constant ts packs at one bit a row, 8 bytes against
// its one run's 12 (TestEncodingShrinksColumns keeps it a run in larger
// groups).
func TestEncodedGroupsRoundTrip(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := encodableSchema()
	rows := encodableRows(64)
	if _, err := WriteRCRows(fs, "/tbl/enc", s, rows, 16); err != nil {
		t.Fatal(err)
	}
	stats, err := ReadColStats(fs, "/tbl/enc")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("got %d groups, want 4", len(stats))
	}
	for gi, g := range stats {
		if g.Enc(0) != EncPacked || g.Enc(2) != EncPacked || g.Enc(3) != EncPackedDecimal {
			t.Errorf("group %d: numeric columns id=%d ts=%d val=%d, want packed (%d, %d, %d)",
				gi, g.Enc(0), g.Enc(2), g.Enc(3), EncPacked, EncPacked, EncPackedDecimal)
		}
		if g.Enc(1) != EncDict {
			t.Errorf("group %d: city encoding = %s, want dict", gi, EncodingName(g.Enc(1)))
		}
	}

	offsets, err := ReadGroupIndex(fs, "/tbl/enc")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/tbl/enc")
	if err != nil {
		t.Fatal(err)
	}
	batch := NewColumnBatch(s)
	next := 0
	for _, off := range offsets {
		g, _, err := ReadGroupProjected(r, off, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.DecodeRows(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadGroupColumns(r, off, s, nil, batch); err != nil {
			t.Fatal(err)
		}
		if batch.Rows != len(got) {
			t.Fatalf("group %d: batch %d rows vs decode %d", off, batch.Rows, len(got))
		}
		for ri, row := range got {
			want := rows[next]
			next++
			vec := batch.MaterialiseRow(ri)
			for c := range row {
				if Compare(row[c], want[c]) != 0 || row[c].Kind != want[c].Kind {
					t.Fatalf("row decode: group %d row %d col %d: %v vs %v", off, ri, c, row[c], want[c])
				}
				if Compare(vec[c], want[c]) != 0 || vec[c].Kind != want[c].Kind {
					t.Fatalf("vector decode: group %d row %d col %d: %v vs %v", off, ri, c, vec[c], want[c])
				}
			}
		}
		// The dictionary column decodes into codes + dictionary, not
		// materialised strings; the packed ones straight into their typed
		// slices.
		if batch.Cols[1].Enc != EncDict || len(batch.Cols[1].Dict) != len(testCities) || len(batch.Cols[1].Strs) != 0 {
			t.Errorf("city vector: enc=%s dict=%d strs=%d, want dict/%d/0",
				EncodingName(batch.Cols[1].Enc), len(batch.Cols[1].Dict), len(batch.Cols[1].Strs), len(testCities))
		}
		if v := batch.Cols[2]; v.Enc != EncPacked || len(v.Ints) != batch.Rows || len(v.RunEnds) != 0 {
			t.Errorf("ts vector: enc=%s ints=%d runs=%d, want packed/%d/0",
				EncodingName(v.Enc), len(v.Ints), len(v.RunEnds), batch.Rows)
		}
	}
	if next != len(rows) {
		t.Fatalf("decoded %d rows, want %d", next, len(rows))
	}
}

// TestEncodingShrinksColumns is the size half of the acceptance criterion:
// the dictionary and RLE columns store at least 3x smaller than their plain
// layout for low-cardinality / constant-run data.
func TestEncodingShrinksColumns(t *testing.T) {
	fs := dfs.New(1 << 22)
	s := encodableSchema()
	rows := encodableRows(4096)
	if _, err := WriteRCRows(fs, "/tbl/enc", s, rows, 256); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteRCRowsOpts(fs, "/tbl/plain", s, rows, 256, RCWriteOptions{DisableEncoding: true}); err != nil {
		t.Fatal(err)
	}
	colBytes := func(path string) ([]int64, int64) {
		t.Helper()
		stats, err := ReadColStats(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]int64, s.Len())
		for _, g := range stats {
			for c, l := range g.ColLens {
				sums[c] += l
			}
		}
		return sums, int64(len(stats))
	}
	enc, groups := colBytes("/tbl/enc")
	plain, _ := colBytes("/tbl/plain")
	for _, c := range []int{1, 2} { // city (dict), ts (rle)
		if enc[c]*3 > plain[c] {
			t.Errorf("column %s: encoded %d bytes vs plain %d, want >= 3x smaller",
				s.Cols[c].Name, enc[c], plain[c])
		}
	}
	// In 256-row groups a day's one run beats 256 one-bit cells.
	stats, err := ReadColStats(fs, "/tbl/enc")
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range stats {
		if g.Enc(2) != EncRLE {
			t.Errorf("group %d: ts encoding = %s, want rle", gi, EncodingName(g.Enc(2)))
		}
	}
	// The unencodable columns must not grow beyond the one tag byte each
	// column of an encoded ('E') group carries.
	for _, c := range []int{0, 3} {
		if enc[c] > plain[c]+groups {
			t.Errorf("column %s: %d bytes encoded vs %d plain (+%d tag bytes allowed)",
				s.Cols[c].Name, enc[c], plain[c], groups)
		}
	}
}

// TestUnencodableDataBitIdentical: data where plain wins every column
// (unique strings, doubles no decimal exponent carries) produces
// byte-identical files with and without encoding enabled — the legacy 'R'
// layout is preserved exactly.
func TestUnencodableDataBitIdentical(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := NewSchema(Column{"note", KindString}, Column{"ratio", KindFloat64})
	rows := make([]Row, 40)
	for i := range rows {
		rows[i] = Row{Str(fmt.Sprintf("meter-%d", i)), Float64(float64(i+1) / 3)}
	}
	if _, err := WriteRCRows(fs, "/tbl/auto", s, rows, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteRCRowsOpts(fs, "/tbl/off", s, rows, 16, RCWriteOptions{DisableEncoding: true}); err != nil {
		t.Fatal(err)
	}
	auto, err := fs.ReadFile("/tbl/auto")
	if err != nil {
		t.Fatal(err)
	}
	off, err := fs.ReadFile("/tbl/off")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(auto, off) {
		t.Fatal("all-plain data files differ between encoding on and off")
	}
	stats, err := ReadColStats(fs, "/tbl/auto")
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range stats {
		for c := 0; c < s.Len(); c++ {
			if g.Enc(c) != EncPlain {
				t.Errorf("group %d col %d claims %s on unencodable data", gi, c, EncodingName(g.Enc(c)))
			}
		}
	}
}

// TestColStatsEncodingRoundTrip: the colstats sidecar carries the per-group
// encoding tags and zone maps through a write/read cycle, including groups
// without encodings or zones interleaved with encoded, zoned ones.
func TestColStatsEncodingRoundTrip(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := encodableSchema()
	if _, err := WriteRCRows(fs, "/tbl/enc", s, encodableRows(48), 16); err != nil {
		t.Fatal(err)
	}
	stats, err := ReadColStats(fs, "/tbl/enc")
	if err != nil {
		t.Fatal(err)
	}
	// Append a hand-built plain group (nil Encs) and round-trip the mix.
	mixed := append(append([]GroupStat{}, stats...),
		GroupStat{Rows: 4, ColLens: []int64{1, 2, 3, 4}})
	if err := WriteColStats(fs, "/tbl/mixed", s, mixed); err != nil {
		t.Fatal(err)
	}
	back, err := ReadColStats(fs, "/tbl/mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(mixed) {
		t.Fatalf("got %d groups, want %d", len(back), len(mixed))
	}
	for gi, g := range back {
		for c := 0; c < s.Len(); c++ {
			if g.Enc(c) != mixed[gi].Enc(c) {
				t.Errorf("group %d col %d: enc %s, want %s",
					gi, c, EncodingName(g.Enc(c)), EncodingName(mixed[gi].Enc(c)))
			}
		}
		if g.HasZone() != mixed[gi].HasZone() {
			t.Errorf("group %d: zone flag flipped", gi)
		}
		for c := 0; c < s.Len(); c++ {
			lo, hi, ok := g.Zone(c)
			wantLo, wantHi, wantOK := mixed[gi].Zone(c)
			if lo != wantLo || hi != wantHi || ok != wantOK {
				t.Errorf("group %d col %d: zone [%v, %v] %v, want [%v, %v] %v", gi, c, lo, hi, ok, wantLo, wantHi, wantOK)
			}
		}
	}
}

// BenchmarkEncodedDecode compares the vectorised group decode over encoded
// and plain layouts of the same low-cardinality data.
func BenchmarkEncodedDecode(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"encoded", false}, {"plain", true}} {
		b.Run(mode.name, func(b *testing.B) {
			fs := dfs.New(1 << 24)
			s := encodableSchema()
			rows := encodableRows(1024)
			path := fmt.Sprintf("/tbl/bench-%s", mode.name)
			if _, err := WriteRCRowsOpts(fs, path, s, rows, 1024, RCWriteOptions{DisableEncoding: mode.disable}); err != nil {
				b.Fatal(err)
			}
			r, err := fs.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			batch := NewColumnBatch(s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadGroupColumns(r, 0, s, nil, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
