package storage

import (
	"math"
	"strconv"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// fuzzSchema derives a small schema from the fuzzer-chosen width so the
// decode path is exercised against schemas both narrower and wider than the
// group's actual column count.
func fuzzSchema(ncols uint8) *Schema {
	kinds := []Kind{KindInt64, KindString, KindFloat64, KindTime}
	cols := make([]Column, int(ncols%5)+1)
	for i := range cols {
		cols[i] = Column{Name: string(rune('a' + i)), Kind: kinds[i%len(kinds)]}
	}
	return NewSchema(cols...)
}

// rcBytes renders rows through the real writer and returns the raw file
// bytes, for seeding the corpus with every on-disk layout the reader must
// handle: plain 'R' groups, encoded 'E' groups (dict and RLE columns), and
// multi-group files.
func rcBytes(t testing.TB, rows []Row, groupRows int, opts RCWriteOptions) []byte {
	t.Helper()
	fs := dfs.New(1 << 20)
	if _, err := WriteRCRowsOpts(fs, "/t/data", fuzzSchema(2), rows, groupRows, opts); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/t/data")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeRowGroup hands arbitrary bytes to the RCFile row-group reader
// and decoder. Scans run over whatever the filesystem serves, so a corrupt
// or truncated group must surface as an error — never a panic or an
// attacker-sized allocation (counts and payload lengths are bounded against
// the file before anything is sized by them). The values a group decodes to,
// written again through the RCWriter, must read back with every Line equal
// to the rendering of its row.
func FuzzDecodeRowGroup(f *testing.F) {
	seedRows := []Row{
		{Int64(1), Str("cq"), Float64(3.25)},
		{Int64(2), Str("cq"), Float64(3.25)},
		{Int64(3), Str("bj"), Float64(-0.5)},
		{Int64(4), Str("cq"), Float64(0)},
	}
	f.Add(rcBytes(f, seedRows, 0, RCWriteOptions{}), uint8(2))
	f.Add(rcBytes(f, seedRows, 2, RCWriteOptions{}), uint8(2)) // two groups, dict+RLE candidates
	f.Add(rcBytes(f, seedRows, 0, RCWriteOptions{DisableEncoding: true}), uint8(2))
	f.Add(rcBytes(f, nil, 0, RCWriteOptions{}), uint8(0))
	f.Add([]byte{'R', 4, 3}, uint8(2))
	f.Add([]byte{'E', 1, 1, 2, EncRLE, 0xff}, uint8(0))
	// Packed groups: bigint and double columns that pack at a few bits a
	// cell, int64's ends at 64 bits, and a packed payload with a byte after
	// its cells.
	var packRows []Row
	for i := 0; i < 64; i++ {
		packRows = append(packRows, Row{Int64(int64(1000 + i%9)), Str("cq"), Float64(float64(i%13) / 4)})
	}
	f.Add(rcBytes(f, packRows, 16, RCWriteOptions{}), uint8(2))
	f.Add(rcBytes(f, []Row{{Int64(math.MinInt64), Str("a"), Float64(0.5)}, {Int64(math.MaxInt64), Str("b"), Float64(-0.25)}}, 0, RCWriteOptions{}), uint8(2))
	f.Add([]byte{'E', 3, 1, 5, EncPacked, 6, 3, 0x90, 0x01, 0}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		fs := dfs.New(1 << 20)
		if err := fs.WriteFile("/t/data", data); err != nil {
			t.Skip()
		}
		r, err := fs.Open("/t/data")
		if err != nil {
			t.Skip()
		}
		schema := fuzzSchema(ncols)
		for pos := int64(0); pos < r.Size(); {
			g, err := readGroupAt(r, pos, nil)
			if err != nil {
				break
			}
			pos += g.Size
			rows, err := g.DecodeRows(schema)
			if err == nil && len(rows) != g.Rows {
				t.Fatalf("decoded %d rows, group header says %d", len(rows), g.Rows)
			}
			if err == nil && textCarries(rows) {
				// Whatever the group held, the RCWriter stores its values
				// as cells that read back as their renderings.
				out := dfs.New(1 << 20)
				if _, err := WriteRCRows(out, "/t/rewritten", schema, rows, 0); err != nil {
					t.Fatal(err)
				}
				checkLinesAreRenderings(t, out, "/t/rewritten", schema)
			}
			// Projected read of the same group: only the first column is
			// fetched; the others must come back as zero values, not reads
			// past the projection.
			project := make([]bool, schema.Len())
			project[0] = true
			if pg, err := readGroupAt(r, g.Offset, project); err == nil {
				_, _ = pg.decodeRowsProjected(schema, project)
			}
		}
	})
}

// textCarries reports whether every row passes CheckTextRow, the rule the
// load paths hold rows to before any writer sees them.
func textCarries(rows []Row) bool {
	for _, r := range rows {
		if CheckTextRow(r) != nil {
			return false
		}
	}
	return true
}

// FuzzParseCell holds parseCell over the string and the byte view of a
// field to strconv and time: a bigint is strconv.ParseInt's, a double
// strconv.ParseFloat's bit for bit, a timestamp the first of the two
// layouts time.ParseInLocation accepts or else raw Unix seconds — and each
// is refused exactly where they refuse it.
func FuzzParseCell(f *testing.F) {
	for _, s := range []string{"0", "-0", "12.34", "-0.01", ".5", "5.", "+5", "1e3", "123456789012345",
		"1234567890123456", "9007199254740993", "Inf", "NaN", "", "9223372036854775808",
		"2012-12-30", "2012-12-30 23:59:59", "2012-02-30", "2000-02-29", "2100-02-29", "0000-01-01",
		"2012-12-30 24:00:00", "1356825600"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, kind := range []Kind{KindInt64, KindFloat64, KindTime} {
			var want Value
			var werr error
			switch kind {
			case KindInt64:
				var n int64
				n, werr = strconv.ParseInt(s, 10, 64)
				want = Int64(n)
			case KindFloat64:
				var x float64
				x, werr = strconv.ParseFloat(s, 64)
				want = Float64(x)
			default:
				if tm, err := time.ParseInLocation("2006-01-02", s, time.UTC); err == nil {
					want = Time(tm)
				} else if tm, err := time.ParseInLocation("2006-01-02 15:04:05", s, time.UTC); err == nil {
					want = Time(tm)
				} else {
					var sec int64
					sec, werr = strconv.ParseInt(s, 10, 64)
					want = TimeUnix(sec)
				}
			}
			for view, parse := range map[string]func() (Value, error){
				"string": func() (Value, error) { return parseCell(kind, s) },
				"bytes":  func() (Value, error) { return parseCell(kind, []byte(s)) },
			} {
				got, err := parse()
				if (err != nil) != (werr != nil) {
					t.Fatalf("parseCell(%v, %s %q): error %v, reference error %v", kind, view, s, err, werr)
				}
				if werr == nil && (got.Kind != want.Kind || got.I != want.I || math.Float64bits(got.F) != math.Float64bits(want.F)) {
					t.Fatalf("parseCell(%v, %s %q) = %#v, reference %#v", kind, view, s, got, want)
				}
			}
		}
	})
}
