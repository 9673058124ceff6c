package storage

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

func meterSchema() *Schema {
	return NewSchema(
		Column{"userId", KindInt64},
		Column{"regionId", KindInt64},
		Column{"ts", KindTime},
		Column{"powerConsumed", KindFloat64},
		Column{"note", KindString},
	)
}

func sampleRows(n int) []Row {
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Int64(int64(i + 1)),
			Int64(int64(i%11 + 1)),
			Time(base.Add(time.Duration(i) * time.Hour)),
			Float64(float64(i) * 1.25),
			Str(fmt.Sprintf("meter-%d", i)),
		}
	}
	return rows
}

func TestKindParseAndString(t *testing.T) {
	for _, k := range []Kind{KindInt64, KindFloat64, KindString, KindTime} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) succeeded, want error")
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		Int64(-42),
		Float64(3.25),
		Float64(1e-9),
		Str("hello world"),
		Time(time.Date(2013, 1, 15, 0, 0, 0, 0, time.UTC)),
		Time(time.Date(2013, 1, 15, 7, 30, 5, 0, time.UTC)),
	}
	for _, v := range vals {
		got, err := ParseValue(v.Kind, v.String())
		if err != nil {
			t.Fatalf("ParseValue(%v): %v", v, err)
		}
		if Compare(got, v) != 0 {
			t.Errorf("round trip %v -> %q -> %v", v, v.String(), got)
		}
	}
}

// TestParseBigintMatchesStrconv holds every bigint parse (ParseValue, the
// byte-view parse the build's reducer uses, and the RCFile column decode's
// parseIntStr) to strconv.ParseInt: the same value where it parses, an error
// where it refuses, overflow included.
func TestParseBigintMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+3", "7", "-42", "007", "+", "-", "", " 1", "1 ", "1_000", "0x10", "1.5", "1e3",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"922337203685477580", "9223372036854775810", "18446744073709551615", "18446744073709551616",
		"18446744073709551620", "-18446744073709551620", "99999999999999999999", "100000000000000000000",
	} {
		want, werr := strconv.ParseInt(s, 10, 64)
		got, gerr := ParseValue(KindInt64, s)
		if (gerr != nil) != (werr != nil) || (werr == nil && (got.Kind != KindInt64 || got.I != want)) {
			t.Errorf("ParseValue(bigint, %q) = %v, %v; strconv says %d, %v", s, got, gerr, want, werr)
		}
		gotB, gerrB := parseCell(KindInt64, []byte(s))
		if (gerrB != nil) != (werr != nil) || (werr == nil && gotB.I != want) {
			t.Errorf("parseCell(bigint, []byte(%q)) = %v, %v; strconv says %d, %v", s, gotB, gerrB, want, werr)
		}
		if n, ok := parseIntStr(s); ok && (werr != nil || n != want) {
			t.Errorf("parseIntStr(%q) = %d, true; strconv says %d, %v", s, n, want, werr)
		} else if !ok && werr == nil {
			t.Errorf("parseIntStr(%q) refused what strconv parses as %d", s, want)
		}
	}
}

func TestParseTimeForms(t *testing.T) {
	want := time.Date(2012, 12, 30, 0, 0, 0, 0, time.UTC).Unix()
	for _, s := range []string{"2012-12-30", "2012-12-30 00:00:00", fmt.Sprint(want)} {
		v, err := ParseTime(s)
		if err != nil || v.I != want {
			t.Errorf("ParseTime(%q) = %v, %v; want unix %d", s, v, err, want)
		}
	}
	if _, err := ParseTime("not a date"); err == nil {
		t.Error("ParseTime garbage succeeded")
	}
}

func TestCompare(t *testing.T) {
	if Compare(Int64(1), Int64(2)) != -1 || Compare(Int64(2), Int64(1)) != 1 || Compare(Int64(5), Int64(5)) != 0 {
		t.Error("int compare wrong")
	}
	if Compare(Str("a"), Str("b")) != -1 {
		t.Error("string compare wrong")
	}
	// Mixed numeric kinds compare by value, like Hive's lenient coercion.
	if Compare(Int64(3), Float64(3.0)) != 0 {
		t.Error("mixed numeric compare wrong")
	}
	// Integers compare as their float64 conversions do, at every magnitude:
	// past 2^53 neighbours convert to the same float and compare equal.
	ints := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53), -(1 << 53) - 1, 1<<62 + 1, 1 << 62, math.MaxInt64, math.MinInt64, 1354320000}
	for _, a := range ints {
		for _, b := range ints {
			want := 0
			if af, bf := float64(a), float64(b); af < bf {
				want = -1
			} else if af > bf {
				want = 1
			}
			if got := Compare(Int64(a), Int64(b)); got != want {
				t.Errorf("Compare(%d, %d) = %d, float order %d", a, b, got, want)
			}
			if got := Compare(TimeUnix(a), TimeUnix(b)); got != want {
				t.Errorf("Compare(time %d, time %d) = %d, float order %d", a, b, got, want)
			}
		}
	}
}

func TestSchemaLookup(t *testing.T) {
	s := meterSchema()
	if s.ColIndex("PowerConsumed") != 3 {
		t.Errorf("case-insensitive lookup failed: %d", s.ColIndex("PowerConsumed"))
	}
	if s.ColIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	p, err := s.Project("ts", "userId")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Col(0).Name != "ts" || p.Col(1).Kind != KindInt64 {
		t.Errorf("Project = %v", p)
	}
	if _, err := s.Project("ghost"); err == nil {
		t.Error("Project of missing column succeeded")
	}
}

func TestTextRowRoundTrip(t *testing.T) {
	s := meterSchema()
	for _, row := range sampleRows(20) {
		line := EncodeTextRow(row)
		got, err := DecodeTextRow(s, line)
		if err != nil {
			t.Fatal(err)
		}
		for i := range row {
			if Compare(got[i], row[i]) != 0 {
				t.Errorf("col %d: got %v want %v (line %q)", i, got[i], row[i], line)
			}
		}
	}
}

func TestDecodeTextRowBadFieldCount(t *testing.T) {
	s := meterSchema()
	if _, err := DecodeTextRow(s, "1,2"); err == nil {
		t.Error("short line decoded without error")
	}
}

// TestDecodeTextLineMatchesRowDecode: decoding a line held as bytes yields
// the cells, and the errors, of decoding it as a string; its string cells
// keep nothing of the bytes; and a meter line parses without allocating.
func TestDecodeTextLineMatchesRowDecode(t *testing.T) {
	s := meterSchema()
	lines := []string{
		"1,2,2012-12-01,0.5,note",
		"-7,+3,2012-12-01 06:30:00,-1e-07,a, b",
		"9223372036854775807,0,1354320000,NaN,",
		"-9223372036854775808,1,2012-12-01,-0,x",
		"007,1,2012-02-30,1,x", // a calendar day time.Parse refuses
		"1,2,2012-12-01,zero,x",
		"1,2,2012-12-01",
		"1.5,2,2012-12-01,1,x",
	}
	for _, line := range lines {
		for _, project := range [][]bool{nil, {true, false, true, false, true}} {
			want := make(Row, s.Len())
			wantErr := DecodeTextRowInto(s, line, project, want)
			buf := []byte(line)
			got := make(Row, s.Len())
			gotErr := DecodeTextLineInto(s, buf, project, got)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Errorf("%q: error %v, string decode %v", line, gotErr, wantErr)
				continue
			}
			for i := range buf {
				buf[i] = '#'
			}
			if wantErr == nil && fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%q project %v: cells %v, string decode %v", line, project, got, want)
			}
		}
	}
	line, row := []byte("123456,7,2012-12-03 11:22:33,12.345678,"), make(Row, s.Len())
	if allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeTextLineInto(s, line, nil, row); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a meter line allocates %.0f times, want 0", allocs)
	}
}

func TestTextField(t *testing.T) {
	line := "100,11,2012-12-30,5.5,ok"
	cases := []struct {
		i    int
		want string
	}{{0, "100"}, {1, "11"}, {2, "2012-12-30"}, {4, "ok"}}
	for _, c := range cases {
		got, ok := TextFieldBytes([]byte(line), c.i)
		if !ok || string(got) != c.want {
			t.Errorf("TextFieldBytes(%d) = %q,%v want %q", c.i, got, ok, c.want)
		}
	}
	if _, ok := TextFieldBytes([]byte(line), 9); ok {
		t.Error("TextFieldBytes out of range returned ok")
	}
}

func TestTextWriterOffsets(t *testing.T) {
	fs := dfs.New(32)
	w, _ := fs.Create("/t/f")
	tw := NewTextWriter(w)
	rows := sampleRows(5)
	var offsets []int64
	for _, r := range rows {
		offsets = append(offsets, tw.Offset())
		if err := tw.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	// Each recorded offset must be the true start of its line.
	r, _ := fs.Open("/t/f")
	lr := NewLineReader(r, 0, r.Size())
	i := 0
	for {
		_, off, ok := lr.Next()
		if !ok {
			break
		}
		if off != offsets[i] {
			t.Errorf("line %d starts at %d, recorded %d", i, off, offsets[i])
		}
		i++
	}
	if i != len(rows) {
		t.Errorf("read %d lines, want %d", i, len(rows))
	}
}

func TestLineReaderSplitOwnership(t *testing.T) {
	fs := dfs.New(1 << 20)
	w, _ := fs.Create("/f")
	tw := NewTextWriter(w)
	var want []string
	for i := 0; i < 200; i++ {
		line := fmt.Sprintf("row-%04d,payload-%d", i, i*i)
		want = append(want, line)
		tw.WriteLine([]byte(line))
	}
	tw.Close()
	r, _ := fs.Open("/f")
	size := r.Size()
	// Chop the file at arbitrary byte positions; the union of lines seen by
	// consecutive readers must be exactly the file, no dupes, no gaps.
	for _, parts := range []int{1, 2, 3, 7} {
		var got []string
		for p := 0; p < parts; p++ {
			start := size * int64(p) / int64(parts)
			end := size * int64(p+1) / int64(parts)
			lr := NewLineReader(r, start, end)
			for {
				line, _, ok := lr.Next()
				if !ok {
					break
				}
				got = append(got, string(line))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: got %d lines, want %d (or order mismatch)", parts, len(got), len(want))
		}
	}
}

// Property: for any ASCII payload lines and any split point, the two-reader
// union equals the file content.
func TestLineReaderSplitProperty(t *testing.T) {
	f := func(seed int64, cut uint16) bool {
		fs := dfs.New(128)
		w, _ := fs.Create("/f")
		tw := NewTextWriter(w)
		n := int(seed%50) + 1
		var want []string
		for i := 0; i < n; i++ {
			line := fmt.Sprintf("%d-%d", seed, i)
			want = append(want, line)
			tw.WriteLine([]byte(line))
		}
		tw.Close()
		r, _ := fs.Open("/f")
		size := r.Size()
		c := int64(cut) % (size + 1)
		var got []string
		for _, rng := range [][2]int64{{0, c}, {c, size}} {
			lr := NewLineReader(r, rng[0], rng[1])
			for {
				line, _, ok := lr.Next()
				if !ok {
					break
				}
				got = append(got, string(line))
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadTextRows(t *testing.T) {
	fs := dfs.New(64)
	s := meterSchema()
	rows := sampleRows(50)
	if err := WriteTextRows(fs, "/tbl/p0", rows); err != nil {
		t.Fatal(err)
	}
	got, err := readTextRows(fs, "/tbl/p0", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if Compare(got[i][c], rows[i][c]) != 0 {
				t.Fatalf("row %d col %d: %v != %v", i, c, got[i][c], rows[i][c])
			}
		}
	}
}

func TestRCFileRoundTrip(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	rows := sampleRows(100)
	offsets, err := WriteRCRows(fs, "/tbl/rc0", s, rows, 16)
	if err != nil {
		t.Fatal(err)
	}
	if wantGroups := (100 + 15) / 16; len(offsets) != wantGroups {
		t.Errorf("got %d groups, want %d", len(offsets), wantGroups)
	}
	got, err := readRCRows(fs, "/tbl/rc0", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if Compare(got[i][c], rows[i][c]) != 0 {
				t.Fatalf("row %d col %d mismatch", i, c)
			}
		}
	}
}

func TestRCReadGroupProjectedFullWidth(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	rows := sampleRows(60)
	offsets, err := WriteRCRows(fs, "/rc", s, rows, 25)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/rc")
	g, _, err := ReadGroupProjected(r, offsets[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 25 {
		t.Errorf("middle group rows = %d, want 25", g.Rows)
	}
	decoded, err := g.DecodeRows(s)
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0][0].I != rows[25][0].I {
		t.Errorf("group 1 first row userId = %d, want %d", decoded[0][0].I, rows[25][0].I)
	}
	if f := decoded[3][3].F; math.Abs(f-rows[28][3].F) > 1e-12 {
		t.Errorf("column value = %v, want %v", f, rows[28][3].F)
	}
}

func TestRCBadMagic(t *testing.T) {
	fs := dfs.New(64)
	fs.WriteFile("/junk", []byte("this is not an rcfile"))
	r, _ := fs.Open("/junk")
	if _, _, err := ReadGroupProjected(r, 0, nil); err == nil {
		t.Error("expected magic error")
	}
}

// Property: RCFile round-trips random numeric tables of any shape.
func TestRCFileRoundTripProperty(t *testing.T) {
	f := func(vals []int64, groupRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSchema(Column{"a", KindInt64}, Column{"b", KindFloat64})
		rows := make([]Row, len(vals))
		for i, v := range vals {
			rows[i] = Row{Int64(v), Float64(float64(v) / 3.0)}
		}
		fs := dfs.New(1 << 20)
		gr := int(groupRaw%20) + 1
		if _, err := WriteRCRows(fs, "/f", s, rows, gr); err != nil {
			return false
		}
		got, err := readRCRows(fs, "/f", s)
		if err != nil || len(got) != len(rows) {
			return false
		}
		for i := range rows {
			if got[i][0].I != rows[i][0].I {
				return false
			}
			if math.Abs(got[i][1].F-rows[i][1].F) > 1e-12*math.Abs(rows[i][1].F) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// readTextRows decodes every row of the text file at path.
func readTextRows(fs *dfs.FS, path string, schema *Schema) ([]Row, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	lines, err := ReadAllLines(r)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(lines))
	for _, l := range lines {
		row, err := DecodeTextRow(schema, l)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// readRCRows decodes every row of the RCFile at path, group by group.
func readRCRows(fs *dfs.FS, path string, schema *Schema) ([]Row, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	offsets, err := ReadGroupIndex(fs, path)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, off := range offsets {
		g, _, err := ReadGroupProjected(r, off, nil)
		if err != nil {
			return nil, err
		}
		rs, err := g.DecodeRows(schema)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}
