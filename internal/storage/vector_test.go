package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// TestColStatsZoneRoundTrip: zone maps written by the RCFile writer are
// typed in their columns' kinds and come back exactly through the colstats
// encoding, including a zone-less group interleaved with zoned ones.
func TestColStatsZoneRoundTrip(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	rows := sampleRows(10)
	if _, err := WriteRCRows(fs, "/tbl/zones", s, rows, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := ReadColStats(fs, "/tbl/zones")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d groups, want 3", len(stats))
	}
	for gi, g := range stats {
		if !g.HasZone() {
			t.Fatalf("group %d lost its zone map", gi)
		}
	}
	zoneIs := func(gi, c int, wantLo, wantHi Value) {
		t.Helper()
		if lo, hi, ok := stats[gi].Zone(c); !ok || lo != wantLo || hi != wantHi {
			t.Errorf("group %d column %d zone = [%v, %v] %v, want [%v, %v]", gi, c, lo, hi, ok, wantLo, wantHi)
		}
	}
	// Group 0 holds rows 0..3: userId 1..4, note meter-0..meter-3.
	zoneIs(0, 0, Int64(1), Int64(4))
	zoneIs(0, 4, Str("meter-0"), Str("meter-3"))
	// Final short group holds rows 8..9: userId 9..10.
	zoneIs(2, 0, Int64(9), Int64(10))

	// A zone-less stat (hand-built) survives the round trip as zone-less
	// rather than growing empty zones.
	mixed := []GroupStat{stats[0], {Rows: 4, ColLens: []int64{1, 1, 1, 1, 1}}}
	if err := WriteColStats(fs, "/tbl/mixed", s, mixed); err != nil {
		t.Fatal(err)
	}
	back, err := ReadColStats(fs, "/tbl/mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !back[0].HasZone() || back[1].HasZone() {
		t.Fatalf("mixed zone flags wrong: %+v", back)
	}
	for c := 0; c < s.Len(); c++ {
		lo, hi, _ := stats[0].Zone(c)
		if gotLo, gotHi, ok := back[0].Zone(c); !ok || gotLo != lo || gotHi != hi {
			t.Errorf("column %d zone did not round-trip: [%v, %v] %v, want [%v, %v]", c, gotLo, gotHi, ok, lo, hi)
		}
	}
}

// TestColStatsRefusesOtherVersions: only the v4 stream WriteColStats emits
// is read. The text-zoned v3 stream, an older v2 stream, a magic-less v1
// stream and an unknown version are refused with an error naming the file.
func TestColStatsRefusesOtherVersions(t *testing.T) {
	fs := dfs.New(1 << 20)
	if _, err := WriteRCRows(fs, "/tbl/v4", meterSchema(), sampleRows(4), 4); err != nil {
		t.Fatal(err)
	}
	v4, err := fs.ReadFile(ColStatsPath("/tbl/v4"))
	if err != nil {
		t.Fatal(err)
	}
	if v4[0] != colStatsMagic || v4[1] != colStatsVersion || colStatsVersion != 4 {
		t.Fatalf("writer emitted header %x, want %x 04", v4[:2], colStatsMagic)
	}
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	// One two-column group with no zone map: rows, colCount, lens, zone flag.
	buf.Write([]byte{colStatsMagic, 2})
	for _, v := range []uint64{5, 2, 40, 40, 0} {
		put(v)
	}
	v2 := buf.Bytes()
	// The same group as v3 wrote it, with its encoding flag.
	v3 := append(append([]byte{colStatsMagic, 3}, v2[2:]...), 0)
	for name, data := range map[string][]byte{
		"v3":      v3,
		"v2":      v2,
		"v1":      v2[2:],
		"v5":      append([]byte{colStatsMagic, 5}, v4[2:]...),
		"no body": {colStatsMagic},
	} {
		path := "/tbl/" + strings.ReplaceAll(name, " ", "")
		if err := fs.WriteFile(ColStatsPath(path), data); err != nil {
			t.Fatal(err)
		}
		_, err := ReadColStats(fs, path)
		if err == nil {
			t.Errorf("%s stream accepted", name)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("%s stream: error %q does not name %s", name, err, path)
		}
	}
}

// TestReadGroupColumnsMatchesRowDecode: the vectorised group decode yields,
// cell for cell, the same values as the row-at-a-time decode — including
// projected reads (zero values in skipped columns) — and the reused batch
// stays correct across groups of different sizes.
func TestReadGroupColumnsMatchesRowDecode(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	rows := sampleRows(10)
	if _, err := WriteRCRows(fs, "/tbl/vec", s, rows, 4); err != nil {
		t.Fatal(err)
	}
	offsets, err := ReadGroupIndex(fs, "/tbl/vec")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/tbl/vec")
	if err != nil {
		t.Fatal(err)
	}
	for _, project := range [][]bool{nil, {true, false, true, true, false}} {
		batch := NewColumnBatch(s)
		for _, off := range offsets {
			read, err := ReadGroupColumns(r, off, s, project, batch)
			if err != nil {
				t.Fatal(err)
			}
			g, wantRead, err := ReadGroupProjected(r, off, project)
			if err != nil {
				t.Fatal(err)
			}
			if read != wantRead {
				t.Errorf("group %d: vector read %d bytes, row read %d", off, read, wantRead)
			}
			want, err := g.decodeRowsProjected(s, project)
			if err != nil {
				t.Fatal(err)
			}
			if batch.Rows != len(want) {
				t.Fatalf("group %d: batch has %d rows, want %d", off, batch.Rows, len(want))
			}
			for ri := range want {
				got := batch.MaterialiseRow(ri)
				for c := range want[ri] {
					if Compare(got[c], want[ri][c]) != 0 || got[c].Kind != want[ri][c].Kind {
						t.Fatalf("group %d row %d col %d: %v vs %v", off, ri, c, got[c], want[ri][c])
					}
				}
			}
		}
	}
}

// TestDecodeRowsProjectedAllocs guards the allocation profiles of the
// reference row decoder — a numeric-only projection must allocate a constant
// handful of slices (rows header plus the flat cell arena), not one Value box
// per cell — and of the batch decoder every reader uses.
func TestDecodeRowsProjectedAllocs(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	if _, err := WriteRCRows(fs, "/tbl/allocs", s, sampleRows(64), 64); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/tbl/allocs")
	if err != nil {
		t.Fatal(err)
	}
	project := []bool{true, true, true, true, false} // numeric columns only
	g, _, err := ReadGroupProjected(r, 0, project)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.decodeRowsProjected(s, project); err != nil {
			t.Fatal(err)
		}
	})
	// rows slice + cell arena + small fixed overhead; anything near one
	// alloc per row (64) means the per-cell fast paths regressed.
	if allocs > 8 {
		t.Errorf("decodeRowsProjected allocates %.0f times per 64-row group, want <= 8", allocs)
	}

	// The vectorised decode into a reused batch must likewise stay near
	// zero steady-state allocations for numeric columns.
	batch := NewColumnBatch(s)
	if _, err := ReadGroupColumns(r, 0, s, project, batch); err != nil {
		t.Fatal(err) // warm the vectors
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := ReadGroupColumns(r, 0, s, project, batch); err != nil {
			t.Fatal(err)
		}
	})
	// ReadGroupProjected's header/payload buffers remain; the decode
	// itself must not add per-row allocations.
	if allocs > 12 {
		t.Errorf("ReadGroupColumns allocates %.0f times per 64-row group, want <= 12", allocs)
	}
}

// maxReadGroupAllocs is BenchmarkReadGroupColumns' allocation budget: the
// group's header, struct, column and tag slices and one payload per
// projected column. Each column decoded from text adds its string copy (10
// a group while the meter's numbers were text).
const maxReadGroupAllocs = 8

// BenchmarkReadGroupColumns reports allocs/op for the vectorised decode of
// a 1024-row meter group, its four numeric columns packed, and fails above
// maxReadGroupAllocs.
func BenchmarkReadGroupColumns(b *testing.B) {
	fs := dfs.New(1 << 24)
	s := meterSchema()
	if _, err := WriteRCRows(fs, "/tbl/benchvec", s, sampleRows(1024), 1024); err != nil {
		b.Fatal(err)
	}
	r, err := fs.Open("/tbl/benchvec")
	if err != nil {
		b.Fatal(err)
	}
	project := []bool{true, true, true, true, false}
	batch := NewColumnBatch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadGroupColumns(r, 0, s, project, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if a := testing.AllocsPerRun(20, func() {
		if _, err := ReadGroupColumns(r, 0, s, project, batch); err != nil {
			b.Fatal(err)
		}
	}); a > maxReadGroupAllocs {
		b.Fatalf("ReadGroupColumns allocates %.0f times a group, budget %d", a, maxReadGroupAllocs)
	}
}

// lineSchema has a cell of every kind, a string column in the middle (which
// may be empty but hold no delimiter) and one last (which may hold it).
func lineSchema() *Schema {
	return NewSchema(
		Column{"id", KindInt64},
		Column{"tag", KindString},
		Column{"f", KindFloat64},
		Column{"ts", KindTime},
		Column{"note", KindString},
	)
}

// checkLinesAreRenderings reads every group of the RCFile at path and holds
// each row's Line to the rendering of its decoded values, for the full read
// and a projected one (whose skipped cells render as zero values). It
// returns the encodings the groups' columns were stored in.
func checkLinesAreRenderings(t testing.TB, fs *dfs.FS, path string, s *Schema) map[byte]bool {
	t.Helper()
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets, err := ReadGroupIndex(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	encs := map[byte]bool{}
	project := make([]bool, s.Len())
	project[0] = true
	for _, proj := range [][]bool{nil, project} {
		batch := NewColumnBatch(s)
		for _, off := range offsets {
			g, _, err := ReadGroupProjected(r, off, nil)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < s.Len(); c++ {
				encs[g.Enc(c)] = true
			}
			if _, err := ReadGroupColumns(r, off, s, proj, batch); err != nil {
				t.Fatal(err)
			}
			for _, ri := range batch.Sel() {
				want := AppendTextRow(nil, batch.MaterialiseRow(ri))
				if got := batch.Line(ri); !bytes.Equal(got, want[:len(want)-1]) {
					t.Fatalf("group %d row %d (project %v): Line = %q, rendering %q", off, ri, proj, got, want[:len(want)-1])
				}
			}
		}
	}
	return encs
}

// TestLineIsRenderingOfStoredCells pins what ColumnBatch.Line and the
// RCFile segment writer rest on: a cell the RCWriter stored reads back as
// exactly the text AppendText renders of its decoded value, whichever
// encoding holds it, so a line assembled from stored cells is the row's
// rendering.
func TestLineIsRenderingOfStoredCells(t *testing.T) {
	day := time.Date(2012, 12, 3, 0, 0, 0, 0, time.UTC)
	floats := []float64{-1.5, 1e21, 1.2345e-7, 0.1 + 0.2, 3.141592653589793, math.Copysign(0, -1), -123456789.125, 4}
	var varied []Row
	for i := 0; i < 40; i++ {
		ts := day.Add(time.Duration(i) * 7 * time.Hour) // bare dates and full timestamps
		varied = append(varied, Row{
			Int64(int64(i*37) - 500),
			Str([]string{"", "cq", "bj-north"}[i%3]),
			Float64(floats[i%len(floats)]),
			Time(ts),
			Str([]string{"", "a, b", "12 Main St, Springfield", "plain"}[i%4]),
		})
	}
	var runs []Row // long runs: run-length floats and timestamps, a dictionary tag
	for i := 0; i < 64; i++ {
		runs = append(runs, Row{
			Int64(int64(i)),
			Str([]string{"cq", "bj"}[i%2]),
			Float64(floats[i/16]),
			Time(day.Add(time.Duration(i/32) * 90 * time.Minute)),
			Str("x, y"),
		})
	}
	cases := []struct {
		name   string
		rows   []Row
		opts   RCWriteOptions
		encs   []byte // encodings some column must be stored in
		groups int
	}{
		{"plain", varied, RCWriteOptions{DisableEncoding: true}, []byte{EncPlain}, 16},
		{"encoded", varied, RCWriteOptions{}, []byte{EncPlain, EncDict}, 16},
		{"runs", runs, RCWriteOptions{}, []byte{EncRLE, EncDict}, 64},
		{"one-row groups", varied[:5], RCWriteOptions{}, []byte{EncPlain}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.New(1 << 20)
			if _, err := WriteRCRowsOpts(fs, "/t/data", lineSchema(), tc.rows, tc.groups, tc.opts); err != nil {
				t.Fatal(err)
			}
			encs := checkLinesAreRenderings(t, fs, "/t/data", lineSchema())
			for _, e := range tc.encs {
				if !encs[e] {
					t.Errorf("no column stored as %s (got %v): the case does not cover it", EncodingName(e), encs)
				}
			}
		})
	}
}

// TestReadGroupColumnsLeavesCellsUnindexed guards the query decode path: a
// read indexes no cell text until something asks the batch for a line, and
// costs the same allocations per group (10, at the 1,024-row meter group of
// BenchmarkReadGroupColumns) whether or not the previous delivery's lines
// were read.
func TestReadGroupColumnsLeavesCellsUnindexed(t *testing.T) {
	fs := dfs.New(1 << 24)
	s := meterSchema()
	if _, err := WriteRCRows(fs, "/tbl/vec", s, sampleRows(1024), 1024); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/tbl/vec")
	if err != nil {
		t.Fatal(err)
	}
	project := []bool{true, true, true, true, false}
	batch := NewColumnBatch(s)
	read := func() {
		if _, err := ReadGroupColumns(r, 0, s, project, batch); err != nil {
			t.Fatal(err)
		}
	}
	read()
	plain := testing.AllocsPerRun(20, read)
	batch.Line(0)
	afterLine := testing.AllocsPerRun(20, func() {
		read()
		for c := range batch.Cols {
			if n := len(batch.Cols[c].cells); n != 0 {
				t.Fatalf("column %d has %d cells indexed by a read", c, n)
			}
		}
		batch.Line(batch.Rows - 1)
	})
	if plain > 10 || afterLine > plain {
		t.Errorf("ReadGroupColumns allocates %.0f times per group (%.0f with lines read), want <= 10 both", plain, afterLine)
	}
}
