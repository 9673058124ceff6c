package storage

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// TestRCFileEmptyTable: a table with zero rows writes no groups and reads
// back as no rows, with empty (but present) side metadata.
func TestRCFileEmptyTable(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	offsets, err := WriteRCRows(fs, "/tbl/empty", s, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 0 {
		t.Fatalf("empty table wrote %d groups", len(offsets))
	}
	got, err := readRCRows(fs, "/tbl/empty", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty table read %d rows", len(got))
	}
	idx, err := ReadGroupIndex(fs, "/tbl/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 0 {
		t.Fatalf("group index has %d entries", len(idx))
	}
	stats, err := ReadColStats(fs, "/tbl/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 0 {
		t.Fatalf("column stats have %d entries", len(stats))
	}
	groups, err := LoadRowGroups(fs, "/tbl/empty")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/tbl/empty")
	sr := NewSegmentReader(r, s, RCFile, 0, r.Size(), SegmentOptions{Groups: groups, Batch: NewColumnBatch(s)})
	if _, ok, err := sr.Next(); ok || err != nil {
		t.Fatalf("reader on empty file: ok=%v err=%v", ok, err)
	}
}

// TestRCFilePartialFinalGroup: rows % groupRows != 0 leaves a short final
// group whose recorded stats and decoded rows stay consistent.
func TestRCFilePartialFinalGroup(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	rows := sampleRows(10)
	offsets, err := WriteRCRows(fs, "/tbl/partial", s, rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 3 {
		t.Fatalf("got %d groups, want 3 (4+4+2)", len(offsets))
	}
	stats, err := ReadColStats(fs, "/tbl/partial")
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{stats[0].Rows, stats[1].Rows, stats[2].Rows}; got[0] != 4 || got[1] != 4 || got[2] != 2 {
		t.Fatalf("group row counts = %v, want [4 4 2]", got)
	}
	r, _ := fs.Open("/tbl/partial")
	g, _, err := ReadGroupProjected(r, offsets[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 2 {
		t.Fatalf("final group rows = %d, want 2", g.Rows)
	}
	decoded, err := g.DecodeRows(s)
	if err != nil {
		t.Fatal(err)
	}
	for c := range rows[9] {
		if Compare(decoded[1][c], rows[9][c]) != 0 {
			t.Fatalf("final row col %d mismatch: %v vs %v", c, decoded[1][c], rows[9][c])
		}
	}
	// The recorded stats reproduce the group's encoded size exactly.
	if stats[2].EncodedSize() != g.Size {
		t.Errorf("EncodedSize = %d, group size = %d", stats[2].EncodedSize(), g.Size)
	}
	got, err := readRCRows(fs, "/tbl/partial", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("round trip read %d rows, want %d", len(got), len(rows))
	}
}

// TestRCFileProjectionReadsFewerBytes: fetching a single column's payload
// must cost strictly fewer logical bytes than a full-row read, match the
// GroupStat prediction exactly, and still decode the projected values
// correctly (with zero placeholders elsewhere).
func TestRCFileProjectionReadsFewerBytes(t *testing.T) {
	fs := dfs.New(1 << 20)
	s := meterSchema()
	rows := sampleRows(64)
	offsets, err := WriteRCRows(fs, "/tbl/proj", s, rows, 16)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ReadColStats(fs, "/tbl/proj")
	if err != nil {
		t.Fatal(err)
	}
	project := make([]bool, s.Len())
	project[3] = true // powerConsumed only

	r, _ := fs.Open("/tbl/proj")
	var fullBytes, projBytes int64
	for gi, off := range offsets {
		gFull, readFull, err := ReadGroupProjected(r, off, nil)
		if err != nil {
			t.Fatal(err)
		}
		gProj, readProj, err := ReadGroupProjected(r, off, project)
		if err != nil {
			t.Fatal(err)
		}
		fullBytes += readFull
		projBytes += readProj
		if gFull.Size != stats[gi].EncodedSize() || readFull != stats[gi].ChargedSize() {
			t.Fatalf("group %d: full read %d of %d bytes on disk, stat %d charged of %d", gi, readFull, gFull.Size, stats[gi].ChargedSize(), stats[gi].EncodedSize())
		}
		if readProj != stats[gi].ProjectedSize(project) {
			t.Fatalf("group %d: projected read %d, stat predicts %d", gi, readProj, stats[gi].ProjectedSize(project))
		}
		full, err := gFull.DecodeRows(s)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := gProj.decodeRowsProjected(s, project)
		if err != nil {
			t.Fatal(err)
		}
		for i := range full {
			if Compare(full[i][3], proj[i][3]) != 0 {
				t.Fatalf("group %d row %d: projected col differs: %v vs %v", gi, i, proj[i][3], full[i][3])
			}
			if Compare(proj[i][0], ZeroValue(KindInt64)) != 0 {
				t.Fatalf("group %d row %d: unprojected col not zero: %v", gi, i, proj[i][0])
			}
		}
	}
	if projBytes >= fullBytes {
		t.Fatalf("projection did not save bytes: %d >= %d", projBytes, fullBytes)
	}
}

// TestSegmentWriterCutAlignsSlices drives the format-agnostic writer the
// way the DGFIndex build reducer does — Cut at every slice boundary — and
// checks that each recorded [start, end) range reads back exactly its own
// records in both formats.
func TestSegmentWriterCutAlignsSlices(t *testing.T) {
	s := meterSchema()
	rows := sampleRows(30)
	batches := [][]Row{rows[0:7], rows[7:19], rows[19:30]}

	for _, format := range []Format{TextFile, RCFile} {
		fs := dfs.New(1 << 20)
		sw, err := NewSegmentWriter(fs, "/seg/data", s, format, 5)
		if err != nil {
			t.Fatal(err)
		}
		type span struct{ start, end int64 }
		var spans []span
		var line []byte
		for _, batch := range batches {
			start := sw.Offset()
			for _, row := range batch {
				line = AppendTextRow(line[:0], row)
				if err := sw.WriteRecord(SegmentRecord{Line: line[:len(line)-1], Row: row}); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Cut(); err != nil {
				t.Fatal(err)
			}
			spans = append(spans, span{start, sw.Offset()})
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}

		var groups *RowGroups
		if format == RCFile {
			groups, err = LoadRowGroups(fs, "/seg/data")
			if err != nil {
				t.Fatal(err)
			}
			groupOffsets := groups.Offsets
			// Cut boundaries must coincide with row-group starts.
			isBoundary := map[int64]bool{}
			for _, off := range groupOffsets {
				isBoundary[off] = true
			}
			for i, sp := range spans[1:] {
				if !isBoundary[sp.start] {
					t.Fatalf("%v: slice %d start %d is not a group boundary %v", format, i+1, sp.start, groupOffsets)
				}
			}
		}
		r, _ := fs.Open("/seg/data")
		for bi, sp := range spans {
			sr := NewSegmentReader(r, s, format, sp.start, sp.end, SegmentOptions{Groups: groups, Batch: NewColumnBatch(s)})
			var got []Row
			for {
				b, ok, err := sr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for _, ri := range b.Sel() {
					got = append(got, b.MaterialiseRow(ri).Clone())
				}
			}
			if len(got) != len(batches[bi]) {
				t.Fatalf("%v: slice %d read %d rows, want %d", format, bi, len(got), len(batches[bi]))
			}
			for i := range got {
				for c := range got[i] {
					if Compare(got[i][c], batches[bi][i][c]) != 0 {
						t.Fatalf("%v: slice %d row %d col %d mismatch", format, bi, i, c)
					}
				}
			}
		}
	}
}

// TestWriteRowTextStoresWhatWriteRowRenders: a row handed over as its text
// line is stored cell for cell as WriteRow renders it, zone maps included, so
// the bytes and sidecars of the two writes are identical; a line short of a
// field is refused.
func TestWriteRowTextStoresWhatWriteRowRenders(t *testing.T) {
	s := meterSchema()
	rows := sampleRows(50)
	rows[7][4] = Str("a, b") // the last column may hold the delimiter
	write := func(fs *dfs.FS, asText bool) []byte {
		w, err := fs.Create("/t/data")
		if err != nil {
			t.Fatal(err)
		}
		rw := NewRCWriter(w, s, 8)
		var line []byte
		for _, row := range rows {
			if asText {
				line = AppendTextRow(line[:0], row)
				err = rw.WriteRowText(line[:len(line)-1], row)
			} else {
				err = rw.WriteRow(row)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := WriteColStats(fs, "/t/data", s, rw.GroupStats()); err != nil {
			t.Fatal(err)
		}
		data, _ := fs.ReadFile("/t/data")
		stats, _ := fs.ReadFile(ColStatsPath("/t/data"))
		return append(data, stats...)
	}
	if rendered, stored := write(dfs.New(1<<20), false), write(dfs.New(1<<20), true); !bytes.Equal(rendered, stored) {
		t.Errorf("WriteRowText wrote %d bytes unlike WriteRow's %d", len(stored), len(rendered))
	}

	w, err := dfs.New(1 << 20).Create("/t/short")
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRCWriter(w, s, 8).WriteRowText([]byte("1,2,2012-12-01,0.5"), rows[0]); err == nil {
		t.Error("a line of four fields was accepted for a five-column schema")
	}
}

// TestRCWriterBatchesWholeGroups: the writer hands the file whole groups in
// batches of about rcWriteBatch bytes (a group larger than that in a batch of
// its own), so the file only ever ends at a group boundary, and by Close it
// holds every group, at the address the running sum of the groups' charged
// sizes gives it, and reads back every row.
func TestRCWriterBatchesWholeGroups(t *testing.T) {
	s := NewSchema(Column{"id", KindInt64}, Column{"note", KindString})
	var rows []Row
	for i := 0; i < 3000; i++ {
		note := strings.Repeat(string(rune('a'+i%26)), 1+i%97)
		if i == 700 || i == 2100 {
			note = strings.Repeat("x", 3*rcWriteBatch) // a group larger than a batch
		}
		rows = append(rows, Row{Int64(int64(i)), Str(note)})
	}
	fs := dfs.New(1 << 16)
	fw, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRCWriter(fw, s, 40)
	for i, row := range rows {
		if err := rw.WriteRow(row); err != nil {
			t.Fatal(err)
		}
		if i%333 == 0 {
			if err := rw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		size, ends := fw.Size(), diskEnds(rw.GroupStats())
		if !slices.Contains(ends, size) {
			t.Fatalf("after row %d the file ends at %d, no group boundary", i, size)
		}
	}
	if ends := diskEnds(rw.GroupStats()); fw.Size() == 0 || fw.Size() == ends[len(ends)-1] {
		t.Fatalf("the file holds %d of %d bytes before Close: no batching seen", fw.Size(), ends[len(ends)-1])
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	var sum, disk int64
	for g, st := range rw.GroupStats() {
		if rw.GroupOffsets()[g] != sum {
			t.Fatalf("group %d recorded at %d, the groups before it end at %d", g, rw.GroupOffsets()[g], sum)
		}
		sum += st.ChargedSize()
		disk += st.EncodedSize()
	}
	if fw.Size() != disk || rw.Offset() != sum {
		t.Fatalf("file %d bytes, writer offset %d, groups %d on disk and %d charged", fw.Size(), rw.Offset(), disk, sum)
	}
	if err := WriteColStats(fs, "/f", s, rw.GroupStats()); err != nil {
		t.Fatal(err)
	}
	got, err := readRCRows(fs, "/f", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("read %d rows, wrote %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i][0].I != rows[i][0].I || got[i][1].S != rows[i][1].S {
			t.Fatalf("row %d reads back as %v", i, got[i])
		}
	}
}

// diskEnds lists 0 and where each group ends on disk.
func diskEnds(stats []GroupStat) []int64 {
	ends := []int64{0}
	for _, st := range stats {
		ends = append(ends, ends[len(ends)-1]+st.EncodedSize())
	}
	return ends
}
