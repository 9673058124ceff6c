package dgf

import (
	"context"
	"fmt"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// These tests drive the one file reader (mapreduce.FileInput.Open) through
// both of its split sources: FileInput's one-segment-per-split table scan
// and SliceInput's clipped slice lists.

var readerSchema = storage.NewSchema(
	storage.Column{Name: "id", Kind: storage.KindInt64},
	storage.Column{Name: "v", Kind: storage.KindFloat64},
)

func readerRows(n int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{storage.Int64(int64(i)), storage.Float64(float64(i) / 2)}
	}
	return rows
}

// wholeFileSlices is a SliceInput whose plan selects the whole file as one
// Slice, so Splits clips it at every block boundary.
func wholeFileSlices(fs *dfs.FS, path string, format storage.Format) *SliceInput {
	size, err := storage.DataSize(fs, path, format)
	if err != nil {
		panic(err)
	}
	return &SliceInput{
		FS: fs, Format: format, Schema: readerSchema,
		Plan: &Plan{Slices: []SliceLoc{{File: path, Start: 0, End: size}}},
	}
}

// recID locates one delivered row: its offset at the format's granularity
// and its position in the batch.
type recID struct {
	off int64
	row int
}

// readSplits opens every split of in and returns, per split, the rows it
// delivered.
func readSplits(t *testing.T, in mapreduce.InputFormat) [][]recID {
	t.Helper()
	splits, err := in.Splits()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]recID, len(splits))
	for i, sp := range splits {
		r, err := in.Open(sp)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, ri := range rec.Batch.Sel() {
				out[i] = append(out[i], recID{rec.Batch.RowOffset(ri), ri})
			}
		}
	}
	return out
}

// TestReaderSplitOwnership: a record that physically straddles a split
// boundary — an RCFile row group across a block edge, a text line across a
// split cut — is delivered by exactly one split, whichever input format
// enumerated the splits.
func TestReaderSplitOwnership(t *testing.T) {
	const blockSize = 256
	for _, format := range []storage.Format{storage.TextFile, storage.RCFile} {
		fs := dfs.New(blockSize)
		rows := readerRows(120)
		path := "/t/data"
		// starts are the addressable record positions: line starts for
		// TextFile, row-group starts for RCFile.
		var starts []int64
		var want int
		if format == storage.RCFile {
			offs, err := storage.WriteRCRows(fs, path, readerSchema, rows, 8)
			if err != nil {
				t.Fatal(err)
			}
			starts, want = offs, len(rows)
		} else {
			if err := storage.WriteTextRows(fs, path, rows); err != nil {
				t.Fatal(err)
			}
			var pos int64
			for _, r := range rows {
				starts = append(starts, pos)
				pos += int64(len(storage.EncodeTextRow(r))) + 1
			}
			want = len(rows)
		}
		size, err := storage.DataSize(fs, path, format)
		if err != nil {
			t.Fatal(err)
		}
		straddles := 0
		for i, s := range starts {
			end := size
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			if s/blockSize != (end-1)/blockSize {
				straddles++
			}
		}
		if straddles == 0 {
			t.Fatalf("%v: no record straddles a block boundary; the test exercises nothing", format)
		}
		inputs := map[string]mapreduce.InputFormat{
			"FileInput":  &mapreduce.FileInput{FS: fs, Paths: []string{path}, Format: format, Schema: readerSchema},
			"SliceInput": wholeFileSlices(fs, path, format),
		}
		for name, in := range inputs {
			perSplit := readSplits(t, in)
			if len(perSplit) < 2 {
				t.Fatalf("%v/%s: %d splits, want several", format, name, len(perSplit))
			}
			seen := map[recID]int{}  // record → deliveries
			owner := map[int64]int{} // record position → owning split
			for si, ids := range perSplit {
				for _, id := range ids {
					seen[id]++
					if prev, ok := owner[id.off]; ok && prev != si {
						t.Errorf("%v/%s: position %d delivered by splits %d and %d", format, name, id.off, prev, si)
					}
					owner[id.off] = si
				}
			}
			if len(seen) != want {
				t.Errorf("%v/%s: %d distinct records, want %d", format, name, len(seen), want)
			}
			for id, n := range seen {
				if n != 1 {
					t.Errorf("%v/%s: record %v delivered %d times", format, name, id, n)
				}
			}
			if len(owner) != len(starts) {
				t.Errorf("%v/%s: %d record positions, want %d", format, name, len(owner), len(starts))
			}
		}
	}
}

// TestReaderAccounting: what the simulated cost model and the index builders
// read off the one reader, case by case. Seeks counts margin jumps plus
// GroupFilter and SkipGroup rejections; GroupsSkipped only the latter; every
// record is a whole row group located by its start, which is every row's
// RowOffset, and a full-width row's Line is its text rendering; a RowFilter
// narrows a batch's selection, which is what the batch counts as, and a batch
// it empties is not delivered.
func TestReaderAccounting(t *testing.T) {
	fs := dfs.New(1 << 20)
	rows := readerRows(30)
	const path = "/rc/f"
	offs, err := storage.WriteRCRows(fs, path, readerSchema, rows, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 3 {
		t.Fatalf("want 3 groups, got %d", len(offs))
	}
	size, err := storage.DataSize(fs, path, storage.RCFile)
	if err != nil {
		t.Fatal(err)
	}
	file := func(in mapreduce.FileInput) *mapreduce.FileInput {
		in.FS, in.Dir, in.Format, in.Schema = fs, "/rc", storage.RCFile, readerSchema
		return &in
	}
	slices := func(plan Plan) *SliceInput {
		if plan.Slices == nil {
			plan.Slices = []SliceLoc{{File: path, Start: 0, End: size}}
		}
		return &SliceInput{FS: fs, Plan: &plan, Format: storage.RCFile, Schema: readerSchema}
	}
	onlyID := []bool{true, false}
	cases := []struct {
		name     string
		in       mapreduce.InputFormat
		records  int64 // Stats.InputRecords (batches count their rows)
		seeks    int64
		skipped  int64
		projects bool // the read is projected: Line renders zero values
		// admit names the rows the delivered selection must hold (nil:
		// every row of the group).
		admit func(off int64, row int) bool
	}{
		{name: "FileInput full width", in: file(mapreduce.FileInput{}), records: 30},
		{name: "FileInput projected", in: file(mapreduce.FileInput{Project: onlyID}), records: 30, projects: true},
		{name: "FileInput GroupFilter", in: file(mapreduce.FileInput{
			GroupFilter: func(_ string, off int64) bool { return off == offs[1] },
		}), records: 10, seeks: 2},
		{name: "FileInput SkipGroup", in: file(mapreduce.FileInput{
			SkipGroup: func(_ string, off int64) bool { return off == offs[1] },
		}), records: 20, seeks: 1, skipped: 1},
		{name: "FileInput GroupFilter and SkipGroup", in: file(mapreduce.FileInput{
			GroupFilter: func(_ string, off int64) bool { return off != offs[0] },
			SkipGroup:   func(_ string, off int64) bool { return off == offs[2] },
		}), records: 10, seeks: 2, skipped: 1},
		{name: "FileInput RowFilter", in: file(mapreduce.FileInput{
			RowFilter: func(_ string, _ int64, row int) bool { return row%2 == 0 },
		}), records: 15, admit: func(_ int64, row int) bool { return row%2 == 0 }},
		{name: "FileInput RowFilter empties a group", in: file(mapreduce.FileInput{
			RowFilter: func(_ string, off int64, row int) bool { return off != offs[1] && row < 3 },
		}), records: 6, admit: func(off int64, row int) bool { return off != offs[1] && row < 3 }},
		{name: "SliceInput full width", in: slices(Plan{}), records: 30},
		{name: "SliceInput projected", in: slices(Plan{Project: onlyID}), records: 30, projects: true},
		{name: "SliceInput SkipGroups", in: slices(Plan{
			SkipGroups: map[string]map[int64]bool{path: {offs[1]: true}},
		}), records: 20, seeks: 1, skipped: 1},
		{name: "SliceInput margin", in: slices(Plan{Slices: []SliceLoc{
			{File: path, Start: offs[0], End: offs[1]},
			{File: path, Start: offs[2], End: size},
		}}), records: 20, seeks: 1},
		{name: "SliceInput adjacent slices", in: slices(Plan{Slices: []SliceLoc{
			{File: path, Start: offs[0], End: offs[1]},
			{File: path, Start: offs[1], End: offs[2]},
		}}), records: 20},
		{name: "SliceInput margin and skip", in: slices(Plan{
			Slices: []SliceLoc{
				{File: path, Start: offs[0], End: offs[1]},
				{File: path, Start: offs[2], End: size},
			},
			SkipGroups: map[string]map[int64]bool{path: {offs[2]: true}},
		}), records: 10, seeks: 2, skipped: 1},
	}
	cfg := cluster.Default()
	for _, tc := range cases {
		var shapeErr error
		stats, err := mapreduce.RunContext(context.Background(), cfg, &mapreduce.Job{
			Name:  tc.name,
			Input: tc.in,
			Map: func(rec mapreduce.Record, _ mapreduce.Emit) error {
				b := rec.Batch
				var want []int
				for ri := 0; ri < b.Rows; ri++ {
					if tc.admit == nil || tc.admit(rec.Offset, ri) {
						want = append(want, ri)
					}
				}
				if fmt.Sprint(b.Sel()) != fmt.Sprint(want) || len(want) == 0 {
					shapeErr = fmt.Errorf("batch at %d selects %v, want %v (non-empty)", rec.Offset, b.Sel(), want)
				}
				group := -1
				for g, off := range offs {
					if off == rec.Offset {
						group = g
					}
				}
				if group < 0 {
					return fmt.Errorf("batch at %d, not a row-group start", rec.Offset)
				}
				for _, ri := range b.Sel() {
					id := group*10 + ri // ten rows a group
					wantLine := storage.EncodeTextRow(rows[id])
					if tc.projects {
						wantLine = storage.EncodeTextRow(storage.Row{rows[id][0], storage.Float64(0)})
					}
					if b.RowOffset(ri) != rec.Offset || string(b.Line(ri)) != wantLine {
						shapeErr = fmt.Errorf("row %d of the batch at %d: offset %d, line %q; want %d, %q",
							ri, rec.Offset, b.RowOffset(ri), b.Line(ri), rec.Offset, wantLine)
					}
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if shapeErr != nil {
			t.Errorf("%s: %v", tc.name, shapeErr)
		}
		if stats.InputRecords != tc.records || stats.Seeks != tc.seeks || stats.GroupsSkipped != tc.skipped {
			t.Errorf("%s: records/seeks/skipped = %d/%d/%d, want %d/%d/%d", tc.name,
				stats.InputRecords, stats.Seeks, stats.GroupsSkipped, tc.records, tc.seeks, tc.skipped)
		}
	}
}

// delivery is what one read of an input hands its map tasks, split by split:
// the id column of every admitted row in delivery order, with each row's
// offset and line, plus the accounting.
type delivery struct {
	ids     [][]int64
	rowOffs [][]int64  // RowOffset of every admitted row
	lines   [][]string // Line of every admitted row
	offsets [][]int64  // Record.Offset of every batch
	counts  [][]int    // rows of every batch
}

func deliver(t *testing.T, in mapreduce.InputFormat) delivery {
	t.Helper()
	splits, err := in.Splits()
	if err != nil {
		t.Fatal(err)
	}
	var d delivery
	for _, sp := range splits {
		r, err := in.Open(sp)
		if err != nil {
			t.Fatal(err)
		}
		var ids, rowOffs, offs []int64
		var lines []string
		var counts []int
		for {
			rec, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			b := rec.Batch
			if b.Rows > storage.DefaultRowGroupRows {
				t.Errorf("batch of %d rows, cap is %d", b.Rows, storage.DefaultRowGroupRows)
			}
			offs = append(offs, rec.Offset)
			for _, ri := range b.Sel() {
				ids = append(ids, b.Cols[0].Ints[ri])
				rowOffs = append(rowOffs, b.RowOffset(ri))
				lines = append(lines, string(b.Line(ri)))
			}
			counts = append(counts, len(b.Sel()))
		}
		d.ids, d.rowOffs, d.lines = append(d.ids, ids), append(d.rowOffs, rowOffs), append(d.lines, lines)
		d.offsets, d.counts = append(d.offsets, offs), append(d.counts, counts)
	}
	return d
}

// TestTextBatchDelivery: a TextFile read hands each split exactly the lines
// Hadoop's rules give it — a clipped segment start skips through the first
// newline at or after it, a clipped end owns a line starting exactly there,
// exact edges own [start, end) — in file order, so a line straddling a split
// cut is owned once and an exact DGF slice edge never spills into an excluded
// neighbour. Each row's RowOffset is its line's start and its Line the stored
// bytes; batches hold at most DefaultRowGroupRows lines and are located by
// their first line's offset. (The bytes and seeks a text read is charged are
// pinned by TestBuildGolden and TestQueryStatsGolden.)
func TestTextBatchDelivery(t *testing.T) {
	const blockSize = 16 << 10
	fs := dfs.New(blockSize)
	rows := readerRows(3000)
	const path = "/t/data"
	if err := storage.WriteTextRows(fs, path, rows); err != nil {
		t.Fatal(err)
	}
	starts := make([]int64, len(rows)+1) // line start offsets, plus the file size
	for i, r := range rows {
		starts[i+1] = starts[i] + int64(len(storage.EncodeTextRow(r))) + 1
	}
	lineAt := map[int64]int{}
	for i, s := range starts[:len(rows)] {
		lineAt[s] = i
	}
	// owned lists, per split of in, the rows Hadoop's rules hand it.
	owned := func(in mapreduce.InputFormat) [][]int64 {
		splits, err := in.Splits()
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]int64, len(splits))
		for si, sp := range splits {
			for _, seg := range sp.(mapreduce.FileSplit).Segments {
				for i, s := range starts[:len(rows)] {
					after := s >= seg.Start && !(seg.ClipStart && s == seg.Start)
					before := s < seg.End || (seg.ClipEnd && s == seg.End)
					if after && before {
						out[si] = append(out[si], int64(i))
					}
				}
			}
		}
		return out
	}
	slices := &SliceInput{FS: fs, Format: storage.TextFile, Schema: readerSchema, Plan: &Plan{Slices: []SliceLoc{
		// Exact line-boundary slices: one inside the first split, one across
		// the first split cut (clipped there), one more than a batch long,
		// and two adjacent ones separated from the rest by excluded lines.
		{File: path, Start: starts[10], End: starts[20]},
		{File: path, Start: starts[1500], End: starts[1700]},
		{File: path, Start: starts[1800], End: starts[2950]},
		{File: path, Start: starts[2960], End: starts[2970]},
		{File: path, Start: starts[2970], End: starts[2990]},
	}}}
	cases := []struct {
		name string
		in   mapreduce.InputFormat
		rows int
	}{
		{"FileInput", &mapreduce.FileInput{FS: fs, Paths: []string{path}, Schema: readerSchema}, 3000},
		{"SliceInput whole file", wholeFileSlices(fs, path, storage.TextFile), 3000},
		{"SliceInput slices", slices, 10 + 200 + 1150 + 10 + 20},
	}
	for _, tc := range cases {
		got, want := deliver(t, tc.in), owned(tc.in)
		if len(got.ids) < 2 {
			t.Fatalf("%s: %d splits, want several", tc.name, len(got.ids))
		}
		if fmt.Sprint(got.ids) != fmt.Sprint(want) {
			t.Errorf("%s: the splits were handed rows other than the ones Hadoop's rules give them", tc.name)
		}
		seen, multi := map[int64]bool{}, false
		for si, ids := range got.ids {
			for ri, id := range ids {
				if seen[id] {
					t.Errorf("%s: row %d delivered twice", tc.name, id)
				}
				seen[id] = true
				if got.rowOffs[si][ri] != starts[id] || got.lines[si][ri] != storage.EncodeTextRow(rows[id]) {
					t.Errorf("%s: row %d at offset %d with line %q, want %d and its stored line", tc.name, id, got.rowOffs[si][ri], got.lines[si][ri], starts[id])
				}
			}
			multi = multi || len(got.offsets[si]) > 1
			// A batch is located by its first line.
			next := 0
			for bi, off := range got.offsets[si] {
				if line, ok := lineAt[off]; !ok || int64(line) != ids[next] {
					t.Errorf("%s: split %d batch %d at offset %d, want the start of row %d", tc.name, si, bi, off, ids[next])
				}
				next += got.counts[si][bi]
			}
		}
		if len(seen) != tc.rows {
			t.Errorf("%s: %d distinct rows, want %d", tc.name, len(seen), tc.rows)
		}
		if !multi {
			t.Errorf("%s: no split delivered more than one batch; the batch cap is not exercised", tc.name)
		}
	}

	// Projection: unprojected cells are neither decoded nor parsed, but every
	// line must still hold every field.
	if err := fs.WriteFile("/p/ok", []byte("1,oops\n2,2.5\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/q/short", []byte("1,1.5\n2\n")); err != nil {
		t.Fatal(err)
	}
	onlyID := []bool{true, false}
	proj := deliver(t, &mapreduce.FileInput{FS: fs, Dir: "/p", Schema: readerSchema, Project: onlyID})
	if fmt.Sprint(proj.ids) != "[[1 2]]" || fmt.Sprint(proj.lines) != "[[1,oops 2,2.5]]" {
		t.Errorf("projected read delivered %v with lines %q, want [[1 2]] and the stored lines", proj.ids, proj.lines)
	}
	for name, in := range map[string]*mapreduce.FileInput{
		"unprojected malformed cell": {FS: fs, Dir: "/p", Schema: readerSchema},
		"short line":                 {FS: fs, Dir: "/q", Schema: readerSchema, Project: onlyID},
	} {
		splits, err := in.Splits()
		if err != nil {
			t.Fatal(err)
		}
		r, err := in.Open(splits[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Next(); err == nil {
			t.Errorf("%s: read succeeded, want a decode error", name)
		}
	}
}
