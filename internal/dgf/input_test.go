package dgf

import (
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
	fi, err := fs.Stat(path)
	if err != nil {
		panic(err)
	}
	return &SliceInput{
		FS: fs, Format: format, Schema: readerSchema,
		Plan: &Plan{Slices: []SliceLoc{{File: path, Start: 0, End: fi.Size}}},
	}
}

// recID locates one delivered record at its format's granularity.
type recID struct {
	off int64
	row int
}

// readSplits opens every split of in and returns, per split, the records it
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
			out[i] = append(out[i], recID{rec.Offset, rec.RowInBlock})
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
		fi, _ := fs.Stat(path)
		straddles := 0
		for i, s := range starts {
			end := fi.Size
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
// GroupFilter and SkipGroup rejections; GroupsSkipped only the latter;
// full-width RCFile rows carry the text rendering in Data, projected rows
// and batches do not; a RowFilter narrows a batch's selection, which is what
// the batch counts as, and a batch it empties is not delivered.
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
	fi, _ := fs.Stat(path)
	file := func(in mapreduce.FileInput) *mapreduce.FileInput {
		in.FS, in.Dir, in.Format, in.Schema = fs, "/rc", storage.RCFile, readerSchema
		return &in
	}
	slices := func(plan Plan, vector bool) *SliceInput {
		if plan.Slices == nil {
			plan.Slices = []SliceLoc{{File: path, Start: 0, End: fi.Size}}
		}
		return &SliceInput{FS: fs, Plan: &plan, Format: storage.RCFile, Schema: readerSchema, Vector: vector}
	}
	onlyID := []bool{true, false}
	cases := []struct {
		name    string
		in      mapreduce.InputFormat
		records int64 // Stats.InputRecords (batches count their rows)
		seeks   int64
		skipped int64
		data    bool // Record.Data carries the row's text rendering
		row     bool // Record.Row set
		batch   bool // Record.Batch set
		// admit, for batch cases, names the rows the delivered selection
		// must hold (nil: every row of the group).
		admit func(off int64, row int) bool
	}{
		{name: "FileInput full width", in: file(mapreduce.FileInput{}), records: 30, data: true, row: true},
		{name: "FileInput projected", in: file(mapreduce.FileInput{Project: onlyID}), records: 30, row: true},
		{name: "FileInput GroupFilter", in: file(mapreduce.FileInput{
			GroupFilter: func(_ string, off int64) bool { return off == offs[1] },
		}), records: 10, seeks: 2, data: true, row: true},
		{name: "FileInput SkipGroup", in: file(mapreduce.FileInput{
			SkipGroup: func(_ string, off int64) bool { return off == offs[1] },
		}), records: 20, seeks: 1, skipped: 1, data: true, row: true},
		{name: "FileInput GroupFilter and SkipGroup", in: file(mapreduce.FileInput{
			GroupFilter: func(_ string, off int64) bool { return off != offs[0] },
			SkipGroup:   func(_ string, off int64) bool { return off == offs[2] },
		}), records: 10, seeks: 2, skipped: 1, data: true, row: true},
		{name: "FileInput Vector", in: file(mapreduce.FileInput{Vector: true}), records: 30, batch: true},
		{name: "FileInput Vector SkipGroup", in: file(mapreduce.FileInput{
			Vector:    true,
			SkipGroup: func(_ string, off int64) bool { return off != offs[1] },
		}), records: 10, seeks: 2, skipped: 2, batch: true},
		{name: "FileInput RowFilter", in: file(mapreduce.FileInput{
			RowFilter: func(_ string, _ int64, row int) bool { return row%2 == 0 },
		}), records: 15, data: true, row: true},
		{name: "FileInput Vector RowFilter", in: file(mapreduce.FileInput{
			Vector:    true,
			RowFilter: func(_ string, _ int64, row int) bool { return row%2 == 0 },
		}), records: 15, batch: true, admit: func(_ int64, row int) bool { return row%2 == 0 }},
		{name: "FileInput Vector RowFilter empties a group", in: file(mapreduce.FileInput{
			Vector:    true,
			RowFilter: func(_ string, off int64, row int) bool { return off != offs[1] && row < 3 },
		}), records: 6, batch: true, admit: func(off int64, row int) bool { return off != offs[1] && row < 3 }},
		{name: "SliceInput full width", in: slices(Plan{}, false), records: 30, data: true, row: true},
		{name: "SliceInput projected", in: slices(Plan{Project: onlyID}, false), records: 30, row: true},
		{name: "SliceInput SkipGroups", in: slices(Plan{
			SkipGroups: map[string]map[int64]bool{path: {offs[1]: true}},
		}, false), records: 20, seeks: 1, skipped: 1, data: true, row: true},
		{name: "SliceInput margin", in: slices(Plan{Slices: []SliceLoc{
			{File: path, Start: offs[0], End: offs[1]},
			{File: path, Start: offs[2], End: fi.Size},
		}}, false), records: 20, seeks: 1, data: true, row: true},
		{name: "SliceInput adjacent slices", in: slices(Plan{Slices: []SliceLoc{
			{File: path, Start: offs[0], End: offs[1]},
			{File: path, Start: offs[1], End: offs[2]},
		}}, false), records: 20, data: true, row: true},
		{name: "SliceInput Vector margin and skip", in: slices(Plan{
			Slices: []SliceLoc{
				{File: path, Start: offs[0], End: offs[1]},
				{File: path, Start: offs[2], End: fi.Size},
			},
			SkipGroups: map[string]map[int64]bool{path: {offs[2]: true}},
		}, true), records: 10, seeks: 2, skipped: 1, batch: true},
	}
	cfg := cluster.Default()
	for _, tc := range cases {
		var shapeErr error
		stats, err := mapreduce.Run(cfg, &mapreduce.Job{
			Name:  tc.name,
			Input: tc.in,
			Map: func(rec mapreduce.Record, _ mapreduce.Emit) error {
				if (rec.Data != nil) != tc.data || (rec.Row != nil) != tc.row || (rec.Batch != nil) != tc.batch {
					shapeErr = fmt.Errorf("record shape data=%v row=%v batch=%v", rec.Data != nil, rec.Row != nil, rec.Batch != nil)
				}
				if tc.data && string(rec.Data) != storage.EncodeTextRow(rec.Row) {
					shapeErr = fmt.Errorf("Data %q is not the text rendering of %v", rec.Data, rec.Row)
				}
				if b := rec.Batch; b != nil {
					var want []int
					for ri := 0; ri < b.Rows; ri++ {
						if tc.admit == nil || tc.admit(rec.Offset, ri) {
							want = append(want, ri)
						}
					}
					if fmt.Sprint(b.Sel()) != fmt.Sprint(want) || len(want) == 0 {
						shapeErr = fmt.Errorf("batch at %d selects %v, want %v (non-empty)", rec.Offset, b.Sel(), want)
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
// the id column of every admitted row in delivery order, plus the accounting.
type delivery struct {
	ids     [][]int64
	offsets [][]int64 // Record.Offset of every record (one per batch in batch mode)
	counts  [][]int   // rows of every record
	bytes   []int64
	seeks   []int64
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
		var ids, offs []int64
		var counts []int
		for {
			rec, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			offs = append(offs, rec.Offset)
			if b := rec.Batch; b != nil {
				if b.Rows > storage.DefaultRowGroupRows {
					t.Errorf("batch of %d rows, cap is %d", b.Rows, storage.DefaultRowGroupRows)
				}
				for _, ri := range b.Sel() {
					ids = append(ids, b.Cols[0].Ints[ri])
				}
				counts = append(counts, len(b.Sel()))
				continue
			}
			counts = append(counts, 1)
			f, _ := storage.TextFieldBytes(rec.Data, 0)
			id, err := storage.ParseValue(storage.KindInt64, string(f))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id.I)
		}
		d.ids, d.offsets, d.counts = append(d.ids, ids), append(d.offsets, offs), append(d.counts, counts)
		d.bytes, d.seeks = append(d.bytes, r.BytesRead()), append(d.seeks, r.Seeks())
	}
	return d
}

// TestTextBatchDelivery: a TextFile read in batch delivery hands each split
// exactly the rows record delivery hands it, in the same order, for the same
// bytes and seeks — so a line straddling a split cut is owned once and a
// clipped or exact DGF slice edge admits the same lines — in batches of at
// most DefaultRowGroupRows lines located by their first line's offset.
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
	slices := func(vector bool) *SliceInput {
		// Exact line-boundary slices: one inside the first split, one across
		// the first split cut (clipped there), one more than a batch long,
		// and two adjacent ones separated from the rest by excluded lines.
		return &SliceInput{FS: fs, Format: storage.TextFile, Schema: readerSchema, Vector: vector, Plan: &Plan{Slices: []SliceLoc{
			{File: path, Start: starts[10], End: starts[20]},
			{File: path, Start: starts[1500], End: starts[1700]},
			{File: path, Start: starts[1800], End: starts[2950]},
			{File: path, Start: starts[2960], End: starts[2970]},
			{File: path, Start: starts[2970], End: starts[2990]},
		}}}
	}
	whole := func(vector bool) *SliceInput {
		in := wholeFileSlices(fs, path, storage.TextFile)
		in.Vector = vector
		return in
	}
	cases := []struct {
		name          string
		record, batch mapreduce.InputFormat
		rows          int
	}{
		{"FileInput",
			&mapreduce.FileInput{FS: fs, Paths: []string{path}, Schema: readerSchema},
			&mapreduce.FileInput{FS: fs, Paths: []string{path}, Schema: readerSchema, Vector: true}, 3000},
		{"SliceInput whole file", whole(false), whole(true), 3000},
		{"SliceInput slices", slices(false), slices(true), 10 + 200 + 1150 + 10 + 20},
	}
	for _, tc := range cases {
		rec, bat := deliver(t, tc.record), deliver(t, tc.batch)
		if len(rec.ids) < 2 {
			t.Fatalf("%s: %d splits, want several", tc.name, len(rec.ids))
		}
		if fmt.Sprint(rec.ids) != fmt.Sprint(bat.ids) {
			t.Errorf("%s: batch delivery hands the splits different rows than record delivery", tc.name)
		}
		if fmt.Sprint(rec.bytes) != fmt.Sprint(bat.bytes) || fmt.Sprint(rec.seeks) != fmt.Sprint(bat.seeks) {
			t.Errorf("%s: bytes/seeks %v/%v in batch delivery, %v/%v in record delivery", tc.name, bat.bytes, bat.seeks, rec.bytes, rec.seeks)
		}
		seen, multi := map[int64]bool{}, false
		for si, ids := range bat.ids {
			for _, id := range ids {
				if seen[id] {
					t.Errorf("%s: row %d delivered twice", tc.name, id)
				}
				seen[id] = true
			}
			multi = multi || len(bat.offsets[si]) > 1
			// A batch is located by its first line.
			next := 0
			for bi, off := range bat.offsets[si] {
				if line, ok := lineAt[off]; !ok || int64(line) != ids[next] {
					t.Errorf("%s: split %d batch %d at offset %d, want the start of row %d", tc.name, si, bi, off, ids[next])
				}
				next += bat.counts[si][bi]
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
	proj := deliver(t, &mapreduce.FileInput{FS: fs, Dir: "/p", Schema: readerSchema, Project: onlyID, Vector: true})
	if fmt.Sprint(proj.ids) != "[[1 2]]" {
		t.Errorf("projected read delivered %v, want [[1 2]]", proj.ids)
	}
	for name, in := range map[string]*mapreduce.FileInput{
		"unprojected malformed cell": {FS: fs, Dir: "/p", Schema: readerSchema, Vector: true},
		"short line":                 {FS: fs, Dir: "/q", Schema: readerSchema, Project: onlyID, Vector: true},
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
