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
// and batches do not; RowFilter forces row delivery even with Vector set.
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
		{name: "FileInput Vector RowFilter", in: file(mapreduce.FileInput{
			Vector:    true,
			RowFilter: func(_ string, _ int64, row int) bool { return row%2 == 0 },
		}), records: 15, data: true, row: true},
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
