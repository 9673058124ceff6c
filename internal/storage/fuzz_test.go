package storage

import (
	"testing"

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
			g, _, err := ReadGroupProjected(r, pos, nil)
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
			if pg, _, err := ReadGroupProjected(r, g.Offset, project); err == nil {
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
