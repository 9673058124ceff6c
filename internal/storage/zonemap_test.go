package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// compareZones is the zone fold RCWriter made through Compare before it kept
// its bounds in the column's kind: each column's least and greatest cell by
// Compare over the group, the first such cell on a tie.
func compareZones(group []Row) (mins, maxs []Value) {
	mins, maxs = slices.Clone(group[0]), slices.Clone(group[0])
	for _, row := range group[1:] {
		for i, v := range row {
			if Compare(v, mins[i]) < 0 {
				mins[i] = v
			}
			if Compare(v, maxs[i]) > 0 {
				maxs[i] = v
			}
		}
	}
	return mins, maxs
}

// compareStats returns stats with every group's zone map replaced by the one
// compareZones folds from its rows.
func compareStats(kinds []Kind, stats []GroupStat, groups [][]Row) []GroupStat {
	zones := newZoneMaps(kinds)
	out := make([]GroupStat, len(stats))
	for g, st := range stats {
		st.zones, st.zone = zones, zones.add()
		mins, maxs := compareZones(groups[g])
		for c, kind := range kinds {
			if lo, hi, ok := zoneOf(kind, mins[c], maxs[c]); ok {
				zones.set(st.zone, c, lo, hi)
			}
		}
		out[g] = st
	}
	return out
}

// zoneTableCell returns a cell of kind, or of any kind one time in mixed.
func zoneTableCell(rng *rand.Rand, kind Kind, mixed int) Value {
	if mixed > 0 && rng.Intn(mixed) == 0 {
		return randomCell(rng)
	}
	for {
		if v := randomCell(rng); v.Kind == kind {
			return v
		}
	}
}

// zoneWritePaths are the three ways a row reaches an RCWriter's zone map. Each
// writes rows to path in groups of groupRows, ending a group early after
// every row cut marks, and leaves the file's column statistics beside it; the
// RCWriter paths also return the writer's GroupStats.
var zoneWritePaths = []struct {
	name  string
	write func(fs *dfs.FS, path string, schema *Schema, groupRows int, rows []Row, cut []bool) ([]GroupStat, error)
}{
	{"WriteRow", func(fs *dfs.FS, path string, schema *Schema, groupRows int, rows []Row, cut []bool) ([]GroupStat, error) {
		return writeThroughRCWriter(fs, path, schema, groupRows, rows, cut, func(rw *RCWriter, row Row) error { return rw.WriteRow(row) })
	}},
	{"WriteRowText", func(fs *dfs.FS, path string, schema *Schema, groupRows int, rows []Row, cut []bool) ([]GroupStat, error) {
		return writeThroughRCWriter(fs, path, schema, groupRows, rows, cut, func(rw *RCWriter, row Row) error {
			line := AppendTextRow(nil, row)
			return rw.WriteRowText(line[:len(line)-1], row)
		})
	}},
	{"SegmentWriter", func(fs *dfs.FS, path string, schema *Schema, groupRows int, rows []Row, cut []bool) ([]GroupStat, error) {
		sw, err := NewSegmentWriter(fs, path, schema, RCFile, groupRows)
		if err != nil {
			return nil, err
		}
		for i, row := range rows {
			line := AppendTextRow(nil, row)
			if err := sw.WriteRecord(SegmentRecord{Line: line[:len(line)-1], Row: row}); err != nil {
				return nil, err
			}
			if cut[i] {
				if err := sw.Cut(); err != nil {
					return nil, err
				}
			}
		}
		return nil, sw.Close()
	}},
}

func writeThroughRCWriter(fs *dfs.FS, path string, schema *Schema, groupRows int, rows []Row, cut []bool, write func(*RCWriter, Row) error) ([]GroupStat, error) {
	w, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	rw := NewRCWriter(w, schema, groupRows)
	for i, row := range rows {
		if err := write(rw, row); err != nil {
			return nil, err
		}
		if cut[i] {
			if err := rw.Flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := rw.Close(); err != nil {
		return nil, err
	}
	return rw.GroupStats(), WriteColStats(fs, path, schema, rw.GroupStats())
}

// TestZoneMapsMatchCompare holds the RCWriter's typed zone maps to the fold
// through Compare, on every write path: random tables whose cells are mostly
// of their column's kind, some of another kind, drawn with NaNs, ±Inf, −0,
// bigints that are one double above 2^53, timestamps outside years
// 0000–9999 and empty strings. Every group's zones, and the column
// statistics' bytes, must be what the Compare fold gives.
func TestZoneMapsMatchCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		kinds := make([]Kind, 1+rng.Intn(5))
		cols := make([]Column, len(kinds))
		for c := range kinds {
			kinds[c] = zoneKinds[rng.Intn(len(zoneKinds))]
			cols[c] = Column{Name: fmt.Sprintf("c%d", c), Kind: kinds[c]}
		}
		schema := NewSchema(cols...)
		mixed := []int{0, 50, 5}[trial%3]
		rows := make([]Row, 1+rng.Intn(300))
		cut := make([]bool, len(rows))
		for i := range rows {
			rows[i] = make(Row, len(kinds))
			for c, kind := range kinds {
				rows[i][c] = zoneTableCell(rng, kind, mixed)
			}
			cut[i] = rng.Intn(16) == 0
		}
		groupRows := 1 + rng.Intn(64)
		var groups [][]Row
		var group []Row
		for i, row := range rows {
			group = append(group, row)
			if len(group) == groupRows || cut[i] || i == len(rows)-1 {
				groups, group = append(groups, group), nil
			}
		}
		for _, p := range zoneWritePaths {
			fs := dfs.New(1 << 12)
			path := "/t/part-00000"
			written, err := p.write(fs, path, schema, groupRows, rows, cut)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, p.name, err)
			}
			stats, err := ReadColStats(fs, path)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, p.name, err)
			}
			if len(stats) != len(groups) {
				t.Fatalf("trial %d, %s: %d groups, want %d", trial, p.name, len(stats), len(groups))
			}
			want := compareStats(kinds, stats, groups)
			wantBytes, err := appendColStats(nil, kinds, want)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := fs.ReadFile(ColStatsPath(path))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("trial %d, %s: column statistics differ from the Compare fold's", trial, p.name)
			}
			for _, got := range [][]GroupStat{written, stats} {
				for g := range got {
					for c := range kinds {
						lo, hi, ok := got[g].Zone(c)
						wlo, whi, wok := want[g].Zone(c)
						if ok != wok || ok && (!sameValue(lo, wlo) || !sameValue(hi, whi)) {
							t.Fatalf("trial %d, %s, group %d, %s column %d: zone [%v, %v] (ok %v), the Compare fold's [%v, %v] (ok %v)\ncells %v",
								trial, p.name, g, kinds[c], c, lo, hi, ok, wlo, whi, wok, groupColumn(groups[g], c))
						}
					}
				}
			}
		}
	}
}

func groupColumn(group []Row, c int) []Value {
	out := make([]Value, len(group))
	for i, row := range group {
		out[i] = row[c]
	}
	return out
}
