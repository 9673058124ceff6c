package dgf

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// stringKeyMapper is the build mapper as it was before it emitted by key id,
// kept as the oracle: it finds each row's GFUKey in a map keyed by the raw
// bytes of the cell's coordinates and emits the pair under the key string,
// which the shuffle hashes again.
type stringKeyMapper struct {
	ix    *Index
	cells []int64
	cell  []int64
	raw   []byte
	keys  map[string]string
}

func (m *stringKeyMapper) Map(rec mapreduce.Record, emit mapreduce.Emit) error {
	b := rec.Batch
	sel := b.Sel()
	m.cells = m.cells[:0]
	for d, col := range m.ix.dimCols {
		m.cells = m.ix.Spec.Policy.Dims[d].AppendCells(m.cells, &b.Cols[col], sel)
	}
	for k, ri := range sel {
		for d := range m.cell {
			m.cell[d] = m.cells[d*len(sel)+k]
		}
		emit(m.key(), b.Line(ri))
	}
	return nil
}

func (m *stringKeyMapper) key() string {
	m.raw = m.raw[:0]
	for _, c := range m.cell {
		m.raw = binary.LittleEndian.AppendUint64(m.raw, uint64(c))
	}
	key, ok := m.keys[string(m.raw)]
	if !ok {
		key = m.ix.Spec.Policy.Key(m.cell)
		m.keys[string(m.raw)] = key
	}
	return key
}

func (m *stringKeyMapper) Close(mapreduce.Emit) error { return nil }

// keyTestSchema is the table the build-key cases index: three bigints, a
// timestamp, a double dimension and a double measure.
func keyTestSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "a", Kind: storage.KindInt64},
		storage.Column{Name: "b", Kind: storage.KindInt64},
		storage.Column{Name: "c", Kind: storage.KindInt64},
		storage.Column{Name: "t", Kind: storage.KindTime},
		storage.Column{Name: "f", Kind: storage.KindFloat64},
		storage.Column{Name: "v", Kind: storage.KindFloat64},
	)
}

// keyTestInputs writes the base table (four files of 1,000 rows and one of
// 4,000, whose rows can each fall in a cell of their own) and a staged file
// of 1,000 rows for one append; row draws the cells of the ith row of a file.
func keyTestInputs(t *testing.T, format storage.Format, row func(rng *rand.Rand, i int) storage.Row) *dfs.FS {
	t.Helper()
	fs := dfs.New(1 << 20)
	rng := rand.New(rand.NewSource(71))
	schema := keyTestSchema()
	sizes := []int{1000, 1000, 1000, 1000, 4000}
	for f, n := range sizes {
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = row(rng, i)
		}
		path := fmt.Sprintf("/tbl/part-%05d", f)
		var err error
		if format == storage.RCFile {
			_, err = storage.WriteRCRows(fs, path, schema, rows, 0)
		} else {
			err = storage.WriteTextRows(fs, path, rows)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	staged := make([]storage.Row, 1000)
	for i := range staged {
		staged[i] = row(rng, i)
	}
	if err := storage.WriteTextRows(fs, "/staging/more", staged); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestBuildKeysMatchOracle builds and appends to the same index with the
// build mapper and with the string-keyed oracle, over grids whose
// coordinates are negative, near ±2^62, one-dimensional and
// five-dimensional, with a map task that meets thousands of distinct cells:
// the data files and sidecars, every store pair and the BuildStats of both
// runs must be identical.
func TestBuildKeysMatchOracle(t *testing.T) {
	const day0 = 1354320000 // 2012-12-01
	cases := []struct {
		name  string
		cols  []string
		props map[string]string
		row   func(rng *rand.Rand, i int) storage.Row
	}{
		{"negative coordinates, one dimension", []string{"a"}, map[string]string{"a": "-1000_7"},
			func(rng *rand.Rand, i int) storage.Row {
				return keyTestRow(rng.Int63n(100000)-60000, 0, 0, day0, 0, rng)
			}},
		{"coordinates near ±2^62", []string{"a", "b"}, map[string]string{"a": "0_1", "b": "-3_1"},
			func(rng *rand.Rand, i int) storage.Row {
				a := int64(1<<62) - rng.Int63n(3000)
				if rng.Intn(2) == 0 {
					a = -a
				}
				return keyTestRow(a, rng.Int63n(6)-3, 0, day0, 0, rng)
			}},
		{"five dimensions", []string{"a", "b", "c", "t", "f"},
			map[string]string{"a": "0_3", "b": "-100_1", "c": "-5_2", "t": "2012-12-01_1h", "f": "0_0.5"},
			func(rng *rand.Rand, i int) storage.Row {
				return keyTestRow(rng.Int63n(40), rng.Int63n(5)-103, int64(i%7)-9, day0+rng.Int63n(48*3600), float64(rng.Intn(8))/4-1, rng)
			}},
		{"thousands of distinct cells in one map task", []string{"a", "t"}, map[string]string{"a": "0_1", "t": "2012-12-01_1d"},
			func(rng *rand.Rand, i int) storage.Row {
				return keyTestRow(int64(i), 0, 0, day0+int64(i%3)*86400, 0, rng)
			}},
	}
	for _, c := range cases {
		for _, format := range []storage.Format{storage.TextFile, storage.RCFile} {
			t.Run(fmt.Sprintf("%s/%v", c.name, format), func(t *testing.T) {
				props := map[string]string{"precompute": "sum(v);count(*)"}
				for k, v := range c.props {
					props[k] = v
				}
				spec, err := ParseIdxProperties("idx_keys", c.cols, keyTestSchema(), props)
				if err != nil {
					t.Fatal(err)
				}
				build := func() (files, kv []string, stats []string) {
					fs := keyTestInputs(t, format, c.row)
					ix, st, err := Build(testCfg(), fs, kvstore.New(), spec, keyTestSchema(), Source{Dir: "/tbl", Format: format, GroupRows: 64}, "/idx")
					if err != nil {
						t.Fatal(err)
					}
					files, kv, stats = append(files, hashTree(t, fs, "/idx")), append(kv, hashKV(ix.KV.ScanPrefix(""))), append(stats, renderStats(st))
					if st, err = ix.Append(testCfg(), []string{"/staging/more"}); err != nil {
						t.Fatal(err)
					}
					files, kv, stats = append(files, hashTree(t, fs, "/idx")), append(kv, hashKV(ix.KV.ScanPrefix(""))), append(stats, renderStats(st))
					return files, kv, stats
				}
				files, kv, stats := build()
				keyed := newBuildMapper
				newBuildMapper = func(ix *Index) mapreduce.TaskMapper {
					return &stringKeyMapper{ix: ix, cell: make([]int64, len(ix.dimCols)), keys: map[string]string{}}
				}
				t.Cleanup(func() { newBuildMapper = keyed })
				oFiles, oKV, oStats := build()
				for i, stage := range []string{"build", "append"} {
					if files[i] != oFiles[i] {
						t.Errorf("%s: data files and sidecars hash to %s, the oracle's to %s", stage, files[i], oFiles[i])
					}
					if kv[i] != oKV[i] {
						t.Errorf("%s: store pairs hash to %s, the oracle's to %s", stage, kv[i], oKV[i])
					}
					if stats[i] != oStats[i] {
						t.Errorf("%s: BuildStats\n%s\nthe oracle's\n%s", stage, stats[i], oStats[i])
					}
				}
			})
		}
	}
}

func keyTestRow(a, b, c, ts int64, f float64, rng *rand.Rand) storage.Row {
	return storage.Row{storage.Int64(a), storage.Int64(b), storage.Int64(c), storage.TimeUnix(ts),
		storage.Float64(f), storage.Float64(float64(rng.Intn(100000)) / 100)}
}
