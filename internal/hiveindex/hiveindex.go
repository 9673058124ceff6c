// Package hiveindex re-implements the three index types that ship with Hive
// and that the paper evaluates DGFIndex against (Section 2.2):
//
//   - Compact Index (HIVE-417): an index *table* holding one row per
//     combination of indexed-dimension values per data file, with the array
//     of record offsets (BLOCK_OFFSET_INSIDE_FILE). Query processing first
//     scans the whole index table, writes the matching filename→offsets
//     pairs to a temporary file, and getSplits keeps only splits containing
//     at least one matched offset. Chosen splits are then read in full — a
//     Compact Index cannot skip records inside a split, which is the paper's
//     central criticism.
//
//   - Aggregate Index (HIVE-1694): the Compact Index plus pre-computed
//     per-row-group aggregations (count only, as in Hive); GROUP BY queries
//     whose dimensions and aggregates are covered rewrite to a scan of the
//     much smaller index table ("index as data").
//
//   - Bitmap Index (HIVE-1803): the Compact Index with, per (dims, file,
//     block) entry, a bitmap of matching row positions inside the block.
//     Effective only for RCFile tables, where a block (row group) holds many
//     rows.
//
// All three store the index itself as a Hive table (TextFile or RCFile) in
// the model filesystem, so index size (Tables 2 and 5) and the cost of the
// pre-query index scan (the "read index" bars of Figures 8-18) emerge
// naturally.
package hiveindex

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Kind selects which of Hive's indexes to build.
type Kind uint8

// The three Hive index flavours.
const (
	Compact Kind = iota
	Aggregate
	Bitmap
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Compact:
		return "compact"
	case Aggregate:
		return "aggregate"
	case Bitmap:
		return "bitmap"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Format selects the file format of a table (base or index). The canonical
// enum lives in the storage package (the segment abstraction dispatches on
// it); the alias keeps this package's historical names working.
type Format = storage.Format

// Supported table formats.
const (
	TextFile = storage.TextFile
	RCFile   = storage.RCFile
)

// Options configures an index build.
type Options struct {
	Name string
	Kind Kind
	// BaseDir and BaseFormat locate the indexed table.
	BaseDir    string
	BaseFormat Format
	Schema     *storage.Schema
	// Cols are the indexed dimensions, in order.
	Cols []string
	// IndexDir receives the index table files.
	IndexDir string
	// IndexFormat is the storage format of the index table itself (the
	// paper uses RCFile-based Compact indexes for the meter data).
	IndexFormat Format
	// RowGroupRows sizes RCFile row groups of the index table.
	RowGroupRows int
	// DisableEncoding writes the index table with plain-text row groups (no
	// dictionary/RLE column encoding). The paper-scale experiments set it so
	// Table 2's index-size comparison measures the same unencoded layout the
	// paper measured.
	DisableEncoding bool
}

// Index is a built Hive-style index.
type Index struct {
	Options
	dimCols []int
	// indexSchema is the schema of the index table.
	indexSchema *storage.Schema
}

// indexSchema derives the index-table schema per Table 1 of the paper.
func buildIndexSchema(o Options) (*storage.Schema, []int, error) {
	cols := make([]storage.Column, 0, len(o.Cols)+4)
	dimCols := make([]int, len(o.Cols))
	for i, c := range o.Cols {
		ci := o.Schema.ColIndex(c)
		if ci < 0 {
			return nil, nil, fmt.Errorf("hiveindex: column %q not in table", c)
		}
		dimCols[i] = ci
		cols = append(cols, o.Schema.Col(ci))
	}
	cols = append(cols,
		storage.Column{Name: "_bucketname", Kind: storage.KindString},
		storage.Column{Name: "_offsets", Kind: storage.KindString},
	)
	switch o.Kind {
	case Aggregate:
		cols = append(cols, storage.Column{Name: "_count", Kind: storage.KindInt64})
	case Bitmap:
		cols = append(cols, storage.Column{Name: "_bitmaps", Kind: storage.KindString})
	}
	return storage.NewSchema(cols...), dimCols, nil
}

// Build populates the index table with one MapReduce job, the equivalent of
// the INSERT OVERWRITE ... GROUP BY statement of Listing 1.
func Build(cfg *cluster.Config, fs *dfs.FS, o Options) (*Index, *mapreduce.Stats, error) {
	schema, dimCols, err := buildIndexSchema(o)
	if err != nil {
		return nil, nil, err
	}
	ix := &Index{Options: o, dimCols: dimCols, indexSchema: schema}
	if err := fs.MkdirAll(o.IndexDir); err != nil {
		return nil, nil, err
	}

	numReducers := cfg.ReduceSlots()
	if numReducers > 32 {
		numReducers = 32
	}
	// The keys are cut from each row's text line, so a TextFile base parses
	// no cells; an RCFile base decodes whole row groups, whose stored cells
	// make the line.
	var project []bool
	if o.BaseFormat != RCFile {
		project = make([]bool, o.Schema.Len())
	}
	job := &mapreduce.Job{
		Name:  "hiveindex-build-" + o.Name,
		Input: &mapreduce.FileInput{FS: fs, Dir: o.BaseDir, Format: o.BaseFormat, Schema: o.Schema, Project: project},
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			b := rec.Batch
			for _, ri := range b.Sel() {
				off := b.RowOffset(ri)
				key, err := ix.groupKey(b.Line(ri), rec.Path, off)
				if err != nil {
					return err
				}
				// Value: the row's offset (plus, for bitmaps, its position
				// in its RCFile row group; a text line is its own block).
				val := strconv.FormatInt(off, 10)
				if o.Kind == Bitmap {
					pos := 0
					if o.BaseFormat == RCFile {
						pos = ri
					}
					val += ":" + strconv.Itoa(pos)
				}
				emit(key, []byte(val))
			}
			return nil
		},
		NumReducers: numReducers,
		ReduceTask: func(task int, groups []mapreduce.Group, emit mapreduce.Emit) error {
			return ix.writeIndexFile(fs, task, groups)
		},
	}
	if o.Kind != Aggregate {
		// An Aggregate Index counts rows, and on RCFile every row of a row
		// group records the same offset: it keeps its duplicates.
		job.Combine = func(key string, values [][]byte) [][]byte { return dedupe(values) }
	}
	stats, err := mapreduce.RunContext(context.Background(), cfg, job)
	if err != nil {
		return nil, nil, err
	}
	return ix, stats, nil
}

// groupKey builds the shuffle key of the row with the given text line: dims +
// file (+ block offset for bitmaps, which index per block rather than per
// file).
func (ix *Index) groupKey(line []byte, path string, offset int64) (string, error) {
	var b strings.Builder
	for _, ci := range ix.dimCols {
		f, ok := storage.TextFieldBytes(line, ci)
		if !ok {
			return "", fmt.Errorf("hiveindex: record lacks field %d: %q", ci, line)
		}
		b.Write(f)
		b.WriteByte('\x01')
	}
	b.WriteString(path)
	if ix.Kind == Bitmap {
		b.WriteByte('\x01')
		b.WriteString(strconv.FormatInt(offset, 10))
	}
	return b.String(), nil
}

func dedupe(values [][]byte) [][]byte {
	seen := make(map[string]bool, len(values))
	out := values[:0]
	for _, v := range values {
		s := string(v)
		if !seen[s] {
			seen[s] = true
			out = append(out, v)
		}
	}
	return out
}

// writeIndexFile writes one reduce task's groups as index-table rows.
func (ix *Index) writeIndexFile(fs *dfs.FS, task int, groups []mapreduce.Group) error {
	if len(groups) == 0 {
		return nil
	}
	name := fmt.Sprintf("%s/part-r-%05d", ix.IndexDir, task)
	w, err := fs.Create(name)
	if err != nil {
		return err
	}
	var tw *storage.TextWriter
	var rw *storage.RCWriter
	if ix.IndexFormat == RCFile {
		rw = storage.NewRCWriter(w, ix.indexSchema, ix.RowGroupRows)
		if ix.DisableEncoding {
			rw.DisableEncoding()
		}
	} else {
		tw = storage.NewTextWriter(w)
	}
	for _, g := range groups {
		row, err := ix.indexRow(g)
		if err != nil {
			return err
		}
		if rw != nil {
			err = rw.WriteRow(row)
		} else {
			err = tw.WriteRow(row)
		}
		if err != nil {
			return err
		}
	}
	if rw != nil {
		if err := rw.Close(); err != nil {
			return err
		}
		return storage.WriteColStats(fs, name, ix.indexSchema, rw.GroupStats())
	}
	return tw.Close()
}

// indexRow converts one shuffled group into an index-table row.
func (ix *Index) indexRow(g mapreduce.Group) (storage.Row, error) {
	parts := strings.Split(g.Key, "\x01")
	wantParts := len(ix.Cols) + 1
	if ix.Kind == Bitmap {
		wantParts++
	}
	if len(parts) != wantParts {
		return nil, fmt.Errorf("hiveindex: bad group key %q", g.Key)
	}
	row := make(storage.Row, 0, ix.indexSchema.Len())
	for i := range ix.Cols {
		v, err := storage.ParseValue(ix.Schema.Col(ix.dimCols[i]).Kind, parts[i])
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	row = append(row, storage.Str(parts[len(ix.Cols)])) // _bucketname

	switch ix.Kind {
	case Bitmap:
		// One entry per block: _offsets is the block offset, _bitmaps the
		// row positions inside the block.
		row = append(row, storage.Str(parts[len(ix.Cols)+1]))
		bm := newBitmap()
		for _, v := range g.Values {
			s := string(v)
			if j := strings.IndexByte(s, ':'); j >= 0 {
				if r, err := strconv.Atoi(s[j+1:]); err == nil {
					bm.set(r)
				}
			}
		}
		row = append(row, storage.Str(bm.encode()))
	default:
		offs := make([]int64, 0, len(g.Values))
		for _, v := range g.Values {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return nil, err
			}
			offs = append(offs, n)
		}
		slices.Sort(offs)
		row = append(row, storage.Str(encodeOffsets(slices.Compact(offs))))
		if ix.Kind == Aggregate {
			row = append(row, storage.Int64(int64(len(g.Values)))) // one value per row
		}
	}
	return row, nil
}

func encodeOffsets(offs []int64) string {
	parts := make([]string, len(offs))
	for i, o := range offs {
		parts[i] = strconv.FormatInt(o, 10)
	}
	return strings.Join(parts, ";")
}

func decodeOffsets(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]int64, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("hiveindex: bad offsets %q", s)
		}
		out[i] = n
	}
	return out, nil
}

// SizeBytes returns the size of the index table (Tables 2 and 5), as the
// model charges it (storage.DataSize).
func (ix *Index) SizeBytes(fs *dfs.FS) int64 {
	files, err := fs.ListFiles(ix.IndexDir)
	if err != nil {
		return 0
	}
	var n int64
	for _, f := range files {
		size, err := storage.DataSize(fs, f.Path, ix.IndexFormat)
		if err != nil {
			return 0
		}
		n += size
	}
	return n
}

// bitmap is a dense row-position bitmap, Hive's array<bigint> _bitmaps.
type bitmapT struct{ words []uint64 }

func newBitmap() *bitmapT { return &bitmapT{} }

func (b *bitmapT) set(i int) {
	w := i / 64
	for len(b.words) <= w {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(i) % 64)
}

func (b *bitmapT) get(i int) bool {
	w := i / 64
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(i)%64)) != 0
}

func (b *bitmapT) encode() string {
	parts := make([]string, len(b.words))
	for i, w := range b.words {
		parts[i] = strconv.FormatUint(w, 16)
	}
	return strings.Join(parts, ";")
}

func decodeBitmap(s string) (*bitmapT, error) {
	b := newBitmap()
	if s == "" {
		return b, nil
	}
	for _, p := range strings.Split(s, ";") {
		w, err := strconv.ParseUint(p, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("hiveindex: bad bitmap %q", s)
		}
		b.words = append(b.words, w)
	}
	return b, nil
}

// union merges other into b.
func (b *bitmapT) union(other *bitmapT) {
	for len(b.words) < len(other.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}
