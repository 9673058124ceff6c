package storage

import (
	"fmt"
	"sort"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// RowGroups is the parsed form of one RCFile's column statistics side file:
// each row group's address, its offset on disk and its statistics, in group
// order.
//
// An RCFile is addressed in Hive's bytes: a group's address is where it
// would start in the RCFile Hive writes for the same rows, the running sum
// of the groups' ChargedSize, and Size is that file's length. Everything
// above this package — index offsets, slices, splits, the volumes jobs are
// charged — counts in those bytes, so packing a column changes what the
// file holds on disk and nothing the model sees. Only the readers here turn
// an address into the group's place on disk.
type RowGroups struct {
	Offsets []int64
	Stats   []GroupStat
	Size    int64
	disk    []int64
}

// LoadRowGroups returns the row groups of the RCFile at dataPath, from its
// column statistics side file. Groups are stored back to back from offset
// 0, so a group starts on disk where the EncodedSize of the groups before
// it ends, and the sizes must add up to the data file's size: a side file
// that describes a group too few or too many fails the load, naming the
// data file. Planners consult row groups on every query while the files
// change only when written, so the parsed form lives in the filesystem's
// CachedParse cache and decodes once; it is shared across callers and must
// not be mutated.
func LoadRowGroups(fs *dfs.FS, dataPath string) (*RowGroups, error) {
	v, err := fs.CachedParse(ColStatsPath(dataPath), func() (any, error) {
		stats, err := ReadColStats(fs, dataPath)
		if err != nil {
			return nil, err
		}
		fi, err := fs.Stat(dataPath)
		if err != nil {
			return nil, err
		}
		g := &RowGroups{Offsets: make([]int64, len(stats)), Stats: stats, disk: make([]int64, len(stats))}
		var end int64
		for i, st := range stats {
			g.Offsets[i], g.disk[i] = g.Size, end
			g.Size += st.ChargedSize()
			end += st.EncodedSize()
		}
		if end != fi.Size {
			return nil, fmt.Errorf("storage: column stats for %s describe %d bytes of row groups, the file holds %d", dataPath, end, fi.Size)
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*RowGroups), nil
}

// find returns the index of the group at address off.
func (g *RowGroups) find(off int64) (int, bool) {
	i := sort.Search(len(g.Offsets), func(i int) bool { return g.Offsets[i] >= off })
	return i, i < len(g.Offsets) && g.Offsets[i] == off
}

// ReadGroups returns the address and the statistics of every row group of
// the RCFile at dataPath, in group order (see LoadRowGroups).
func ReadGroups(fs *dfs.FS, dataPath string) (offsets []int64, stats []GroupStat, err error) {
	g, err := LoadRowGroups(fs, dataPath)
	if err != nil {
		return nil, nil, err
	}
	return g.Offsets, g.Stats, nil
}

// ReadGroupIndex returns the addresses of the RCFile's row groups: the
// first result of ReadGroups, shared in the same way.
func ReadGroupIndex(fs *dfs.FS, dataPath string) ([]int64, error) {
	offsets, _, err := ReadGroups(fs, dataPath)
	return offsets, err
}

// Splits cuts the data file at path into Hadoop's block-sized input splits:
// over the file's bytes for TextFile, over its bytes in Hive's RCFile for
// RCFile, whose groups are addressed in them (see RowGroups).
func Splits(fs *dfs.FS, path string, format Format) ([]dfs.Split, error) {
	if format != RCFile {
		return fs.Splits(path)
	}
	fi, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	g, err := LoadRowGroups(fs, fi.Path)
	if err != nil {
		return nil, err
	}
	var out []dfs.Split
	bs := fs.BlockSize()
	for off := int64(0); off < g.Size; off += bs {
		out = append(out, dfs.Split{Path: fi.Path, Start: off, Length: min(bs, g.Size-off)})
	}
	return out, nil
}

// DataSize is the size the model charges for the data file at path: its
// bytes for TextFile, its bytes in Hive's RCFile for RCFile.
func DataSize(fs *dfs.FS, path string, format Format) (int64, error) {
	if format != RCFile {
		fi, err := fs.Stat(path)
		return fi.Size, err
	}
	g, err := LoadRowGroups(fs, path)
	if err != nil {
		return 0, err
	}
	return g.Size, nil
}
