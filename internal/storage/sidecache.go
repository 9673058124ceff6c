package storage

import (
	"fmt"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// rowGroups is the parsed form of one RCFile's column statistics side file:
// each row group's start offset and statistics, in group order.
type rowGroups struct {
	offsets []int64
	stats   []GroupStat
}

// ReadGroups returns the start offset and the statistics of every row group
// of the RCFile at dataPath, in group order, from its column statistics side
// file. Groups are stored back to back from offset 0, so a group starts where
// the EncodedSize of the groups before it ends, and the sizes must add up to
// the data file's size: a side file that describes a group too few or too
// many fails the read, naming the data file. Planners consult row groups on
// every query while the files change only when written, so the parsed form
// lives in the filesystem's CachedParse cache and decodes once; the returned
// slices are shared across callers and must not be mutated.
func ReadGroups(fs *dfs.FS, dataPath string) (offsets []int64, stats []GroupStat, err error) {
	v, err := fs.CachedParse(ColStatsPath(dataPath), func() (any, error) {
		stats, err := ReadColStats(fs, dataPath)
		if err != nil {
			return nil, err
		}
		fi, err := fs.Stat(dataPath)
		if err != nil {
			return nil, err
		}
		offsets := make([]int64, len(stats))
		var end int64
		for g, st := range stats {
			offsets[g] = end
			end += st.EncodedSize()
		}
		if end != fi.Size {
			return nil, fmt.Errorf("storage: column stats for %s describe %d bytes of row groups, the file holds %d", dataPath, end, fi.Size)
		}
		return rowGroups{offsets: offsets, stats: stats}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	g := v.(rowGroups)
	return g.offsets, g.stats, nil
}

// ReadGroupIndex returns the start offsets of the RCFile's row groups: the
// first result of ReadGroups, shared in the same way.
func ReadGroupIndex(fs *dfs.FS, dataPath string) ([]int64, error) {
	offsets, _, err := ReadGroups(fs, dataPath)
	return offsets, err
}
