package storage

import "github.com/smartgrid-oss/dgfindex/internal/dfs"

// Cached variants of the side-file readers. Planners consult row-group
// indexes and column statistics on every query; the files themselves change
// only when a segment is written or appended, so their parsed forms live in
// the filesystem's CachedParse cache and decode once. The returned slices are
// shared across callers and must not be mutated.

// ReadGroupIndexCached is ReadGroupIndex through the parse cache.
func ReadGroupIndexCached(fs *dfs.FS, dataPath string) ([]int64, error) {
	v, err := fs.CachedParse(GroupIndexPath(dataPath), func() (any, error) {
		return ReadGroupIndex(fs, dataPath)
	})
	if err != nil {
		return nil, err
	}
	return v.([]int64), nil
}

// ReadColStatsCached is ReadColStats through the parse cache.
func ReadColStatsCached(fs *dfs.FS, dataPath string) ([]GroupStat, error) {
	v, err := fs.CachedParse(ColStatsPath(dataPath), func() (any, error) {
		return ReadColStats(fs, dataPath)
	})
	if err != nil {
		return nil, err
	}
	return v.([]GroupStat), nil
}
