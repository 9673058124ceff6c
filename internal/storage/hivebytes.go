package storage

import (
	"fmt"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// HiveRCFile returns the RCFile Hive would hold for the one at path, and
// its column statistics: every packed column back in the text body Hive's
// RCFile stores (plain or run-length, as the writer chose without packing),
// every other byte as it is. It is the reference the meter charges by: the
// data's length is the file's RowGroups.Size, and each group's length its
// ChargedSize. A group without a packed column is copied as it is; one with
// is written again from its rows' stored text, with packing off.
func HiveRCFile(fs *dfs.FS, path string) (data, colstats []byte, err error) {
	raw, err := fs.ReadFile(ColStatsPath(path))
	if err != nil {
		return nil, nil, err
	}
	kinds, _, err := decodeColStats(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: %w for %s", err, path)
	}
	cols := make([]Column, len(kinds))
	for c, k := range kinds {
		cols[c] = Column{Name: fmt.Sprintf("c%d", c), Kind: k}
	}
	schema := NewSchema(cols...)
	groups, err := LoadRowGroups(fs, path)
	if err != nil {
		return nil, nil, err
	}
	r, err := fs.Open(path)
	if err != nil {
		return nil, nil, err
	}
	batch := NewColumnBatch(schema)
	stats := make([]GroupStat, len(groups.Stats))
	for g, st := range groups.Stats {
		if st.Charged == nil {
			group := make([]byte, st.EncodedSize())
			if _, err := r.ReadAt(group, groups.disk[g]); err != nil {
				return nil, nil, err
			}
			data, stats[g] = append(data, group...), st
			continue
		}
		if _, err := groups.readColumns(r, groups.Offsets[g], schema, nil, batch); err != nil {
			return nil, nil, err
		}
		scratch := dfs.New(0)
		fw, err := scratch.Create("/group")
		if err != nil {
			return nil, nil, err
		}
		w := NewRCWriter(fw, schema, maxGroupRows)
		w.noPack = true
		w.startGroup()
		for ri := 0; ri < batch.Rows; ri++ {
			if err := w.WriteRowText(batch.Line(ri), batch.MaterialiseRow(ri)); err != nil {
				return nil, nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, nil, err
		}
		group, err := scratch.ReadFile("/group")
		if err != nil {
			return nil, nil, err
		}
		// The zone map is the group's own: the writer's comes from the
		// decoded cells, not the ones first written.
		hive := w.GroupStats()[0]
		hive.zones, hive.zone = st.zones, st.zone
		data, stats[g] = append(data, group...), hive
	}
	if colstats, err = appendColStats(nil, kinds, stats); err != nil {
		return nil, nil, err
	}
	return data, colstats, nil
}
