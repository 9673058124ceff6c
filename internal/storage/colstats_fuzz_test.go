package storage_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// dgfColStats builds a DGFIndex over a small RCFile meter table, with a
// vendor string column and readings that are no decimal, and returns the
// "_colstats" side files the build wrote: the shape planners read, one
// small group per grid cell.
func dgfColStats(f *testing.F) [][]byte {
	f.Helper()
	schema := storage.NewSchema(
		storage.Column{Name: "userId", Kind: storage.KindInt64},
		storage.Column{Name: "regionId", Kind: storage.KindInt64},
		storage.Column{Name: "ts", Kind: storage.KindTime},
		storage.Column{Name: "powerConsumed", Kind: storage.KindFloat64},
		storage.Column{Name: "vendor", Kind: storage.KindString},
	)
	vendors := []string{"acme", "borealis", "cobalt", "gridline", "helios"}
	var rows []storage.Row
	for u := int64(1); u <= 60; u++ {
		for r := int64(0); r < 8; r++ {
			power := float64((u*37+r*11)%1000) / 100
			switch (u + r) % 13 {
			case 0:
				power = 1e21
			case 1:
				power = math.Copysign(0, -1)
			case 2:
				power = 1.0 / 3
			}
			rows = append(rows, storage.Row{
				storage.Int64(u), storage.Int64(u%5 + 1), storage.TimeUnix(1354320000 + r*6*3600 + u%7),
				storage.Float64(power), storage.Str(vendors[(u+r/3)%int64(len(vendors))]),
			})
		}
	}
	fs := dfs.New(1 << 16)
	if _, err := storage.WriteRCRows(fs, "/tbl/data", schema, rows, 64); err != nil {
		f.Fatal(err)
	}
	spec, err := dgf.ParseIdxProperties("idx", []string{"regionId", "userId", "ts"}, schema, map[string]string{
		"regionId": "1_1", "userId": "1_20", "ts": "2012-12-01_1d", "precompute": "sum(powerConsumed);count(*)",
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := dgf.Build(cluster.Default(), fs, kvstore.New(), spec, schema, dgf.Source{Dir: "/tbl", Format: storage.RCFile}, "/idx"); err != nil {
		f.Fatal(err)
	}
	entries, err := fs.List("/idx/_colstats")
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, e := range entries {
		data, err := fs.ReadFile(e.Path)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	if len(out) == 0 {
		f.Fatal("the build wrote no column statistics")
	}
	return out
}

// FuzzColStatsDecode hands arbitrary bytes to the column statistics
// decoder every RCFile plan and EXPLAIN reads through. On any input it
// either returns an error or groups that WriteColStats writes back to the
// same bytes — the stream has one spelling — and it never panics or sizes
// an allocation by a count the input cannot back.
func FuzzColStatsDecode(f *testing.F) {
	for _, data := range dgfColStats(f) {
		f.Add(data)
	}
	f.Add([]byte{0x00, 0x04, 0x00})
	f.Add([]byte{0x00, 0x03, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		kinds, groups, err := storage.DecodeColStats(data)
		if err != nil {
			return
		}
		cols := make([]storage.Column, len(kinds))
		for c, k := range kinds {
			cols[c] = storage.Column{Name: fmt.Sprint("c", c), Kind: k}
		}
		fs := dfs.New(1 << 16)
		if err := storage.WriteColStats(fs, "/t/data", storage.NewSchema(cols...), groups); err != nil {
			t.Fatalf("decoded groups do not write: %v", err)
		}
		again, err := fs.ReadFile(storage.ColStatsPath("/t/data"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoded %d groups write back as %x, read from %x", len(groups), again, data)
		}
		for _, g := range groups {
			g.ProjectedSize(nil)
			for c := range kinds {
				if lo, hi, ok := g.Zone(c); ok && (lo.Kind != kinds[c] || hi.Kind != kinds[c]) {
					t.Fatalf("column %d of kind %s has a zone of %s and %s", c, kinds[c], lo.Kind, hi.Kind)
				}
				g.Enc(c)
			}
		}
	})
}
