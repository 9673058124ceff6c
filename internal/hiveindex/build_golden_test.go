package hiveindex

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Hive's own indexes are pinned the way TestBuildGolden pins DGFIndex: for
// every kind over a TextFile and an RCFile base table, and for both index-table
// formats, five things must hash to what commit 5d36bd9 produced — every
// index-table file, the build's mapreduce.Stats, the Filter result, the
// AggregateCounts answer and the base-table rows BaseInput delivers (with each
// row's offset and position in its row group). The constants were recorded
// there, before the record-at-a-time reader was retired; a rewrite of the
// reader or of the index jobs has to reproduce them byte for byte, under any
// split completion order (run with -race -count=20).

const goldenDay0 = 1354320000 // 2012-12-01 00:00:00 UTC

func goldenSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "userId", Kind: storage.KindInt64},
		storage.Column{Name: "regionId", Kind: storage.KindInt64},
		storage.Column{Name: "ts", Kind: storage.KindTime},
		storage.Column{Name: "power", Kind: storage.KindFloat64},
		storage.Column{Name: "vendor", Kind: storage.KindString},
	)
}

// goldenRows is 2,400 readings over ten days, with one in four stamped at a
// bare date and a few powers that render with an exponent.
func goldenRows(from, to int) []storage.Row {
	vendors := []string{"acme", "borealis", "cobalt", "dynamo", "everlight"}
	rows := make([]storage.Row, 0, to-from)
	for i := from; i < to; i++ {
		power := float64((i*7919)%100000) / 100
		switch i % 89 {
		case 0:
			power = 1e21
		case 1:
			power = 2.5e-7
		}
		rows = append(rows, storage.Row{
			storage.Int64(int64(i % 97)),
			storage.Int64(int64(i%7 + 1)),
			storage.TimeUnix(goldenDay0 + int64(i/240)*86400 + int64(i%4)*3*3600),
			storage.Float64(power),
			storage.Str(vendors[(i/13)%len(vendors)]),
		})
	}
	return rows
}

// goldenBase writes the base table as two files under /tbl; 4 KB blocks cut
// each into several splits.
func goldenBase(t *testing.T, format Format) *dfs.FS {
	t.Helper()
	fs := dfs.New(4096)
	for i, part := range [][2]int{{0, 1300}, {1300, 2400}} {
		path := fmt.Sprintf("/tbl/part-%d", i)
		var err error
		if format == RCFile {
			_, err = storage.WriteRCRows(fs, path, goldenSchema(), goldenRows(part[0], part[1]), 40)
		} else {
			err = storage.WriteTextRows(fs, path, goldenRows(part[0], part[1]))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func goldenHash(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFiles digests every file under dir: path, size and content.
func hashFiles(t *testing.T, fs *dfs.FS, dir string) string {
	t.Helper()
	return digestFiles(treeFiles(t, fs, dir))
}

// treeFiles reads every file under dir, keyed by path.
func treeFiles(t *testing.T, fs *dfs.FS, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := fs.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir {
				walk(e.Path)
				continue
			}
			data, err := fs.ReadFile(e.Path)
			if err != nil {
				t.Fatal(err)
			}
			files[e.Path] = data
		}
	}
	walk(dir)
	return files
}

// digestFiles digests files as hashFiles does, in the order a walk of their
// tree visits them: each directory's entries by name.
func digestFiles(files map[string][]byte) string {
	paths := slices.Collect(maps.Keys(files))
	slices.SortFunc(paths, func(a, b string) int {
		return slices.Compare(strings.Split(a, "/"), strings.Split(b, "/"))
	})
	var parts []string
	for _, p := range paths {
		parts = append(parts, p, string(files[p]))
	}
	return goldenHash(parts...)
}

// unpackedFiles reads every file under dir, each RCFile data file (every
// one with a "_colstats" side file) and its side file as storage.HiveRCFile
// renders them: written with no column packed. Every RCFile it renders must
// be as long as the bytes the meter charges for it.
func unpackedFiles(t *testing.T, fs *dfs.FS, dir string) map[string][]byte {
	t.Helper()
	files := treeFiles(t, fs, dir)
	for path := range files {
		dataDir, base, ok := strings.Cut(path, "/_colstats/")
		if !ok {
			continue
		}
		dataPath := dataDir + "/" + base
		data, colstats, err := storage.HiveRCFile(fs, dataPath)
		if err != nil {
			t.Fatal(err)
		}
		if size, err := storage.DataSize(fs, dataPath, RCFile); err != nil || size != int64(len(data)) {
			t.Fatalf("%s: charged %d bytes (%v), Hive's RCFile holds %d", dataPath, size, err, len(data))
		}
		files[dataPath], files[path] = data, colstats
	}
	return files
}

// renderJobStats is the job's Stats with the wall clock zeroed.
func renderJobStats(s mapreduce.Stats) string {
	s.Wall = 0
	return fmt.Sprintf("%+v", s)
}

// renderFilter renders a FilterResult in a fixed order.
func renderFilter(fr *FilterResult) string {
	var b strings.Builder
	files := make([]string, 0, len(fr.Files))
	for f := range fr.Files {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		ff := fr.Files[f]
		offs := make([]int64, 0, len(ff.Offsets))
		for o, ok := range ff.Offsets {
			if ok {
				offs = append(offs, o)
			}
		}
		slices.Sort(offs)
		fmt.Fprintf(&b, "%s offsets=%v\n", f, offs)
		blocks := make([]int64, 0, len(ff.Rows))
		for o := range ff.Rows {
			blocks = append(blocks, o)
		}
		slices.Sort(blocks)
		for _, o := range blocks {
			fmt.Fprintf(&b, "  block %d rows=%s\n", o, ff.Rows[o].encode())
		}
	}
	fmt.Fprintf(&b, "entries=%d scan=%s\n", fr.Entries, renderJobStats(fr.ScanStats))
	return b.String()
}

// renderCounts renders an AggregateCounts answer in key order.
func renderCounts(counts map[string]int64, stats *mapreduce.Stats) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%q=%d\n", k, counts[k])
	}
	b.WriteString(renderJobStats(*stats))
	return b.String()
}

// baseRow is one row a base-table reader delivered: the file, the offset
// Hive's indexes record for it, its position in its row group (RCFile) and
// its text rendering.
type baseRow struct {
	path   string
	offset int64
	pos    int
	line   string
}

// readBase runs a map-only job over in and returns every row it delivered,
// in (path, offset, position) order, plus the job's Stats.
func readBase(t *testing.T, in *mapreduce.FileInput) ([]baseRow, *mapreduce.Stats) {
	t.Helper()
	var mu sync.Mutex
	var rows []baseRow
	stats, err := mapreduce.RunContext(context.Background(), testCfg(), &mapreduce.Job{
		Name:  "golden-base",
		Input: in,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			mu.Lock()
			defer mu.Unlock()
			b := rec.Batch
			for _, ri := range b.Sel() {
				pos := 0 // a text line is its own block
				if in.Format == RCFile {
					pos = ri
				}
				rows = append(rows, baseRow{path: rec.Path, offset: b.RowOffset(ri), pos: pos, line: string(b.Line(ri))})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(rows, func(a, b baseRow) int {
		if c := strings.Compare(a.path, b.path); c != 0 {
			return c
		}
		if a.offset != b.offset {
			return int(a.offset - b.offset)
		}
		return a.pos - b.pos
	})
	return rows, stats
}

func renderBase(rows []baseRow, stats *mapreduce.Stats) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s@%d:%d %s\n", r.path, r.offset, r.pos, r.line)
	}
	b.WriteString(renderJobStats(*stats))
	return b.String()
}

type hiveGolden struct {
	files, build, filter, counts, base string
}

// hiveGoldens is keyed by base format/kind/index-table format. The files
// digests of the RCFile index tables were re-recorded twice: when their
// "_groups" side files gave way to "_colstats" ones (hiveGoldenGroups holds
// the ones recorded before, and TestHiveIndexBuildGoldenGroupsMovedAsDescribed
// holds that move), and when bigint, timestamp and double columns began to
// pack (hiveGoldenUnpacked holds the ones recorded before, and
// TestHiveIndexBuildGoldenPackedMovedAsDescribed holds that move).
var hiveGoldens = map[string]hiveGolden{
	"TextFile/compact/TextFile":   {"286a7e16292885b5a5602fbd4a6d37c9faf77675e8791b75c115d7797dd43580", "f88ad4cb67d0f68be62c7b0d6acc586aa6fd4e322c0df86d78b920b51d51c0e7", "016ccfaa2ef80f0652fe64f665e0c20e78ea553279c795668b60b1013fc62e93", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "adb136112439d9d91197bd3b146afc05f43c4f4e5da5c5d3932d080f516e06e0"},
	"TextFile/compact/RCFile":     {"e874ac9f00fa9036b3c74e4e7cb9bcc49ada98cf81ff9a6c6b5f02c09696ceb4", "f88ad4cb67d0f68be62c7b0d6acc586aa6fd4e322c0df86d78b920b51d51c0e7", "f21c0d63d136e0db5285123284fbd720fb5cedff38a1983930fbeba5b2f08b3d", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "adb136112439d9d91197bd3b146afc05f43c4f4e5da5c5d3932d080f516e06e0"},
	"TextFile/bitmap/TextFile":    {"3e7d4ba9d0dc79c87ec2636b52f43899f672dc778587994dbdeb59ce26724124", "7acac420212cb74ae2c5e1d362d05e9eea547121702fbc72f06308611fd28b1e", "bb3570d39f3909b0aef57798e7d91e590a111ac6e2938146c73a52d2651ad4a0", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "adb136112439d9d91197bd3b146afc05f43c4f4e5da5c5d3932d080f516e06e0"},
	"TextFile/bitmap/RCFile":      {"c8400b041af62154226cdac61ee428cfa17ffe9e34cfb0831c3a4aa51d128d33", "7acac420212cb74ae2c5e1d362d05e9eea547121702fbc72f06308611fd28b1e", "59eba0ab53264aa913ef1d244f5324146470b5cebe2ead95563d8f95ff029bc9", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "adb136112439d9d91197bd3b146afc05f43c4f4e5da5c5d3932d080f516e06e0"},
	"TextFile/aggregate/TextFile": {"5e68828d2894982af4698d34f71885cd2ea2c796a844b1d4f82d073eb5c44e9d", "f88ad4cb67d0f68be62c7b0d6acc586aa6fd4e322c0df86d78b920b51d51c0e7", "a2676c42931f8b5373a3093fc9bea8cee1b13d0ea97bae9a48a0f79c7cbf7611", "cf914a8ebe84ce3eb44a98e035ca646877c873f58863dd6ee67e7761445f34ac", "adb136112439d9d91197bd3b146afc05f43c4f4e5da5c5d3932d080f516e06e0"},
	"TextFile/aggregate/RCFile":   {"0f1fb9dbffa279863deb4838d65be8920a3de0250cea5dda0d2a6675d02b0c02", "f88ad4cb67d0f68be62c7b0d6acc586aa6fd4e322c0df86d78b920b51d51c0e7", "8561f3a7e88768141ddd1d0c7afe0e20e0de738622169332408543c3c8528afd", "6c1d23b0858c07db1ecbf66fd3326c87fbc028534b8ed7cedb2fae063ceece63", "adb136112439d9d91197bd3b146afc05f43c4f4e5da5c5d3932d080f516e06e0"},
	"RCFile/compact/TextFile":     {"ea37b6ff7a0be4701be952ae4f49791f3682c405d8d7b5521a0cbab17245a1c1", "22c17a5b9873e81cdf05a3b7b252287cee0d595c5f903fccc01abe8ff5ce74df", "88cc08a908dd99f1da464c6deb6961845a2158034de6c912593ac2d32005f48b", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "2c822cc74aebf60884472ecabd6031cd39ae15c98988da3feb96a71f68e4617a"},
	"RCFile/compact/RCFile":       {"f984af275a052df0b6d9859a461fd985ff300e4ff53c4857d5bb84fa1e47ad01", "22c17a5b9873e81cdf05a3b7b252287cee0d595c5f903fccc01abe8ff5ce74df", "b8d8ba2d34e84de10cedbf049aaccbf21320aca26eb335941ab9413f6dff6492", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "2c822cc74aebf60884472ecabd6031cd39ae15c98988da3feb96a71f68e4617a"},
	"RCFile/bitmap/TextFile":      {"aea45004fd8ffe6ca663debc189faf52bd08cbe44d137001803f58f52067a7f6", "35c3304f1545936f6f6707ebe71a452dfdb3a64d8129b71516471701997263fd", "7a6c29046b17c78c971a0ef55709c0f627b5d7ecd8b00e450a0734f7de01f42d", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "07be30c33849bc3f54a81a0aec5788fba86a7221e83201f1899add2e0abc959c"},
	"RCFile/bitmap/RCFile":        {"919daafaa73935be4aacf8f76afbc4354bcbcb7e65b625f7e7fa841202ba9d95", "35c3304f1545936f6f6707ebe71a452dfdb3a64d8129b71516471701997263fd", "3e0380a3cd560c04b13559e2fd934a5c5f553a91f1f086041fc00b878f64c168", "7826e612a602c5446376c2e3ec47d9794fe8e40ecb8859a83fb1480a51be2cbf", "07be30c33849bc3f54a81a0aec5788fba86a7221e83201f1899add2e0abc959c"},
	"RCFile/aggregate/TextFile":   {"11138a8b72fa1843f116bf8ad9e80d82342dba92dcc6eb380eef8ea0386ac823", "560e8dbc0dba34939e071ef91bb0e8a3d2492e2546d3c62df8ab57baee4c14b5", "5a7be5b7402e97befe98fad872ca409a4b5369b8778fbb2c3d4916eb481a0905", "670d59d367f1593ae260ca2ee050bd1d1e1140c0029f73bf1e0e1ea382e2acb9", "2c822cc74aebf60884472ecabd6031cd39ae15c98988da3feb96a71f68e4617a"},
	"RCFile/aggregate/RCFile":     {"037e6d93ef8a4b43750cc87c5b442dc86010f8bf8f6fc171ad52806f3f5a213d", "560e8dbc0dba34939e071ef91bb0e8a3d2492e2546d3c62df8ab57baee4c14b5", "d1aa3f7504195c60be9e430600216c76bab466a1d71644b804c6fd6aacddc940", "05904a0a53d131cc53fb37ac02fd086de60ad0940e1f56e69993051de87b94b5", "2c822cc74aebf60884472ecabd6031cd39ae15c98988da3feb96a71f68e4617a"},
}

// hiveGoldenUnpacked holds the index-table files digests of the RCFile
// index tables recorded while every column body was text.
var hiveGoldenUnpacked = map[string]string{
	"TextFile/compact/RCFile":   "c7c51117a219eaa5986d7dc5f0b6e12dab47cf9d21cf984642e08eb8ddfff0dd",
	"TextFile/bitmap/RCFile":    "d59828faddefd17e70a01743dd7330f9cefbf1ad43c9bba2daf7781bac88f137",
	"TextFile/aggregate/RCFile": "809de0d9b40a1bb3a8361a07a3b20ad708c42b8d25ee4f78d888747bf8142451",
	"RCFile/compact/RCFile":     "7bb0af90e20f3ba8f9e4757a154add7ca3d4f0868e77ad7c7c9ed84183750a32",
	"RCFile/bitmap/RCFile":      "42bd222fe3858e3fb33bacd7baca762c72b24404cb2e0827c4e18dafe26083e8",
	"RCFile/aggregate/RCFile":   "a3ed8ebcfe4bd84c0da15d9f343a05b9d6ba4d3627ebfea6b38f9f4e9d8ed0b0",
}

// hiveGoldenGroups holds the index-table files digests of the RCFile index
// tables recorded while every index-table file had a "_groups" side file
// holding its row-group offsets, and no "_colstats" side file.
var hiveGoldenGroups = map[string]string{
	"TextFile/compact/RCFile":   "b6f4b67d30ef6ce87e57bfd476963a4a84722165ea7b0d349ada95349505686d",
	"TextFile/bitmap/RCFile":    "d0a8e0324dd4d22ef4272c597d8ada803a8302eacf41c4aaced04e6c208fdc65",
	"TextFile/aggregate/RCFile": "15fab619a5855c62d2ca6a9a1a75f7ffc521dec2aa8982965a5c886c8e90a37c",
	"RCFile/compact/RCFile":     "0e933d0b4b26623d7ff5362f21734ef635c6e8e2d7952a15dae5933d7fe7c709",
	"RCFile/bitmap/RCFile":      "6fde337d01a1d12089e6608b386188bcc4936825eadf419d9e4cbcc33ec40c39",
	"RCFile/aggregate/RCFile":   "8f9fe156dc9087757ba70b62742ada4f4aae8d2eac593308a3db06dbdf0ff352",
}

// goldenIndex builds the golden index of one kind and index-table format
// over a fresh golden base table of the given format.
func goldenIndex(t *testing.T, base Format, kind Kind, idxFormat Format) (*dfs.FS, *Index, *mapreduce.Stats) {
	t.Helper()
	fs := goldenBase(t, base)
	ix, stats, err := Build(testCfg(), fs, Options{
		Name: "golden", Kind: kind,
		BaseDir: "/tbl", BaseFormat: base,
		Schema: goldenSchema(), Cols: []string{"regionId", "ts"},
		IndexDir: "/idx", IndexFormat: idxFormat, RowGroupRows: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Splits < 4 {
		t.Fatalf("build read %d splits, want at least 4", stats.Splits)
	}
	return fs, ix, stats
}

func TestHiveIndexBuildGolden(t *testing.T) {
	ranges := map[string]gridfile.Range{
		"regionId": {Lo: storage.Int64(2), Hi: storage.Int64(4)},
		"ts":       {Lo: storage.TimeUnix(goldenDay0 + 2*86400), Hi: storage.TimeUnix(goldenDay0 + 6*86400)},
	}
	for _, base := range []Format{TextFile, RCFile} {
		for _, kind := range []Kind{Compact, Bitmap, Aggregate} {
			for _, idxFormat := range []Format{TextFile, RCFile} {
				name := fmt.Sprintf("%v/%v/%v", base, kind, idxFormat)
				t.Run(name, func(t *testing.T) {
					fs, ix, stats := goldenIndex(t, base, kind, idxFormat)
					fr, err := ix.Filter(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), ranges)
					if err != nil {
						t.Fatal(err)
					}
					if fr.Entries == 0 {
						t.Fatal("filter matched no index rows")
					}
					counts := "not an aggregate index"
					if kind == Aggregate {
						c, st, err := ix.AggregateCounts(context.Background(), testCfg(), fs, indexFiles(t, ix, fs), ranges, []string{"regionId"})
						if err != nil {
							t.Fatal(err)
						}
						counts = renderCounts(c, st)
					}
					rows, baseStats := readBase(t, ix.BaseInput(fs, fr))
					got := hiveGolden{
						files:  hashFiles(t, fs, "/idx"),
						build:  goldenHash(renderJobStats(*stats)),
						filter: goldenHash(renderFilter(fr)),
						counts: goldenHash(counts),
						base:   goldenHash(renderBase(rows, baseStats)),
					}
					want, ok := hiveGoldens[name]
					if !ok {
						t.Logf("%q: {%q, %q, %q, %q, %q},", name, got.files, got.build, got.filter, got.counts, got.base)
						t.Fatalf("no golden hashes recorded for %s", name)
					}
					for _, c := range []struct{ what, got, want string }{
						{"index-table files", got.files, want.files},
						{"build Stats", got.build, want.build},
						{"Filter result", got.filter, want.filter},
						{"AggregateCounts", got.counts, want.counts},
						{"BaseInput rows", got.base, want.base},
					} {
						if c.got != c.want {
							t.Errorf("%s hash to %s, want %s", c.what, c.got, c.want)
						}
					}
				})
			}
		}
	}
}

// TestHiveIndexBuildGoldenPackedMovedAsDescribed bounds the re-recording of
// the RCFile index tables' files digests when bigint, timestamp and double
// columns began to pack. With every index-table file written again with no
// column packed (storage.HiveRCFile), the index tables hash to what was
// recorded before: so every text body, row count, Hive length, encoding tag
// and zone bound is what it was, and each file is as long as the bytes the
// meter charges for it. TestHiveIndexBuildGolden holds the build Stats, the
// Filter result, AggregateCounts and the BaseInput rows unmoved.
func TestHiveIndexBuildGoldenPackedMovedAsDescribed(t *testing.T) {
	for _, base := range []Format{TextFile, RCFile} {
		for _, kind := range []Kind{Compact, Bitmap, Aggregate} {
			name := fmt.Sprintf("%v/%v/%v", base, kind, RCFile)
			t.Run(name, func(t *testing.T) {
				fs, _, _ := goldenIndex(t, base, kind, RCFile)
				if got, want := digestFiles(unpackedFiles(t, fs, "/idx")), hiveGoldenUnpacked[name]; got != want {
					t.Errorf("index-table files, written with no column packed, hash to %s, they hashed to %s", got, want)
				}
			})
		}
	}
}

// TestHiveIndexBuildGoldenGroupsMovedAsDescribed bounds the re-recording of
// the RCFile index tables' files digests when their "_groups" side files
// gave way to "_colstats" ones, the side file every other RCFile has. With
// the files written with no column packed, as
// TestHiveIndexBuildGoldenPackedMovedAsDescribed has them, the "_colstats"
// files removed and a "_groups/<base>" file written back beside every
// index-table file, from the offsets ReadGroupIndex derives, in the old
// encoding, the index tables hash to what was recorded before: so every
// index-table file is what it was, the derived offsets are the ones the
// deleted files held, and only the side files changed.
func TestHiveIndexBuildGoldenGroupsMovedAsDescribed(t *testing.T) {
	for _, base := range []Format{TextFile, RCFile} {
		for _, kind := range []Kind{Compact, Bitmap, Aggregate} {
			name := fmt.Sprintf("%v/%v/%v", base, kind, RCFile)
			t.Run(name, func(t *testing.T) {
				fs, _, _ := goldenIndex(t, base, kind, RCFile)
				files := unpackedFiles(t, fs, "/idx")
				groups := map[string][]byte{}
				for path := range files {
					dir, file, ok := strings.Cut(path, "/_colstats/")
					if !ok {
						continue
					}
					offsets, err := storage.ReadGroupIndex(fs, dir+"/"+file)
					if err != nil {
						t.Fatal(err)
					}
					var old []byte
					for _, off := range offsets {
						old = binary.AppendUvarint(old, uint64(off))
					}
					delete(files, path)
					groups[dir+"/_groups/"+file] = old
				}
				maps.Copy(files, groups)
				if got, want := digestFiles(files), hiveGoldenGroups[name]; got != want {
					t.Errorf("index-table files, group index files written back, hash to %s, they hashed to %s", got, want)
				}
			})
		}
	}
}
