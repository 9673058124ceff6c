package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// The load path's output is pinned: for 1x1, 4x1 and 4x2 fleets without a
// WAL, over a TextFile and an RCFile meterdata with a DGFIndex plus the
// replicated userInfo, a fixed sequence of sequential loads must leave on
// every replica the files, the index key-values, the table versions and the
// query answers (rows and QueryStats) that commit 433a837 — the parent of the
// single write path, where such a fleet wrote its replicas synchronously,
// without an engine — produced. The hashes below were recorded there, before any source changed.
// The same sequence behind EnableWAL(Fsync: off), opened before the base
// data, must reproduce them too: which engine carries a load decides nothing
// a reader can see.

// goldenLoads is the sequence after the index exists, so every meterdata
// load runs dgf.Append at apply: one user's readings on a day past the base
// data (one shard, fresh cells), every user on a base day (all shards, cells
// that exist), and every third user on both days again (a second append into
// cells the first two created or extended).
func goldenLoads(cfg workload.MeterConfig) []struct {
	table string
	rows  []storage.Row
} {
	const day = 24 * 3600
	base := cfg.Start.Unix()
	reading := func(user int64, ts int64, power float64) storage.Row {
		return storage.Row{storage.Int64(user), storage.Int64(cfg.RegionOf(user)), storage.TimeUnix(ts), storage.Float64(power)}
	}
	var oneShard, allShards, again []storage.Row
	for i := 0; i < 12; i++ {
		oneShard = append(oneShard, reading(7, base+int64(cfg.Days)*day+int64(i)*1800, 3.25+float64(i)))
	}
	for u := int64(1); u <= int64(cfg.Users); u++ {
		allShards = append(allShards, reading(u, base+2*day+int64(u)*60, float64(u)*0.5))
		if u%3 == 0 {
			again = append(again, reading(u, base+2*day+int64(u)*90, 100+float64(u)))
			again = append(again, reading(u, base+int64(cfg.Days)*day+int64(u)*45, 200+float64(u)))
		}
	}
	var users []storage.Row
	for u := cfg.Users + 1; u <= cfg.Users+4; u++ {
		users = append(users, storage.Row{
			storage.Int64(int64(u)), storage.Str(fmt.Sprintf("late-%d", u)),
			storage.Int64(cfg.RegionOf(int64(u))), storage.Str(fmt.Sprintf("%d Late Rd", u)),
		})
	}
	return []struct {
		table string
		rows  []storage.Row
	}{
		{"meterdata", oneShard},
		{"meterdata", allShards},
		{"userInfo", users},
		{"meterdata", again},
	}
}

// goldenFleetState digests one fleet, replica by replica. kvRetiredMeta is
// the kv digest over the same stores with goldenRetiredMeta put back, and
// kvAsText that with every GFUValue also decoded and rendered in the text
// form values had before the binary codec.
type goldenFleetState struct {
	files, kv, answers, kvRetiredMeta, kvAsText string
}

// goldenUnpacked returns a filesystem holding files, every RCFile data file
// (every one with a "_colstats" side file) and its side file as
// storage.HiveRCFile renders the replica's: written with no column packed.
// Every RCFile it renders must be as long as the bytes the meter charges
// for it.
func goldenUnpacked(t *testing.T, w *hive.Warehouse, files map[string][]byte) *dfs.FS {
	t.Helper()
	out := dfs.New(w.FS.BlockSize())
	for path, data := range files {
		if dir, base, ok := strings.Cut(path, "/_colstats/"); ok {
			dataPath := dir + "/" + base
			hive, colstats, err := storage.HiveRCFile(w.FS, dataPath)
			if err != nil {
				t.Fatal(err)
			}
			if size, err := storage.DataSize(w.FS, dataPath, storage.RCFile); err != nil || size != int64(len(hive)) {
				t.Fatalf("%s: charged %d bytes (%v), Hive's RCFile holds %d", dataPath, size, err, len(hive))
			}
			if err := out.WriteFile(dataPath, hive); err != nil {
				t.Fatal(err)
			}
			data = colstats
		} else if _, ok := files[storage.ColStatsPath(path)]; ok {
			continue // written with its side file
		}
		if err := out.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// goldenColStatsV3 returns files with every "_colstats" side file read back
// from fs and written as the version 3 stream.
func goldenColStatsV3(t *testing.T, fs *dfs.FS, files map[string][]byte) map[string][]byte {
	t.Helper()
	for path := range files {
		if !strings.Contains(path, "/_colstats/") {
			continue
		}
		stats, err := storage.ReadColStats(fs, strings.Replace(path, "/_colstats/", "/", 1))
		if err != nil {
			t.Fatal(err)
		}
		files[path] = v3ColStats(t, stats)
	}
	return files
}

// goldenGroupIndexes adds to files, for every RCFile data file (every one
// with a "_colstats" side file), the "_groups/<base>" side file that held
// its row-group start offsets before they came from the column statistics:
// each offset as a uvarint. It returns files.
func goldenGroupIndexes(t *testing.T, fs *dfs.FS, files map[string][]byte) map[string][]byte {
	t.Helper()
	groups := map[string][]byte{}
	for path := range files {
		dir, base, ok := strings.Cut(path, "/_colstats/")
		if !ok {
			continue
		}
		offsets, err := storage.ReadGroupIndex(fs, dir+"/"+base)
		if err != nil {
			t.Fatal(err)
		}
		var old []byte
		for _, off := range offsets {
			old = binary.AppendUvarint(old, uint64(off))
		}
		groups[dir+"/_groups/"+base] = old
	}
	maps.Copy(files, groups)
	return files
}

// v3ColStats renders groups as the version 3 column statistics stream did:
// magic 0 and version 3, then per group uvarint rows, column count and
// column lengths, a zone flag byte and each column's min and max text
// (uvarint length and bytes), and an encodings flag byte and the tags.
func v3ColStats(t *testing.T, stats []storage.GroupStat) []byte {
	t.Helper()
	b := []byte{0, 3}
	for _, g := range stats {
		b = binary.AppendUvarint(b, uint64(g.Rows))
		b = binary.AppendUvarint(b, uint64(len(g.ColLens)))
		for _, l := range g.ColLens {
			b = binary.AppendUvarint(b, uint64(l))
		}
		if g.HasZone() {
			b = append(b, 1)
			for c := range g.ColLens {
				lo, hi, ok := g.Zone(c)
				if !ok {
					t.Fatalf("column %d has no zone, whose text version 3 would have stored", c)
				}
				for _, v := range []storage.Value{lo, hi} {
					text := v.String()
					b = append(binary.AppendUvarint(b, uint64(len(text))), text...)
				}
			}
		} else {
			b = append(b, 0)
		}
		if len(g.Encs) == len(g.ColLens) && len(g.Encs) > 0 {
			b = append(append(b, 1), g.Encs...)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// goldenReplicaTree reads every file of one replica's filesystem, keyed by
// path.
func goldenReplicaTree(t testing.TB, w *hive.Warehouse) map[string][]byte {
	t.Helper()
	return goldenTree(t, w.FS)
}

// goldenTree reads every file of fs, keyed by path.
func goldenTree(t testing.TB, fs *dfs.FS) map[string][]byte {
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
	walk("/")
	return files
}

// goldenFileLines renders files as "<path> <SHA-256 of the bytes>", in path
// order.
func goldenFileLines(files map[string][]byte) []string {
	out := make([]string, 0, len(files))
	for path, data := range files {
		sum := sha256.Sum256(data)
		out = append(out, path+" "+hex.EncodeToString(sum[:]))
	}
	sort.Strings(out)
	return out
}

// goldenRetiredMeta is what c084951 stored in every replica's index under
// the three metadata keys the value-bitmap sidecars and byte-budget row
// groups used.
var goldenRetiredMeta = []kvstore.Pair{
	{Key: "meta/bitmapcols", Value: []byte{}},
	{Key: "meta/bitmapdisabled", Value: []byte{}},
	{Key: "meta/groupbytes", Value: []byte("0")},
}

// goldenReplicaKV is the entry count and content hash of the replica's
// DGFIndex key-value store: as stored, with goldenRetiredMeta put back, and
// with that and the GFU values as text.
func goldenReplicaKV(t *testing.T, w *hive.Warehouse) (stored, retiredMeta, asText string) {
	t.Helper()
	tbl, err := w.Table("meterdata")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(pairs []kvstore.Pair, value func(kvstore.Pair) []byte) string {
		h := sha256.New()
		var n [8]byte
		for _, p := range pairs {
			v := value(p)
			binary.BigEndian.PutUint64(n[:], uint64(len(p.Key)))
			h.Write(n[:])
			h.Write([]byte(p.Key))
			binary.BigEndian.PutUint64(n[:], uint64(len(v)))
			h.Write(n[:])
			h.Write(v)
		}
		return fmt.Sprintf("%d entries %s", len(pairs), hex.EncodeToString(h.Sum(nil)))
	}
	asStored := func(p kvstore.Pair) []byte { return p.Value }
	text := func(p kvstore.Pair) []byte {
		if !strings.HasPrefix(p.Key, "g/") {
			return p.Value
		}
		v, err := tbl.Dgf.DecodeGFUValue(p.Value)
		if err != nil {
			t.Fatalf("%s: %v", p.Key, err)
		}
		return goldenTextGFUValue(v)
	}
	pairs := tbl.DgfKV.ScanPrefix("")
	retired := append(append([]kvstore.Pair(nil), pairs...), goldenRetiredMeta...)
	slices.SortFunc(retired, func(a, b kvstore.Pair) int { return strings.Compare(a.Key, b.Key) })
	return digest(pairs, asStored), digest(retired, asStored), digest(retired, text)
}

// goldenTextGFUValue renders a GFUValue as commit 433a837 stored it:
// "sum:n,-|file:start:end;file:start:end", floats in shortest decimal.
func goldenTextGFUValue(v dgf.GFUValue) []byte {
	var b []byte
	for i, a := range v.Header {
		if i > 0 {
			b = append(b, ',')
		}
		if a.N == 0 {
			b = append(b, '-')
			continue
		}
		b = strconv.AppendInt(append(strconv.AppendFloat(b, a.Value, 'g', -1, 64), ':'), a.N, 10)
	}
	b = append(b, '|')
	for i, s := range v.Slices {
		if i > 0 {
			b = append(b, ';')
		}
		b = fmt.Appendf(b, "%s:%d:%d", s.File, s.Start, s.End)
	}
	return b
}

// goldenReplicaAnswers renders the replica's table versions and the meter
// query suite: exact rows, volumes, splits and both simulated clocks. With
// withoutGroupHeaders it renders the suite as it was before a GROUP BY over
// the unit-interval regionId dimension read its inner cells' headers: those
// statements run with DisablePrecompute.
func goldenReplicaAnswers(t *testing.T, w *hive.Warehouse, withoutGroupHeaders bool) []string {
	t.Helper()
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	v := w.TableVersions("meterdata", "userinfo")
	out := []string{fmt.Sprintf("versions meterdata=%d userinfo=%d", v["meterdata"], v["userinfo"])}
	for _, q := range meterQuerySuite(testMeterConfig()) {
		opts := hive.ExecOptions{DisablePrecompute: withoutGroupHeaders && strings.HasSuffix(q, "GROUP BY regionId")}
		res, err := w.ExecContext(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		s := res.Stats
		out = append(out, fmt.Sprintf("%s\n  %s rec=%d bytes=%d splits=%d idx=%s data=%s\n  %s", q,
			s.AccessPath, s.RecordsRead, s.BytesRead, s.Splits, g(s.IndexSimSec), g(s.DataSimSec),
			strings.Join(renderRows(res.Rows), ";")))
	}
	return out
}

func goldenHash(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// goldenRun builds one fleet, runs the base data and the load sequence
// (behind a WAL opened before them when withWAL is set) and digests every
// replica; withoutGroupHeaders is passed to
// goldenReplicaAnswers. It also returns the rendered lines for a failing
// comparison to print.
func goldenRun(t *testing.T, shards, replicas int, stored string, withWAL, withoutGroupHeaders bool) (goldenFleetState, map[string][]string) {
	t.Helper()
	cfg := testMeterConfig()
	r, err := New(Config{Shards: shards, Replicas: replicas, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	if withWAL {
		if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}); err != nil {
			t.Fatal(err)
		}
	}
	setupMeterStored(t, r, cfg, true, stored)
	for i, l := range goldenLoads(cfg) {
		ack, err := r.LoadRowsDurable(context.Background(), l.table, l.rows, true)
		if err != nil {
			t.Fatalf("load %d into %s: %v", i, l.table, err)
		}
		if !ack.Applied {
			t.Fatalf("load %d into %s: sync ack not applied: %+v", i, l.table, ack)
		}
	}
	fv := r.TableVersions("meterdata", "userinfo")
	lines := map[string][]string{"answers": {fmt.Sprintf("fleet versions meterdata=%d userinfo=%d", fv["meterdata"], fv["userinfo"])}}
	for si := 0; si < shards; si++ {
		var first []string
		for ri := 0; ri < replicas; ri++ {
			w := r.Shard(si)
			head := fmt.Sprintf("shard %d replica %d", si, ri)
			tree := goldenReplicaTree(t, w)
			files := goldenFileLines(tree)
			lines["files"] = append(append(lines["files"], head), files...)
			unpacked := goldenUnpacked(t, w, tree)
			tree = goldenTree(t, unpacked)
			lines["filesUnpacked"] = append(append(lines["filesUnpacked"], head), goldenFileLines(tree)...)
			tree = goldenGroupIndexes(t, unpacked, tree)
			lines["filesGroups"] = append(append(lines["filesGroups"], head), goldenFileLines(tree)...)
			tree = goldenColStatsV3(t, unpacked, tree)
			lines["filesColStatsV3"] = append(append(lines["filesColStatsV3"], head), goldenFileLines(tree)...)
			kv, kvRetiredMeta, kvAsText := goldenReplicaKV(t, w)
			lines["kv"] = append(lines["kv"], head+" "+kv)
			lines["kvRetiredMeta"] = append(lines["kvRetiredMeta"], head+" "+kvRetiredMeta)
			lines["kvAsText"] = append(lines["kvAsText"], head+" "+kvAsText)
			lines["answers"] = append(append(lines["answers"], head), goldenReplicaAnswers(t, w, withoutGroupHeaders)...)
			// Replicas of a shard are copies: same files, byte for byte.
			if ri == 0 {
				first = files
			} else if strings.Join(files, "\n") != strings.Join(first, "\n") {
				t.Errorf("shard %d: replica %d's files differ from replica 0's", si, ri)
			}
		}
	}
	return goldenFleetState{
		files:         goldenHash(lines["files"]),
		kv:            goldenHash(lines["kv"]),
		answers:       goldenHash(lines["answers"]),
		kvRetiredMeta: goldenHash(lines["kvRetiredMeta"]),
		kvAsText:      goldenHash(lines["kvAsText"]),
	}, lines
}

// loadPathGolden holds the digests recorded at 433a837, keyed
// "<shards>x<replicas>/<format>". The TextFile files digests are those
// still; the RCFile ones were re-recorded three times: when the column
// statistics side files began storing typed, delta-coded zone maps
// (loadPathGoldenColStatsV3 holds the ones recorded before), when the
// "_groups" side files were deleted (loadPathGoldenGroups holds the ones
// recorded before), and when bigint, timestamp and double columns began to
// pack (loadPathGoldenUnpacked holds the ones recorded before). The
// answers digests were re-recorded twice: when aggregates began folding
// inside their split (sums differ in their last bit, data= in its sixth
// decimal — hive's TestQueryStatsGoldenMovedAsDescribed bounds the move), and
// when a GROUP BY over unit-interval grid dimensions began reading its inner
// cells' headers (loadPathGoldenAnswersBeforeGroupHeaders holds the ones
// recorded before). The kv digests were
// re-recorded twice. When the GFUValue became binary, the digests 433a837
// recorded for kv became kvAsText, so every key, every metadata entry and
// every pair's header and SliceLocs — file names included — are what that
// commit stored, with and without a log directory: only the values' bytes
// moved. When the value-bitmap sidecars and byte-budget row groups were
// removed, the digests c084951 recorded for kv became kvRetiredMeta: the
// index stopped storing the three goldenRetiredMeta entries, and nothing
// else in the store moved.
var loadPathGolden = map[string]goldenFleetState{
	"1x1/textfile": {"de03cb02551bfe5c338f5d6bbb6ae3f28325b97306558ecd192246ea4694a546", "58d977326f9cdbf74974967c6f1b4dbb22849690959740d9699d38e7555abbfe", "3646c8ca6e5bc689739187a55756adaa0c68a2617a76c64b363397b29a9c8679", "da116bc9a50c0992b918b95cca15dc1a5e0d1adcb41dbc5fedf49c79bf139e2a", "2557538120b83719fd8a94b9c08d2f0b3cf3263f905b93a32ce0684be19519c8"},
	"1x1/rcfile":   {"f53cc49ab0fe1730ed0c692c690f235453ba8e1077001f90823f3047efaf1ad5", "bff83a0bff68b43aec6acb43cab569d38647847a30e5c744e2f65f44a19501f4", "965230a37654333f19c933a8b7a34e926439d8a2f1505e0d3991caf75ad5bd07", "f4c75f23c9eb182e5c060c0547c53c5bd2a9e130892060d365df2e61c44106ba", "2085007e4282024993fcf5832d1da9ccc1b23372a3e660277f6dcacd482ceebf"},
	"4x1/textfile": {"afc9688d143d527e41c80d3e7c9e19da5584dd4c2d50dbce7376df67c23b256f", "db26e71d209a92dbf37bfb4272743744bec072dafc735fe346f6f62b14137064", "757e5fd4584c6b8d28ffd41060a9ba28fcd1f79c4667d17c6a3bf559e03c537a", "1fb7b062538eaf14ece676360cff2d8522d961f7a3f614ef9680b995f038e6e4", "d8e5792708d56bd6ae004a8185d9dab0b8ef5165ac7236043bb29b1a2c5db41d"},
	"4x1/rcfile":   {"6f07e9ccc08227dca9330830c64198ce1e43945e703f410904028a67d67dc4d8", "18d8ce220a64912e711290a2d4897b76041e2089fb70bd4ad64684dd2e5a0e77", "01a992db4caefc055da509e4bd563d66665907e26eade2a4b833a71c20eddd9e", "a36aa0ed8e342ddca8ba7edb9184312fdf46729c3d3186ed5f1fa61138e2ce3b", "a481c3e25603e8430ec22d51fd879e7ce75c696a6a2b1a0e15b5d729c36b9178"},
	"4x2/textfile": {"6013d565a73343e313e4eb2c2eecde879d971c876523155bb14afd0c6c47e70a", "a136a0039f70fbe0f5ce19e89a966b3d2fdb1a2d82e00d839d19be2752e0f0f4", "5343daa5d542084015e41a2ccb1f3b5ba699978d51d5f75916997cfc380ad51b", "7222922d0e90ec32c2bbc0bbffdad12a327d280d7fa467dd1cc8aef16ecc8bd8", "9122e90faeb3c80f758e0573b9436074fcfcc3f75937c9bdbcfc2232e764c36d"},
	"4x2/rcfile":   {"6f2b70357a6e60a9d4565ee43626f79b860e15212d7a73620b365f0a6cd7687c", "44ffbe2eea7e0e135808071587ea82bf5d750b861a2c493c785b69aab8a1c261", "e7cdaecb13c087d03e833296df494408891eb0f2515746568c25b58e71a9507a", "bd3212c23070fa5df81c04742417b0cb30dbc77511c7995902e69477c1652185", "6422191fad8db7e1023339cf91301a0d991203fccc2a3bb30edc2d633c7a15b3"},
}

// loadPathGoldenAnswersBeforeGroupHeaders holds the answers digests recorded
// before a GROUP BY over unit-interval grid dimensions read its inner cells'
// pre-computed headers. Of the meter suite only the two GROUP BY regionId
// statements moved.
var loadPathGoldenAnswersBeforeGroupHeaders = map[string]string{
	"1x1/textfile": "656964444c4bbdf49a3742db2b3c547c2accfdb072db43fedbfe8c59c31cb5ad",
	"1x1/rcfile":   "c886b85d3ea64f5cf967c53c9b6df390036b4f49bd814f23fcafa7ee5bf19c6d",
	"4x1/textfile": "5c8a08d627a43318afe1e397cf2dc36a12a1c5dd9f91c351fd97216d17b27c33",
	"4x1/rcfile":   "13864841faf126c510c537a4e03cafebdaf5ebef36ba909401910e63ac9516d0",
	"4x2/textfile": "a2869844a130194750c07df7da4d555be804a68187c2aea3c537c8d421e5170d",
	"4x2/rcfile":   "4583774964e0b7dcbb1d31e403cdad73f26b5bb03b506aaf6675b0fe4489ffbd",
}

// loadPathGoldenUnpacked holds the RCFile files digests recorded while
// every column body was text.
var loadPathGoldenUnpacked = map[string]string{
	"1x1/rcfile": "9e1e477af40cee2dddc2620c7677ba191afc08c06b5e149bdee3b34a5b995fbe",
	"4x1/rcfile": "6636dc779ac332373e4d39be73f419b5aed1d10191afff2758f2f7f9b022d090",
	"4x2/rcfile": "1eb97797ad2e7df63d1f45cacd2ab57394d881d03aa50ba0e06354ce161ffb5c",
}

// loadPathGoldenGroups holds the RCFile files digests recorded while every
// data file had a "_groups" side file holding its row-group offsets.
var loadPathGoldenGroups = map[string]string{
	"1x1/rcfile": "0aba58c2beacbf8d7e1616f3e9dee9824187d09e36bc8e6b4b1223937b88d7b1",
	"4x1/rcfile": "4020fc4063b726e253d755b0e5da316cd961abaa7c736cf2d187c6455b041d20",
	"4x2/rcfile": "5cd399fd73bcba0a2545ddd75d16d99fff997a8e50acbbbee47c66f8e81eb391",
}

// loadPathGoldenColStatsV3 holds the RCFile files digests recorded while
// every "_colstats" side file was a version 3 stream, its zone bounds stored
// as text, and every data file had a "_groups" side file.
var loadPathGoldenColStatsV3 = map[string]string{
	"1x1/rcfile": "2c5ea0cb2cd45ce383e489102ecb3580b863881ae3a6929cb2669393efe25430",
	"4x1/rcfile": "c0d3f593225f47c967b992223d482cc23dc2bc6a38146a4d0a3219732f4ead1d",
	"4x2/rcfile": "bb709b629f7ee030abcd1bcd114fc61e13aff777e6422c7c849d19c219ea5841",
}

func TestLoadPathGolden(t *testing.T) {
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {4, 1}, {4, 2}} {
		for _, stored := range []string{"TEXTFILE", "RCFILE"} {
			key := fmt.Sprintf("%dx%d/%s", shape.shards, shape.replicas, strings.ToLower(stored))
			for _, withWAL := range []bool{false, true} {
				name := key + "/no-wal"
				if withWAL {
					name = key + "/wal"
				}
				t.Run(name, func(t *testing.T) {
					got, lines := goldenRun(t, shape.shards, shape.replicas, stored, withWAL, false)
					want, ok := loadPathGolden[key]
					if !ok {
						t.Fatalf("no golden recorded for %s: {%q, %q, %q, %q, %q}", key, got.files, got.kv, got.answers, got.kvRetiredMeta, got.kvAsText)
					}
					if got.files != want.files {
						t.Errorf("files hash to %s, want %s\n%s", got.files, want.files, strings.Join(lines["files"], "\n"))
					}
					if got.kv != want.kv {
						t.Errorf("index key-values hash to %s, want %s\n%s", got.kv, want.kv, strings.Join(lines["kv"], "\n"))
					}
					if got.answers != want.answers {
						t.Errorf("versions and answers hash to %s, want %s\n%s", got.answers, want.answers, strings.Join(lines["answers"], "\n"))
					}
				})
			}
		}
	}
}

// TestLoadPathGoldenMovedAsDescribed bounds what re-recording the kv digests
// let through: with goldenRetiredMeta put back, every replica's store hashes
// to what c084951 recorded, and with every GFUValue also decoded and rendered
// back as text, to what 433a837 recorded. TestLoadPathGolden holds the fleets
// with a log directory to the same stored bytes as those without.
func TestLoadPathGoldenMovedAsDescribed(t *testing.T) {
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {4, 1}, {4, 2}} {
		for _, stored := range []string{"TEXTFILE", "RCFILE"} {
			key := fmt.Sprintf("%dx%d/%s", shape.shards, shape.replicas, strings.ToLower(stored))
			t.Run(key, func(t *testing.T) {
				got, lines := goldenRun(t, shape.shards, shape.replicas, stored, false, false)
				if want := loadPathGolden[key].kvRetiredMeta; got.kvRetiredMeta != want {
					t.Errorf("index key-values, retired metadata put back, hash to %s, c084951's hashed to %s\n%s",
						got.kvRetiredMeta, want, strings.Join(lines["kvRetiredMeta"], "\n"))
				}
				if want := loadPathGolden[key].kvAsText; got.kvAsText != want {
					t.Errorf("index key-values, GFU values rendered as text, hash to %s, the text codec's hashed to %s\n%s",
						got.kvAsText, want, strings.Join(lines["kvAsText"], "\n"))
				}
			})
		}
	}
}

// TestLoadPathGoldenGroupHeadersMovedAsDescribed bounds the re-recording of
// the answers digests when a GROUP BY over unit-interval grid dimensions began
// reading its inner cells' headers: with the two GROUP BY regionId statements
// of the meter suite run with DisablePrecompute, every replica's answers hash
// to what was recorded before, so no other statement's answer, volume or
// simulated clock moved. TestLoadPathGolden holds the files and kv digests
// unmoved.
func TestLoadPathGoldenGroupHeadersMovedAsDescribed(t *testing.T) {
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {4, 1}, {4, 2}} {
		for _, stored := range []string{"TEXTFILE", "RCFILE"} {
			key := fmt.Sprintf("%dx%d/%s", shape.shards, shape.replicas, strings.ToLower(stored))
			t.Run(key, func(t *testing.T) {
				got, lines := goldenRun(t, shape.shards, shape.replicas, stored, false, true)
				if want := loadPathGoldenAnswersBeforeGroupHeaders[key]; got.answers != want {
					t.Errorf("answers, GROUP BY regionId without pre-computation, hash to %s, they hashed to %s\n%s",
						got.answers, want, strings.Join(lines["answers"], "\n"))
				}
			})
		}
	}
}

// TestLoadPathGoldenPackedMovedAsDescribed bounds the re-recording of the
// RCFile files digests when bigint, timestamp and double columns began to
// pack. With every RCFile written again with no column packed
// (storage.HiveRCFile), every replica's files hash to what was recorded
// before: so every text body, row count, Hive length, encoding tag and zone
// bound is what it was, every other file did not move, and each RCFile is as
// long as the bytes the meter charges for it. TestLoadPathGolden holds the
// kv and answers digests — every GFU pair, so every slice address, and every
// answer, volume and simulated second — unmoved.
func TestLoadPathGoldenPackedMovedAsDescribed(t *testing.T) {
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {4, 1}, {4, 2}} {
		key := fmt.Sprintf("%dx%d/rcfile", shape.shards, shape.replicas)
		t.Run(key, func(t *testing.T) {
			_, lines := goldenRun(t, shape.shards, shape.replicas, "RCFILE", false, false)
			if got, want := goldenHash(lines["filesUnpacked"]), loadPathGoldenUnpacked[key]; got != want {
				t.Errorf("files, written with no column packed, hash to %s, they hashed to %s\n%s",
					got, want, strings.Join(lines["filesUnpacked"], "\n"))
			}
		})
	}
}

// TestLoadPathGoldenGroupsMovedAsDescribed bounds the re-recording of the
// RCFile files digests when the "_groups" side files were deleted and the
// row-group offsets came from the column statistics instead. With a
// "_groups/<base>" file written back beside every RCFile data file, from the
// offsets ReadGroupIndex derives, in the old encoding, every replica's files
// — written with no column packed, as TestLoadPathGoldenPackedMovedAsDescribed
// has them — hash to what was recorded before: so every data file and every
// "_colstats" file is what it was, the derived offsets are the ones the
// deleted files held, and only those files went. TestLoadPathGolden holds
// the kv and answers digests unmoved.
func TestLoadPathGoldenGroupsMovedAsDescribed(t *testing.T) {
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {4, 1}, {4, 2}} {
		key := fmt.Sprintf("%dx%d/rcfile", shape.shards, shape.replicas)
		t.Run(key, func(t *testing.T) {
			_, lines := goldenRun(t, shape.shards, shape.replicas, "RCFILE", false, false)
			if got, want := goldenHash(lines["filesGroups"]), loadPathGoldenGroups[key]; got != want {
				t.Errorf("files, group index files written back, hash to %s, they hashed to %s\n%s",
					got, want, strings.Join(lines["filesGroups"], "\n"))
			}
		})
	}
}

// TestLoadPathGoldenColStatsMovedAsDescribed bounds the re-recording of the
// RCFile files digests when the column statistics became typed and
// delta-coded: with the files written with no column packed, every
// "_colstats" side file read back and written as the version 3 stream, and
// the "_groups" side files written back as
// TestLoadPathGoldenGroupsMovedAsDescribed does, every replica's files hash
// to what was recorded before. So every data file, group index, row count,
// column length, encoding tag and zone bound is what it was; only the side
// files' spelling moved. TestLoadPathGolden holds the kv and answers digests
// unmoved.
func TestLoadPathGoldenColStatsMovedAsDescribed(t *testing.T) {
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {4, 1}, {4, 2}} {
		key := fmt.Sprintf("%dx%d/rcfile", shape.shards, shape.replicas)
		t.Run(key, func(t *testing.T) {
			_, lines := goldenRun(t, shape.shards, shape.replicas, "RCFILE", false, false)
			if got, want := goldenHash(lines["filesColStatsV3"]), loadPathGoldenColStatsV3[key]; got != want {
				t.Errorf("files, column statistics written as version 3, hash to %s, version 3 hashed to %s\n%s",
					got, want, strings.Join(lines["filesColStatsV3"], "\n"))
			}
		})
	}
}
