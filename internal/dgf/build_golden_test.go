package dgf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// The build job's output is pinned: every reorganised data file and sidecar,
// every key-value pair and the BuildStats of a TextFile and an RCFile build
// plus two appends each must hash to what commit fe95d05 (the parent of the
// hash-grouped shuffle) produced. The constants below were recorded there,
// before any source changed; a rewrite of the shuffle, the map function, the
// reducer or the writers has to reproduce them byte for byte, under any split
// completion order (run with -race -count=20).

const (
	goldenUsers    = 600
	goldenReadings = 40         // per user, one every six hours
	goldenDay0     = 1354320000 // 2012-12-01 00:00:00 UTC
)

func goldenSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "userId", Kind: storage.KindInt64},
		storage.Column{Name: "regionId", Kind: storage.KindInt64},
		storage.Column{Name: "ts", Kind: storage.KindTime},
		storage.Column{Name: "powerConsumed", Kind: storage.KindFloat64},
		storage.Column{Name: "vendor", Kind: storage.KindString},
	)
}

func goldenSpec() Spec {
	return Spec{
		Name: "idx_golden",
		Policy: gridfile.Policy{Dims: []gridfile.Dimension{
			{Name: "userId", Kind: storage.KindInt64, Min: storage.Int64(0), IntervalI: 50},
			{Name: "regionId", Kind: storage.KindInt64, Min: storage.Int64(1), IntervalI: 1},
			{Name: "ts", Kind: storage.KindTime, Min: storage.TimeUnix(goldenDay0), IntervalI: 24 * 3600},
		}},
		Precompute: []AggSpec{
			{Func: AggSum, Col: "powerConsumed"},
			{Func: AggCount},
			{Func: AggMax, Col: "powerConsumed"},
			{Func: AggMin, Col: "ts"},
			{Func: AggSum, Col: "userId*powerConsumed"},
		},
	}
}

// splitmix64 keeps the generator independent of math/rand's stream.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var goldenVendors = []string{"acme", "borealis", "cobalt", "dynamo", "everlight", "fluxworks", "gridline", "helios"}

// goldenRows renders readings [from, to) of users [userLo, userHi), reading
// major like a meter collection: every user reports, then the next reading.
// Reading r is stamped six hours after r-1, so one in four is a bare date.
func goldenRows(userLo, userHi, from, to int) []storage.Row {
	rng := splitmix64(uint64(userLo)<<32 | uint64(from))
	rows := make([]storage.Row, 0, (userHi-userLo)*(to-from))
	for r := from; r < to; r++ {
		for u := userLo; u < userHi; u++ {
			power := float64(rng.next()%1000000) / 100
			switch rng.next() % 97 {
			case 0:
				power = 1e21 // renders with an exponent
			case 1:
				power = 2.5e-7
			case 2:
				power = -power
			}
			rows = append(rows, storage.Row{
				storage.Int64(int64(u)),
				storage.Int64(int64(u%10 + 1)),
				storage.TimeUnix(goldenDay0 + int64(r)*6*3600 + int64(u%7)*int64(r%2)),
				storage.Float64(power),
				storage.Str(goldenVendors[(u+r/4)%len(goldenVendors)]),
			})
		}
	}
	return rows
}

// hashTree digests every file under dir (sidecar directories included):
// path, size and content, in path order.
func hashTree(t *testing.T, fs *dfs.FS, dir string) string {
	t.Helper()
	return hashFiles(treeFiles(t, fs, dir))
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

// hashFiles digests files as hashTree does, in the order a walk of their
// tree visits them: each directory's entries by name.
func hashFiles(files map[string][]byte) string {
	paths := slices.Collect(maps.Keys(files))
	slices.SortFunc(paths, func(a, b string) int {
		return slices.Compare(strings.Split(a, "/"), strings.Split(b, "/"))
	})
	h := sha256.New()
	for _, p := range paths {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(files[p])))
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(n[:])
		h.Write(files[p])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// withGroupIndexes adds to files, for every RCFile data file (every one with
// a "_colstats" side file), the "_groups/<base>" side file that held its
// row-group start offsets before they came from the column statistics: each
// offset as a uvarint. It returns files.
func withGroupIndexes(t *testing.T, fs *dfs.FS, files map[string][]byte) map[string][]byte {
	t.Helper()
	groups := map[string][]byte{}
	for p := range files {
		dir, base, ok := strings.Cut(p, "/_colstats/")
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

// hiveFS copies every file under dir into a fresh filesystem, each RCFile
// data file (every one with a "_colstats" side file) and its side file as
// storage.HiveRCFile renders them: the files written with no column packed.
// Every RCFile it renders must be as long as the bytes the meter charges
// for it.
func hiveFS(t *testing.T, fs *dfs.FS, dir string) *dfs.FS {
	t.Helper()
	files := treeFiles(t, fs, dir)
	for p := range files {
		dataDir, base, ok := strings.Cut(p, "/_colstats/")
		if !ok {
			continue
		}
		dataPath := dataDir + "/" + base
		data, colstats, err := storage.HiveRCFile(fs, dataPath)
		if err != nil {
			t.Fatal(err)
		}
		if size, err := storage.DataSize(fs, dataPath, storage.RCFile); err != nil || size != int64(len(data)) {
			t.Fatalf("%s: charged %d bytes (%v), Hive's RCFile holds %d", dataPath, size, err, len(data))
		}
		files[dataPath], files[p] = data, colstats
	}
	out := dfs.New(fs.BlockSize())
	for p, data := range files {
		if err := out.WriteFile(p, data); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// hashKV digests pairs in the order given (a scan's: by key).
func hashKV(pairs []kvstore.Pair) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range pairs {
		binary.BigEndian.PutUint64(n[:], uint64(len(p.Key)))
		h.Write(n[:])
		h.Write([]byte(p.Key))
		binary.BigEndian.PutUint64(n[:], uint64(len(p.Value)))
		h.Write(n[:])
		h.Write(p.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// renderStats is the BuildStats with the wall clock zeroed.
func renderStats(s *BuildStats) string {
	c := *s
	c.Job.Wall = 0
	return fmt.Sprintf("%+v", c)
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

type goldenStage struct {
	files, kv, stats string
}

// goldenStages names the three pinned stages: Build, an append extending ts
// and an append into fresh userId cells.
var goldenStages = [3]string{"build", "append(ts)", "append(new cells)"}

// golden holds the hashes per source format and stage. The TextFile files
// hashes are those recorded at fe95d05. The RCFile ones are what c084951
// computes over the same trees with their value-bitmap sidecar directories
// left out: the build stopped writing them, and nothing else on disk moved.
// The kv and stats hashes were re-recorded twice. When the GFUValue became
// binary the pair bytes changed and, with them, BuildStats.IndexBytes —
// TestBuildGoldenMovedAsDescribed holds the move to exactly that. When the
// sidecars and byte-budget row groups went, three metadata entries and the
// three puts that stored them went too —
// TestBuildGoldenRetiredMetaMovedAsDescribed holds that move. The RCFile
// files hashes were re-recorded twice. When the column statistics side files
// began storing typed, delta-coded zone maps, goldenColStatsV3 kept the ones
// recorded before, and TestBuildGoldenColStatsMovedAsDescribed holds the
// move to the side files' new spelling of the same statistics. When the
// "_groups" side files were deleted, goldenGroups kept the ones recorded
// before, and TestBuildGoldenGroupsMovedAsDescribed holds that move. When
// bigint, timestamp and double columns began to pack, goldenUnpacked kept
// the ones recorded before, and TestBuildGoldenPackedMovedAsDescribed holds
// the move to the packed column bodies and their side files.
var golden = map[storage.Format][3]goldenStage{
	storage.TextFile: {
		{"98de789083c0dd254aadc5b1fc43ab078ff0b86f2cc04b8d932cf74d4c819c2a", "012a6b11901ac728978f34dcc56ef363d7dbef5e5f78fbf9cb8a10bf9b573d01", "df9281ff92951a4ac5067093aa61b00af1073188f0f39dfa937d1433ef54a8f4"},
		{"d9d80d20ae78a650942a3709822de0c038f9201cc028d8b448e468a239c31f84", "1dcff1387e071809c628136cfd0ddc155d8460d2e8befcd582b334682662d1a1", "d2cd8f3fce9921dd7f230a247b927bcd2eb63afd01dae9e2a66518b0ee5257db"},
		{"f85022300fe458041dc526ba7db7553bee348069617f664699f335b64a16841d", "7f533632bc7c079242aadff56b191b3e55c37dfdeb1c278a4a96a72c010ce6ec", "51e62bfe74353a084b1ed4748a9a0a11a203db330d54fddeb86e8dce87b3ed29"},
	},
	storage.RCFile: {
		{"2436aeff90a773b4d04f8b4b823c9b2127421023d0c9dfd2c7d4e084abc9ac99", "5fda56345050425761865854b5c3b0e050d671e8a8fe05c0b4efff4fabf74d1a", "9b85930bc91ab15e5460e21c5de4641817b4c6489bd461d52172a94768e49696"},
		{"f2eb394ce17f460dbc74593d37682b0a8e474f5418ec40a1d4d8838ab5d80f1b", "3b8403fb55c8661bc83f39de20b8a03647acedc1c25dff5a30722e68fb16e629", "4b8e91e3a43dfd5f97a94471b94725f89c811506055af0bc2b5dc6bf93c57306"},
		{"e39be797cdaa19f2212a817ec5a3438daca3d7aee0f529640ba0d78cec9553ed", "e4fd0ee68511e948ef3ec4f304f8650f01135ecc8f7eb7573647906fc59aace5", "82501e65c555b4e039f93c6bcdc5be93ded84013dfcca663d07d080dfba21096"},
	},
}

// goldenUnpacked holds the RCFile files hashes recorded while every column
// body was text.
var goldenUnpacked = [3]string{
	"b73ebd452aa0c984fbaf62b81d2a1d064c5c183203d94af4034cbd9d2eb1ff70",
	"318b84f3dce763288202c332549889df8ab7afdec22f02982534752a9bd084f2",
	"25c5d1947b86942a7a73fbe8ffa86271c604e079ab64becc2ce12bf0faa9e494",
}

// goldenGroups holds the RCFile files hashes recorded while every data file
// had a "_groups" side file holding its row-group offsets.
var goldenGroups = [3]string{
	"581c780b8a51c2d94abb87577e033737912d308a55e4fe65a53f26f0ccda12f7",
	"3a25ef844d9454e963d1a67ce0337229beb61d10b0a3e6d7be7590310e949469",
	"d1ebb1ebd6f685f045661ee97049ceca3dfd37df23312aca4d8043366248aa85",
}

// goldenColStatsV3 holds the RCFile files hashes recorded while every
// "_colstats" side file was a version 3 stream, its zone bounds stored as
// text, and every data file had a "_groups" side file.
var goldenColStatsV3 = [3]string{
	"3d5ba9f19beb045ce3f5f4b67feaa4969b9493b9c4da60cc5879f7013bbf3169",
	"1dd190142aaf345abdee82abc9a9dd0ad1a455ec8b1977179569feea720c9031",
	"2813a1b67db9b4d4bfea43698cf13d6a793e137d7d304ee4ca5e84006d240859",
}

// goldenRetiredMeta holds the kv and stats hashes c084951 recorded, with the
// three metadata entries still stored.
var goldenRetiredMeta = map[storage.Format][3]goldenStage{
	storage.TextFile: {
		{kv: "5ee1768161008d35e8fe5aa82f7648dbdc7db7e8be95c5dad4fca8d0ca34129a", stats: "12ca76c21bce485c18764fd03f352e7ff4e889b7b4a3fbfee2b5ca66e089ea87"},
		{kv: "bb9190e292c371195a56845f990dcbac3a21ed6bc3d6d635f98790e737c08a9a", stats: "4cbb7c62fed3da47f6f919286e94bd4daab54b12b0876dd07826ed858399436a"},
		{kv: "bfe1ede97c238737f7971c3f48b0f9adeaf0a8c0e5c240753eb1d6858f9420a7", stats: "73e721f0d59fbaf656c32ebc5e645487ef10f4067fcaf5e0c7d2e15a3e48b3e9"},
	},
	storage.RCFile: {
		{kv: "4a9c3c0ee12550404c2114e36037e96d6be19bb47f6f348077676d46c8a7f019", stats: "a8e57267e732c55c7e8a278964b4449f4a7e798f16ed40070da54feff6410f6a"},
		{kv: "50c3f5489c77dbee383c005e7bc3bd90fd9e832a68b139521c36ad8f27eaaf8b", stats: "4a704401c13f7894f95bc5e120f9056cef85df64fdcce231a1ee1bbcafd78862"},
		{kv: "97c42677696ee4c91c72204fa3d9cb263ec1ef9ba9355029fd6dd3c248fc9347", stats: "37c2bd0c208a614ecacf9927a16a3ae815f30336f4cd86bb4f52763914de9ca8"},
	},
}

// goldenText holds the kv and stats hashes the text-form GFUValue produced
// (recorded at fe95d05, unchanged until the binary codec).
var goldenText = map[storage.Format][3]goldenStage{
	storage.TextFile: {
		{kv: "2088ff2f111d03e92bb8141f5839235c6c750cddacd91d1d247ae74b6ccb6d7a", stats: "af8c7b27e7549cd5ce3a21931cd92484896770b32e63c6c13705e82d46e97b05"},
		{kv: "b7f08e8c39b5e62ef8da11a83ddba65109ee893b94cd987357c99bdb6030e580", stats: "e0baeb11b23dd55ca00c50720a671e3e3abd7c4b23c756a8133e69fb3d452051"},
		{kv: "d856c37944a4441fe27b49e5ef17cb5543700d8d27c7ab0929cdeb644ccd67c0", stats: "3aaff7691c890f2dd8fde6e88d5deb8ce70eb3e962ef8e42ea62c2d7ce8ef418"},
	},
	storage.RCFile: {
		{kv: "a63f7871f2d5865c4efb3dbdcf7e07608a55e8e5a28d5d07a88da51988aba332", stats: "cf5bf35e31e1690512babe8f30a2e19cf54a1b5e79ad586924fa0063b9e4f41c"},
		{kv: "5d151dc89745f218399fb49218618bf14db5effbeade1947b453026ac28b2ded", stats: "1f563095c22c6f9c0f528ac6a0f3804aae146d66cb8bd5de2b86f3bf7721a407"},
		{kv: "f647e04c6c1e1aa0f6db076e8f354e16a1ec318dd56db49c071882b244977b58", stats: "688b8755f51b6035fe61658b7c6e53fe864a35263fb3c95681a6f5eec3e8ac12"},
	},
}

// goldenBuild runs the pinned sequence for one source format — a build over
// 24,000 readings, ten more readings of every user, sixty fresh users — and
// calls record after each stage.
func goldenBuild(t *testing.T, format storage.Format, record func(stage int, ix *Index, stats *BuildStats)) {
	t.Helper()
	fs := goldenInputs(t, format)
	ix, stats, err := Build(testCfg(), fs, kvstore.New(), goldenSpec(), goldenSchema(), goldenSource(format), "/tbl_dgf")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Job.Splits < 8 {
		t.Fatalf("build read %d splits, want at least 8", stats.Job.Splits)
	}
	record(0, ix, stats)
	for i, file := range goldenAppends {
		stats, err := ix.Append(testCfg(), []string{file})
		if err != nil {
			t.Fatal(err)
		}
		record(i+1, ix, stats)
	}
}

// goldenAppends are the staged files the two append stages read: ten more
// readings (two and a half fresh days), then sixty fresh users over the
// first day.
var goldenAppends = []string{"/staging/later", "/staging/newusers"}

// goldenSource is the base table the golden build reads.
func goldenSource(format storage.Format) Source {
	return Source{Dir: "/tbl", Format: format, GroupRows: 16}
}

// goldenInputs writes the golden sequence's base table and staged files into
// a fresh filesystem.
func goldenInputs(t *testing.T, format storage.Format) *dfs.FS {
	t.Helper()
	// 64 KB blocks cut both sources into well over eight splits.
	fs := dfs.New(1 << 16)
	schema := goldenSchema()
	rows := goldenRows(0, goldenUsers, 0, goldenReadings)
	if len(rows) < 20000 {
		t.Fatalf("only %d rows", len(rows))
	}
	var err error
	if format == storage.RCFile {
		_, err = storage.WriteRCRows(fs, "/tbl/data", schema, rows, 128)
	} else {
		err = storage.WriteTextRows(fs, "/tbl/data", rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteTextRows(fs, goldenAppends[0], goldenRows(0, goldenUsers, goldenReadings, goldenReadings+10)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteTextRows(fs, goldenAppends[1], goldenRows(goldenUsers, goldenUsers+60, 0, 4)); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestBuildGolden(t *testing.T) {
	for _, format := range []storage.Format{storage.TextFile, storage.RCFile} {
		t.Run(format.String(), func(t *testing.T) {
			var got [3]goldenStage
			var rendered [3]string
			goldenBuild(t, format, func(i int, ix *Index, stats *BuildStats) {
				rendered[i] = renderStats(stats)
				got[i] = goldenStage{files: hashTree(t, ix.FS, "/tbl_dgf"), kv: hashKV(ix.KV.ScanPrefix("")), stats: hashString(rendered[i])}
				checkSliceTiling(t, ix)
			})
			want, ok := golden[format]
			if !ok {
				for i, g := range got {
					t.Logf("stage %d: {%q, %q, %q}", i, g.files, g.kv, g.stats)
					t.Logf("stage %d stats: %s", i, rendered[i])
				}
				t.Fatalf("no golden hashes recorded for %v", format)
			}
			for i, stage := range goldenStages {
				if got[i].files != want[i].files {
					t.Errorf("%s: data files and sidecars hash to %s, want %s", stage, got[i].files, want[i].files)
				}
				if got[i].kv != want[i].kv {
					t.Errorf("%s: key-value pairs hash to %s, want %s", stage, got[i].kv, want[i].kv)
				}
				if got[i].stats != want[i].stats {
					t.Errorf("%s: BuildStats hash to %s, want %s\n%s", stage, got[i].stats, want[i].stats, rendered[i])
				}
			}
		})
	}
}

// retiredMeta is what c084951 stored for the golden spec under the three
// metadata keys the value-bitmap sidecars and byte-budget row groups used.
var retiredMeta = []kvstore.Pair{
	{Key: "meta/bitmapcols", Value: []byte("vendor")},
	{Key: "meta/bitmapdisabled", Value: []byte{}},
	{Key: "meta/groupbytes", Value: []byte("0")},
}

// withRetiredMeta returns the store's pairs as c084951 left them: with
// retiredMeta put back, in key order.
func withRetiredMeta(pairs []kvstore.Pair) []kvstore.Pair {
	out := append(append([]kvstore.Pair(nil), pairs...), retiredMeta...)
	slices.SortFunc(out, func(a, b kvstore.Pair) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// retiredStatsField is the last field c084951's BuildStats printed: the
// overflowed sidecar columns, always empty on the golden data.
const retiredStatsField = "BitmapDisabled:[]"

// renderStatsWithRetiredMeta renders the BuildStats as c084951 did: with
// KVSimSeconds charged for the run's gets and puts plus the puts that stored
// retiredMeta, and ending in retiredStatsField. run holds the store
// operations the stage made; the build makes no scans, so gets and puts are
// its whole store cost.
func renderStatsWithRetiredMeta(t *testing.T, s *BuildStats, run kvstore.Stats) string {
	t.Helper()
	kvSec := func(gets, puts int64) float64 {
		return testCfg().Price(&cluster.Ledger{KV: cluster.KVOps{Gets: gets, Puts: puts}}).KV
	}
	if got, want := s.KVSimSeconds, kvSec(run.Gets, run.Puts); got != want {
		t.Fatalf("KVSimSeconds %v, but %d gets and %d puts cost %v", got, run.Gets, run.Puts, want)
	}
	c := *s
	c.KVSimSeconds = kvSec(run.Gets, run.Puts+int64(len(retiredMeta)))
	r := renderStats(&c)
	return r[:len(r)-1] + " " + retiredStatsField + "}"
}

// goldenBuildRuns is goldenBuild that also hands record the store operations
// each stage made. Only the stages get and put; record's own reads are scans.
func goldenBuildRuns(t *testing.T, format storage.Format, record func(stage int, ix *Index, stats *BuildStats, run kvstore.Stats)) {
	t.Helper()
	var prev kvstore.Stats
	goldenBuild(t, format, func(i int, ix *Index, stats *BuildStats) {
		now := ix.KV.Stats()
		record(i, ix, stats, now.Sub(prev))
		prev = ix.KV.Stats()
	})
}

// TestBuildGoldenRetiredMetaMovedAsDescribed bounds the re-recording of
// golden's kv and stats hashes when the value-bitmap sidecars and
// byte-budget row groups were removed. The index stopped storing three
// metadata entries, and saveMeta stopped making the three puts that stored
// them. With the entries put back, the store hashes to what c084951
// recorded, so every GFU pair and every other metadata entry is unchanged.
// With KVSimSeconds recharged for those three puts and the retired field
// restored, BuildStats hashes to its recording too, so Entries, IndexBytes
// and every Job field are unchanged.
func TestBuildGoldenRetiredMetaMovedAsDescribed(t *testing.T) {
	for _, format := range []storage.Format{storage.TextFile, storage.RCFile} {
		t.Run(format.String(), func(t *testing.T) {
			goldenBuildRuns(t, format, func(i int, ix *Index, stats *BuildStats, run kvstore.Stats) {
				want := goldenRetiredMeta[format][i]
				if got := hashKV(withRetiredMeta(ix.KV.ScanPrefix(""))); got != want.kv {
					t.Errorf("%s: with the retired metadata put back the store hashes to %s, c084951's hashed to %s", goldenStages[i], got, want.kv)
				}
				rendered := renderStatsWithRetiredMeta(t, stats, run)
				if got := hashString(rendered); got != want.stats {
					t.Errorf("%s: recharged for the retired puts the BuildStats hash to %s, c084951's hashed to %s\n%s", goldenStages[i], got, want.stats, rendered)
				}
			})
		})
	}
}

// TestBuildGoldenMovedAsDescribed bounds what re-recording golden's kv and
// stats hashes for the binary GFUValue let through. With the retired
// metadata put back as TestBuildGoldenRetiredMetaMovedAsDescribed does, and
// every GFUValue decoded and rendered back in the text form (textGFUValue),
// the store hashes to what the text codec stored — so every key, every
// metadata entry and every pair's header and SliceLocs are what they were;
// and with IndexBytes swapped for the size of that rendering, BuildStats
// hashes to the old recording — so Entries, every Job field and KVSimSeconds
// did not move. What did move, the size of the pairs, falls to about half
// (the golden index stores four float64 pre-computes a pair; the keys stay
// text).
func TestBuildGoldenMovedAsDescribed(t *testing.T) {
	for _, format := range []storage.Format{storage.TextFile, storage.RCFile} {
		t.Run(format.String(), func(t *testing.T) {
			goldenBuildRuns(t, format, func(i int, ix *Index, stats *BuildStats, run kvstore.Stats) {
				pairs := withRetiredMeta(ix.KV.ScanPrefix(""))
				var textBytes int64
				for pi, p := range pairs {
					if !strings.HasPrefix(p.Key, gfuPrefix) {
						continue
					}
					v, err := ix.DecodeGFUValue(p.Value)
					if err != nil {
						t.Fatalf("%s: %s: %v", goldenStages[i], p.Key, err)
					}
					pairs[pi].Value = textGFUValue(v)
					textBytes += int64(len(p.Key) + len(pairs[pi].Value))
				}
				if got, want := hashKV(pairs), goldenText[format][i].kv; got != want {
					t.Errorf("%s: with values rendered as text the store hashes to %s, the text codec's hashed to %s", goldenStages[i], got, want)
				}
				asText := *stats
				asText.IndexBytes = textBytes
				rendered := renderStatsWithRetiredMeta(t, &asText, run)
				if got, want := hashString(rendered), goldenText[format][i].stats; got != want {
					t.Errorf("%s: with IndexBytes %d the BuildStats hash to %s, the text codec's hashed to %s\n%s",
						goldenStages[i], textBytes, got, want, rendered)
				}
				if 100*stats.IndexBytes >= 55*textBytes {
					t.Errorf("%s: IndexBytes %d, %d as text: want under 55%%", goldenStages[i], stats.IndexBytes, textBytes)
				}
			})
		})
	}
}

// TestBuildGoldenPackedMovedAsDescribed bounds the re-recording of the
// RCFile files hashes when bigint, timestamp and double columns began to
// pack. With every RCFile written again with no column packed
// (storage.HiveRCFile), the trees hash to what was recorded before: so
// every other byte of every data file, every text body, row count, Hive
// length, encoding tag and zone bound is what it was, and each file is as
// long as the bytes the meter charges for it. The kv and stats hashes —
// every GFU pair, so every slice address, and every simulated second — did
// not move at all.
func TestBuildGoldenPackedMovedAsDescribed(t *testing.T) {
	goldenBuild(t, storage.RCFile, func(i int, ix *Index, _ *BuildStats) {
		if got, want := hashTree(t, hiveFS(t, ix.FS, "/tbl_dgf"), "/tbl_dgf"), goldenUnpacked[i]; got != want {
			t.Errorf("%s: with no column packed the files hash to %s, they hashed to %s", goldenStages[i], got, want)
		}
	})
}

// TestBuildGoldenColStatsMovedAsDescribed bounds the re-recording of the
// RCFile files hashes when the column statistics became typed and
// delta-coded. With the files written with no column packed as
// TestBuildGoldenPackedMovedAsDescribed does, every "_colstats" side file
// read back and written again as the version 3 stream (v3ColStats), and the
// "_groups" side files written back as TestBuildGoldenGroupsMovedAsDescribed
// does, the trees hash to what was recorded before: so every data file,
// group index, row count, column length, encoding tag and zone bound is what
// it was, and only the side files' spelling moved. The kv and stats hashes
// did not move at all.
func TestBuildGoldenColStatsMovedAsDescribed(t *testing.T) {
	goldenBuild(t, storage.RCFile, func(i int, ix *Index, _ *BuildStats) {
		fs := hiveFS(t, ix.FS, "/tbl_dgf")
		files := withGroupIndexes(t, fs, treeFiles(t, fs, "/tbl_dgf"))
		for path := range files {
			dataPath, ok := strings.CutPrefix(path, "/tbl_dgf/_colstats/")
			if !ok {
				continue
			}
			stats, err := storage.ReadColStats(fs, "/tbl_dgf/"+dataPath)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = v3ColStats(t, stats)
		}
		if got, want := hashFiles(files), goldenColStatsV3[i]; got != want {
			t.Errorf("%s: with the column statistics written as version 3 the files hash to %s, version 3 hashed to %s", goldenStages[i], got, want)
		}
	})
}

// TestBuildGoldenGroupsMovedAsDescribed bounds the re-recording of the
// RCFile files hashes when the "_groups" side files were deleted and the
// row-group offsets came from the column statistics instead. With a
// "_groups/<base>" file written back beside every data file, from the
// offsets ReadGroupIndex derives, in the old encoding, the trees hash to
// what was recorded before: so every data file and every "_colstats" file
// is what it was, the derived offsets are the ones the deleted files held,
// and only those files went. The files are those written with no column
// packed, as TestBuildGoldenPackedMovedAsDescribed has them.
func TestBuildGoldenGroupsMovedAsDescribed(t *testing.T) {
	goldenBuild(t, storage.RCFile, func(i int, ix *Index, _ *BuildStats) {
		fs := hiveFS(t, ix.FS, "/tbl_dgf")
		if got, want := hashFiles(withGroupIndexes(t, fs, treeFiles(t, fs, "/tbl_dgf"))), goldenGroups[i]; got != want {
			t.Errorf("%s: with the group index files written back the files hash to %s, they hashed to %s", goldenStages[i], got, want)
		}
	})
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
