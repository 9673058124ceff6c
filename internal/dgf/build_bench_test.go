package dgf

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// The build's layer number: one shard of the serving benchmark's meter
// table, 150,000 rows loaded as 30 daily files of 5,000 (20,000 users over
// four shards), indexed on (regionId, userId, ts) with sum and count
// pre-computed, like the benchmark's CREATE INDEX. BenchmarkBuildSmall is
// too small to attribute a change to the build.
const (
	shardUsers = 5000
	shardDays  = 30
	shardRows  = shardUsers * shardDays
)

var shardSources = struct {
	sync.Mutex
	byFormat map[storage.Format]*dfs.FS
}{byFormat: map[storage.Format]*dfs.FS{}}

// shardSource writes the shard's daily files under /tbl in the given format
// once per process; every build reads them and writes elsewhere.
func shardSource(b *testing.B, format storage.Format) *dfs.FS {
	shardSources.Lock()
	defer shardSources.Unlock()
	if fs, ok := shardSources.byFormat[format]; ok {
		return fs
	}
	fs := dfs.New(1 << 20)
	rng := splitmix64(7)
	order := make([]int64, shardUsers)
	rows := make([]storage.Row, shardUsers)
	for day := 0; day < shardDays; day++ {
		// Users arrive in a fresh random order every day, as loads do.
		for i := range order {
			order[i] = int64(4*i + 1)
		}
		for i := len(order) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		for i, user := range order {
			rows[i] = storage.Row{
				storage.Int64(user),
				storage.Int64(user%11 + 1),
				storage.TimeUnix(goldenDay0 + int64(day)*24*3600),
				storage.Float64(float64(rng.next()%100000) / 100),
			}
		}
		path := fmt.Sprintf("/tbl/day-%02d", day)
		var err error
		if format == storage.RCFile {
			_, err = storage.WriteRCRows(fs, path, meterSchema(), rows, 0)
		} else {
			err = storage.WriteTextRows(fs, path, rows)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	shardSources.byFormat[format] = fs
	return fs
}

func meterSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "userId", Kind: storage.KindInt64},
		storage.Column{Name: "regionId", Kind: storage.KindInt64},
		storage.Column{Name: "ts", Kind: storage.KindTime},
		storage.Column{Name: "powerConsumed", Kind: storage.KindFloat64},
	)
}

// benchmarkBuildShard reports the build's ns/row and allocs/row and fails
// above budget allocs/row. It measures 0.15 allocs/row over TextFile and 0.18
// over RCFile, and about 300 and 520 ns/row on 2 cores. In the same session
// the build that rendered each GFUKey by growing a fresh buffer, looked each
// row's cell up by string and allocated every group's header, column sizes
// and encoded bodies on its own measured 0.71 and 1.17 allocs/row and about
// 355 and 645 ns/row; RCFile measured 2.28 allocs/row while zone bounds were
// rendered as text, and TextFile and RCFile 1.83 and 3.39 before each row's
// text work was done once.
func benchmarkBuildShard(b *testing.B, format storage.Format, budget float64) {
	fs := shardSource(b, format)
	spec, err := ParseIdxProperties("idx", []string{"regionId", "userId", "ts"}, meterSchema(), map[string]string{
		"regionId": "1_1", "userId": "1_400", "ts": "2012-12-01_1d", "precompute": "sum(powerConsumed);count(*)",
	})
	if err != nil {
		b.Fatal(err)
	}
	var allocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, _, err := Build(testCfg(), fs, kvstore.New(), spec, meterSchema(), Source{Dir: "/tbl", Format: format}, "/idx"); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		b.StopTimer()
		if err := fs.RemoveAll("/idx"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	rows := float64(b.N) * shardRows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(allocs)/rows, "allocs/row")
	if perRow := float64(allocs) / rows; perRow > budget {
		b.Errorf("%v build allocates %.2f times per row, budget %.2f", format, perRow, budget)
	}
}

func BenchmarkBuildShardText(b *testing.B)   { benchmarkBuildShard(b, storage.TextFile, 0.25) }
func BenchmarkBuildShardRCFile(b *testing.B) { benchmarkBuildShard(b, storage.RCFile, 0.3) }
