// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, driving the same experiment code as cmd/dgfbench.
// Every benchmark reports the experiment's simulated cluster seconds for its
// headline systems as custom metrics, so `go test -bench=.` regenerates the
// paper-vs-measured comparison end to end. Run cmd/dgfbench for the full
// formatted tables at larger scales.
package dgfindex_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
	"github.com/smartgrid-oss/dgfindex/internal/bench"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *bench.Env
)

// env builds the shared experiment environment once per binary.
func env(b *testing.B) *bench.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale := bench.TestScale()
		if testing.Short() {
			scale = bench.SmallScale()
		}
		benchEnv = bench.NewEnv(scale)
	})
	return benchEnv
}

// runExperiment executes one registered experiment b.N times and surfaces
// chosen cells as benchmark metrics.
func runExperiment(b *testing.B, id string, metrics map[string][2]interface{}) {
	b.Helper()
	e := env(b)
	exp, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var rep *bench.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = exp.Run(e)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
	b.StopTimer()
	for name, sel := range metrics {
		row, col := sel[0].(string), sel[1].(int)
		v, ok := lookupCell(rep, row, col)
		if ok {
			b.ReportMetric(v, name)
		}
	}
}

// lookupCell finds a numeric cell by row label and column index.
func lookupCell(rep *bench.Report, rowLabel string, col int) (float64, bool) {
	for _, row := range rep.Rows {
		if row[0] != rowLabel || col >= len(row) {
			continue
		}
		s := row[col]
		for _, suffix := range []string{"x", "s", "GB", "MB", "KB", "B", "M", "k"} {
			s = strings.TrimSuffix(s, suffix)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

func BenchmarkFig3WriteThroughput(b *testing.B) {
	runExperiment(b, "fig3", map[string][2]interface{}{
		"hdfs-MBps":      {"HDFS", 1},
		"dbms-idx-MBps":  {"DBMS-X with index", 1},
		"dbms-noix-MBps": {"DBMS-X without index", 1},
	})
}

func BenchmarkTab2IndexBuild(b *testing.B) {
	runExperiment(b, "tab2", map[string][2]interface{}{
		"compact3-build-s": {"Compact", 4},
		"dgf-m-build-s":    {"DGF-M", 4},
	})
}

func BenchmarkTab3RecordsAggregation(b *testing.B) {
	runExperiment(b, "tab3", nil)
}

func BenchmarkFig8AggPoint(b *testing.B) {
	runExperiment(b, "fig8", map[string][2]interface{}{
		"scan-s":     {"ScanTable", 3},
		"dgf-m-s":    {"DGF-medium", 3},
		"compact-s":  {"Compact-2D", 3},
		"hadoopdb-s": {"HadoopDB", 3},
	})
}

func BenchmarkFig9Agg5Pct(b *testing.B) {
	runExperiment(b, "fig9", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
		"compact-s": {"Compact-2D", 3}, "hadoopdb-s": {"HadoopDB", 3},
	})
}

func BenchmarkFig10Agg12Pct(b *testing.B) {
	runExperiment(b, "fig10", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
		"compact-s": {"Compact-2D", 3}, "hadoopdb-s": {"HadoopDB", 3},
	})
}

func BenchmarkTab4RecordsGroupBy(b *testing.B) {
	runExperiment(b, "tab4", nil)
}

func BenchmarkFig11GroupByPoint(b *testing.B) {
	runExperiment(b, "fig11", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
	})
}

func BenchmarkFig12GroupBy5Pct(b *testing.B) {
	runExperiment(b, "fig12", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
	})
}

func BenchmarkFig13GroupBy12Pct(b *testing.B) {
	runExperiment(b, "fig13", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
	})
}

func BenchmarkFig14JoinPoint(b *testing.B) {
	runExperiment(b, "fig14", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
	})
}

func BenchmarkFig15Join5Pct(b *testing.B) {
	runExperiment(b, "fig15", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
	})
}

func BenchmarkFig16Join12Pct(b *testing.B) {
	runExperiment(b, "fig16", map[string][2]interface{}{
		"scan-s": {"ScanTable", 3}, "dgf-m-s": {"DGF-medium", 3},
	})
}

func BenchmarkFig17PartialQuery(b *testing.B) {
	runExperiment(b, "fig17", map[string][2]interface{}{
		"compact-s": {"Compact-2D", 4},
	})
}

func BenchmarkTab5TPCHIndexBuild(b *testing.B) {
	runExperiment(b, "tab5", map[string][2]interface{}{
		"dgf-build-s": {"DGFIndex", 4},
	})
}

func BenchmarkTab6TPCHRecords(b *testing.B) {
	runExperiment(b, "tab6", nil)
}

func BenchmarkFig18TPCHQ6(b *testing.B) {
	runExperiment(b, "fig18", map[string][2]interface{}{
		"scan-s":     {"ScanTable", 3},
		"dgf-s":      {"DGFIndex", 3},
		"compact2-s": {"Compact-2D", 3},
		"compact3-s": {"Compact-3D", 3},
	})
}

func BenchmarkNameNodePartitions(b *testing.B) {
	runExperiment(b, "namenode", nil)
}

func BenchmarkAblationPrecompute(b *testing.B) {
	runExperiment(b, "ablation-precompute", nil)
}

func BenchmarkAblationSliceSkip(b *testing.B) {
	runExperiment(b, "ablation-sliceskip", nil)
}

func BenchmarkAblationKVStore(b *testing.B) {
	runExperiment(b, "ablation-kvstore", nil)
}

// BenchmarkConcurrentThroughput measures DGFServe's serving throughput: a
// fixed batch of smart-grid range queries is replayed through the server at
// 1 worker (serial baseline, measured once) and at 8 workers (the timed
// loop). Queries bypass the result cache so the speedup isolates the worker
// pool; pacing holds each worker slot for the query's simulated cluster
// time, modelling the paper's shared 29-node cluster. Reported metrics:
//
//	speedup-8w    batch-time ratio serial/parallel (expect > 2)
//	queries/sec   parallel serving throughput
//	cache-hits    result-cache hits from a repeated identical query (> 0)
func BenchmarkConcurrentThroughput(b *testing.B) {
	const pacing = time.Millisecond // wall time per simulated cluster-second
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = 300
	cfg.OtherMetrics = 0
	w := dgfindex.New()
	if _, err := w.Exec(`CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`); err != nil {
		b.Fatal(err)
	}
	tbl, err := w.Table("meterdata")
	if err != nil {
		b.Fatal(err)
	}
	if err := w.LoadRows(tbl, cfg.AllRows()); err != nil {
		b.Fatal(err)
	}
	if _, err := w.Exec(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_10',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`); err != nil {
		b.Fatal(err)
	}

	var batch []string
	for _, frac := range []float64{0.001, 0.01, 0.05, 0.12} {
		q := "SELECT sum(powerConsumed) FROM meterdata WHERE " + cfg.Selective(frac).WhereClause()
		for j := 0; j < 8; j++ {
			batch = append(batch, q)
		}
	}

	runBatch := func(srv *dgfindex.Server, clients int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(batch); i += clients {
					if _, err := srv.Query(context.Background(), dgfindex.QueryRequest{
						SQL:     batch[i],
						Session: fmt.Sprintf("bench-%d", c),
						NoCache: true,
					}); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}

	serialSrv := dgfindex.NewServer(w, dgfindex.ServerConfig{MaxConcurrent: 1, SimPacing: pacing})
	t0 := time.Now()
	runBatch(serialSrv, 1)
	serialDur := time.Since(t0)

	parSrv := dgfindex.NewServer(w, dgfindex.ServerConfig{MaxConcurrent: 8, SimPacing: pacing})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(parSrv, 8)
	}
	b.StopTimer()
	parDur := b.Elapsed() / time.Duration(b.N)
	if parDur > 0 {
		b.ReportMetric(serialDur.Seconds()/parDur.Seconds(), "speedup-8w")
		b.ReportMetric(float64(len(batch))/parDur.Seconds(), "queries/sec")
	}

	// Result cache: a repeated identical query must hit and return the same
	// rows; the hit count surfaces as a metric.
	cacheSrv := dgfindex.NewServer(w, dgfindex.ServerConfig{})
	first, err := cacheSrv.Query(context.Background(), dgfindex.QueryRequest{SQL: batch[0]})
	if err != nil {
		b.Fatal(err)
	}
	again, err := cacheSrv.Query(context.Background(), dgfindex.QueryRequest{SQL: batch[0]})
	if err != nil {
		b.Fatal(err)
	}
	if !again.Cached || first.Result.Rows[0][0] != again.Result.Rows[0][0] {
		b.Fatalf("repeated query not served from cache (cached=%v)", again.Cached)
	}
	b.ReportMetric(float64(cacheSrv.Stats().ResultCache.Hits), "cache-hits")
}

// BenchmarkRCFileSliceRead compares the byte volume of the same index-guided
// aggregation over a TextFile table and an RCFile table. The RCFile path
// opens only the row groups the GridFile selected and fetches only the two
// referenced columns' payloads, so it must read strictly fewer bytes than
// the TextFile slice read; the benchmark fails if it does not. Reported
// metrics: text-bytes, rc-bytes, and their ratio.
func BenchmarkRCFileSliceRead(b *testing.B) {
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = 200
	cfg.OtherMetrics = 0

	mk := func(stored string) *dgfindex.Warehouse {
		w := dgfindex.New()
		if _, err := w.Exec(`CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS ` + stored); err != nil {
			b.Fatal(err)
		}
		tbl, err := w.Table("meterdata")
		if err != nil {
			b.Fatal(err)
		}
		tbl.RowGroupRows = 64
		if err := w.LoadRows(tbl, cfg.AllRows()); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Exec(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
			AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_20',
			'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`); err != nil {
			b.Fatal(err)
		}
		return w
	}
	textW := mk("TEXTFILE")
	rcW := mk("RCFILE")

	// References only userId + powerConsumed — half the meter schema — so
	// the RCFile reader skips the regionId and ts payloads entirely.
	query := "SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 20 AND userId <= 120"

	var textBytes, rcBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textRes, err := textW.Exec(query)
		if err != nil {
			b.Fatal(err)
		}
		rcRes, err := rcW.Exec(query)
		if err != nil {
			b.Fatal(err)
		}
		textBytes, rcBytes = textRes.Stats.BytesRead, rcRes.Stats.BytesRead
		if textRes.Rows[0][0].F != rcRes.Rows[0][0].F {
			b.Fatalf("results differ: %v vs %v", textRes.Rows[0][0].F, rcRes.Rows[0][0].F)
		}
		if rcBytes >= textBytes {
			b.Fatalf("RCFile index-guided read fetched %d bytes, TextFile %d — projection saved nothing", rcBytes, textBytes)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(textBytes), "text-bytes")
	b.ReportMetric(float64(rcBytes), "rc-bytes")
	if rcBytes > 0 {
		b.ReportMetric(float64(textBytes)/float64(rcBytes), "text/rc-ratio")
	}
}

// BenchmarkShardedThroughput measures what scatter-gather buys: the same
// scan-heavy meter workload is served by DGFServe over a 1-shard backend
// (the baseline, measured once) and over a 4-shard fleet (the timed loop),
// both with 8 parallel clients, result caching off, and pacing modelling
// the shared cluster. The cluster model is scaled (as cmd/dgfserver scales
// it) so each full scan spans many map waves: sharding then cuts every
// query's simulated time to the slowest shard's share, and the reported
// speedup-4shards is expected to exceed 1.5x.
func BenchmarkShardedThroughput(b *testing.B) {
	const pacing = 2 * time.Millisecond // wall time per simulated cluster-second
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = 100
	cfg.OtherMetrics = 0

	mkBackend := func(shards int) dgfindex.Backend {
		// ~90 KB of generated rows modelled as a ~70 GB table: full scans
		// cost ~8 map waves on the 140-slot cluster, so a 4-shard fan-out
		// has real waves to win back.
		cc := dgfindex.DefaultCluster().Scaled(800000)
		router, err := dgfindex.NewShardedWithConfig(dgfindex.ShardConfig{Shards: shards, Key: "userId"}, cc, 2<<20)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := router.ExecContext(context.Background(), `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, dgfindex.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, err := router.LoadRowsDurable(context.Background(), "meterdata", cfg.AllRows(), false); err != nil {
			b.Fatal(err)
		}
		return router
	}

	var batch []string
	for j := 0; j < 8; j++ {
		batch = append(batch,
			`SELECT sum(powerConsumed) FROM meterdata`,
			`SELECT count(*), avg(powerConsumed) FROM meterdata WHERE regionId >= 2`,
			`SELECT regionId, sum(powerConsumed) FROM meterdata GROUP BY regionId`,
			"SELECT sum(powerConsumed) FROM meterdata WHERE "+cfg.Selective(0.5).WhereClause(),
		)
	}

	runBatch := func(srv *dgfindex.Server, clients int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(batch); i += clients {
					if _, err := srv.Query(context.Background(), dgfindex.QueryRequest{
						SQL:     batch[i],
						Session: fmt.Sprintf("bench-%d", c),
						NoCache: true,
					}); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}

	oneSrv := dgfindex.NewServerWithBackend(mkBackend(1), dgfindex.ServerConfig{MaxConcurrent: 8, SimPacing: pacing})
	t0 := time.Now()
	runBatch(oneSrv, 8)
	oneShardDur := time.Since(t0)

	fourSrv := dgfindex.NewServerWithBackend(mkBackend(4), dgfindex.ServerConfig{MaxConcurrent: 8, SimPacing: pacing})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch(fourSrv, 8)
	}
	b.StopTimer()
	fourShardDur := b.Elapsed() / time.Duration(b.N)
	if fourShardDur > 0 {
		b.ReportMetric(oneShardDur.Seconds()/fourShardDur.Seconds(), "speedup-4shards")
		b.ReportMetric(float64(len(batch))/fourShardDur.Seconds(), "queries/sec")
	}
}
