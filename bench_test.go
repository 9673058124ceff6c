// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, driving the same experiment code as cmd/dgfbench.
// Every benchmark reports the experiment's simulated cluster seconds for its
// headline systems as custom metrics, so `go test -bench=.` regenerates the
// paper-vs-measured comparison end to end. Run cmd/dgfbench for the full
// formatted tables at larger scales.
package dgfindex_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

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
