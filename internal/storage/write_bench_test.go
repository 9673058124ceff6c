package storage

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

// writeBenchRows is 5,000 meter readings (userId, regionId, ts,
// powerConsumed): 250 users in 8 regions, 20 hourly readings each, whole-cent
// consumption, as the benchmark loads them.
func writeBenchRows() (*Schema, []Row) {
	s := NewSchema(
		Column{"userId", KindInt64},
		Column{"regionId", KindInt64},
		Column{"ts", KindTime},
		Column{"powerConsumed", KindFloat64},
	)
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC).Unix()
	rows := make([]Row, 0, 5000)
	for h := int64(0); h < 20; h++ {
		for u := int64(1); u <= 250; u++ {
			rows = append(rows, Row{Int64(u), Int64(u%8 + 1), TimeUnix(base + h*3600),
				Float64(float64(rng.Intn(300000)) / 100)})
		}
	}
	return s, rows
}

// benchmarkWrite reports write's ns/row and allocs/row over writeBenchRows,
// and fails above budget allocs/row.
func benchmarkWrite(b *testing.B, budget float64, write func(fs *dfs.FS, s *Schema, rows []Row) error) {
	s, rows := writeBenchRows()
	fs := dfs.New(1 << 24)
	var allocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := write(fs, s, rows); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		b.StopTimer()
		if err := fs.RemoveAll("/bench"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	n := float64(b.N) * float64(len(rows))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(allocs)/n, "allocs/row")
	if perRow := float64(allocs) / n; perRow > budget {
		b.Errorf("the write allocates %.3f times per row, budget %.3f", perRow, budget)
	}
}

// BenchmarkTextWrite is the TextFile writer's layer number: one
// WriteTextRows of 5,000 meter rows. It measures about 0.005 allocs/row (the
// file's blocks and the writer's buffer; 185 ns/row on 2 cores, 300 before
// whole cents skipped strconv's shortest-float search) and fails above 0.01.
func BenchmarkTextWrite(b *testing.B) {
	benchmarkWrite(b, 0.01, func(fs *dfs.FS, _ *Schema, rows []Row) error {
		return WriteTextRows(fs, "/bench/part-00000", rows)
	})
}

// BenchmarkRCWrite is the RCFile writer's layer number: one WriteRCRowsOpts
// of 5,000 meter rows in default row groups, column statistics included. It
// measures about 0.036 allocs/row (per file: column buffers, the write batch
// and the zone maps; 0.039 while each group allocated its column sizes and
// encoded bodies) and about 230 ns/row on 2 cores (320 in the same session
// while zone bounds went through Compare and each group was its own file
// write; 470 and 600 in earlier sessions, before and after the whole-cent
// fast path), and fails above 0.05.
func BenchmarkRCWrite(b *testing.B) {
	benchmarkWrite(b, 0.05, func(fs *dfs.FS, s *Schema, rows []Row) error {
		_, err := WriteRCRowsOpts(fs, "/bench/part-00000", s, rows, DefaultRowGroupRows, RCWriteOptions{})
		return err
	})
}
