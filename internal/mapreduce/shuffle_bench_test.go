package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkShuffle is the shuffle's layer number, in the shape of one
// benchmark shard's DGFIndex build: 30 map tasks (one a day) each emit 5,000
// values of about 35 bytes over 550 keys of their own — 150,000 pairs over
// 16,500 keys — to 64 reduce tasks whose ReduceTask reads every value. The
// map side only emits pre-rendered pairs, so the number is the engine's:
// the emits' copies, grouping, sorting and delivery. It reports ns/pair and
// allocs/pair and fails above budget allocs/pair.
func BenchmarkShuffle(b *testing.B) {
	const (
		days, rowsPerDay, reducers = 30, 5000, 64
		budget                     = 0.04
	)
	in := &pairInput{splits: make([][]pair, days)}
	rng := uint64(7)
	for day := range in.splits {
		keys := make([]string, 0, 550)
		for region := 1; region <= 11; region++ {
			for interval := 0; interval < 50; interval++ {
				keys = append(keys, fmt.Sprintf("%d_%d_%d", region, interval*400+1, 1354320000+day*86400))
			}
		}
		for i := 0; i < rowsPerDay; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			user := int(rng>>33) % 20000
			region := user%11 + 1
			value := fmt.Sprintf("%d\t%d\t2012-12-%02d\t%d.%02d", user, region, day+1, rng>>40%1000, rng>>50%100)
			key := keys[(region-1)*50+user/400]
			in.splits[day] = append(in.splits[day], pair{Key: key, Value: []byte(value)})
		}
	}
	var sink atomic.Int64
	job := &Job{Name: "shuffle", Input: in, NewMapper: in.newMapper, NumReducers: reducers,
		ReduceTask: func(task int, groups []Group, emit Emit) error {
			n := 0
			for _, g := range groups {
				for _, v := range g.Values {
					n += int(v[len(v)-1])
				}
			}
			sink.Add(int64(n))
			return nil
		}}
	var allocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		stats, err := RunContext(context.Background(), testCfg(), job)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		if stats.ShufflePairs != days*rowsPerDay {
			b.Fatalf("%d pairs shuffled, want %d", stats.ShufflePairs, days*rowsPerDay)
		}
	}
	pairs := float64(b.N) * days * rowsPerDay
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
	b.ReportMetric(float64(allocs)/pairs, "allocs/pair")
	if perPair := float64(allocs) / pairs; perPair > budget {
		b.Errorf("the shuffle allocates %.3f times per pair, budget %.3f", perPair, budget)
	}
}
