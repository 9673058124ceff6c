// BenchmarkIngestThroughput measures what the write-ahead log buys a
// streaming ingest workload: the same stream of micro-batches is pushed
// into two identical 4-shard, 2-replica indexed fleets — one applying every
// load synchronously to both replicas before acknowledging, one acking at
// log-durability speed (interval fsync) with background appliers draining
// the log. The WAL fleet is then drained and both fleets must agree on
// count(*): the speedup is pure ack latency, not dropped work. Results are
// written machine-readably to BENCH_ingest.json at the repository root.
package dgfindex_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// ingestBenchBatches builds the streamed micro-batches: each batch is one
// collection interval of readings across all users, so every batch routes
// rows to every shard and appends to the tail of the index's ts dimension.
func ingestBenchBatches(users, batches int) [][]dgfindex.Row {
	base := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([][]dgfindex.Row, batches)
	for bi := range out {
		rows := make([]dgfindex.Row, users)
		for u := 0; u < users; u++ {
			rows[u] = dgfindex.Row{
				dgfindex.Int64(int64(u + 1)),
				dgfindex.Int64(int64(u%4 + 1)),
				dgfindex.Time(base.Add(time.Duration(bi) * 15 * time.Minute)),
				dgfindex.Float64(float64((bi*31+u*7)%400) * 0.25),
			}
		}
		out[bi] = rows
	}
	return out
}

func BenchmarkIngestThroughput(b *testing.B) {
	const (
		shards   = 4
		replicas = 2
		users    = 300
		batches  = 40
	)
	mkFleet := func() *dgfindex.ShardRouter {
		r, err := dgfindex.NewSharded(dgfindex.ShardConfig{Shards: shards, Replicas: replicas, Key: "userId"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ExecContext(context.Background(), `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, dgfindex.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		cfg := dgfindex.DefaultMeterConfig()
		cfg.Users = users
		cfg.OtherMetrics = 0
		if _, err := r.LoadRowsDurable(context.Background(), "meterdata", cfg.AllRows(), false); err != nil {
			b.Fatal(err)
		}
		if _, err := r.ExecContext(context.Background(), fmt.Sprintf(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
			AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_%d',
			'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, users/50), dgfindex.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		return r
	}
	count := func(r *dgfindex.ShardRouter) int64 {
		b.Helper()
		res, err := r.ExecContext(context.Background(), `SELECT count(*) FROM meterdata`, dgfindex.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return int64(res.Rows[0][0].AsFloat())
	}
	stream := ingestBenchBatches(users, batches)
	warm := ingestBenchBatches(users, 1) // distinct warm-up interval
	ctx := context.Background()

	// Path 1: synchronous replicated loads — each ack waits for both
	// replicas of every touched shard to apply rows and maintain the index.
	syncFleet := mkFleet()
	if _, err := syncFleet.LoadRowsDurable(context.Background(), "meterdata", warm[0], false); err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	for _, batch := range stream {
		if _, err := syncFleet.LoadRowsDurable(context.Background(), "meterdata", batch, false); err != nil {
			b.Fatal(err)
		}
	}
	syncWall := time.Since(t0)

	// Path 2: WAL-acked loads — each ack waits only for the checksummed
	// records to reach every replica's log (interval fsync); appliers drain
	// in the background.
	walFleet := mkFleet()
	if err := walFleet.EnableWAL(wal.Options{Dir: b.TempDir(), Fsync: wal.PolicyInterval}); err != nil {
		b.Fatal(err)
	}
	defer walFleet.CloseWAL()
	if _, err := walFleet.LoadRowsDurable(ctx, "meterdata", warm[0], true); err != nil {
		b.Fatal(err)
	}
	t1 := time.Now()
	for _, batch := range stream {
		if _, err := walFleet.LoadRowsDurable(ctx, "meterdata", batch, false); err != nil {
			b.Fatal(err)
		}
	}
	ackWall := time.Since(t1)
	drainCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := walFleet.DrainWAL(drainCtx); err != nil {
		b.Fatal(err)
	}
	drainWall := time.Since(t1)

	// Every acknowledged row must be queryable on both fleets before the
	// ack-latency comparison means anything.
	if sc, wc := count(syncFleet), count(walFleet); sc != wc {
		b.Fatalf("fleets disagree after drain: sync %d rows, wal %d rows", sc, wc)
	}

	speedup := float64(syncWall) / float64(ackWall)
	if speedup < 2 {
		b.Fatalf("WAL ack speedup %.2fx, want >= 2x (sync %v/batch, ack %v/batch)",
			speedup, syncWall/batches, ackWall/batches)
	}
	rowsStreamed := int64(users * batches)
	out := struct {
		Benchmark      string  `json:"benchmark"`
		Shards         int     `json:"shards"`
		Replicas       int     `json:"replicas"`
		Batches        int     `json:"batches"`
		RowsPerBatch   int     `json:"rows_per_batch"`
		SyncNsPerBatch int64   `json:"sync_ns_per_batch"`
		AckNsPerBatch  int64   `json:"wal_ack_ns_per_batch"`
		AckRowsPerSec  float64 `json:"wal_ack_rows_per_sec"`
		SyncRowsPerSec float64 `json:"sync_rows_per_sec"`
		DrainLagMs     float64 `json:"wal_drain_lag_ms"`
		Speedup        float64 `json:"speedup"`
	}{
		Benchmark:      "BenchmarkIngestThroughput",
		Shards:         shards,
		Replicas:       replicas,
		Batches:        batches,
		RowsPerBatch:   users,
		SyncNsPerBatch: syncWall.Nanoseconds() / batches,
		AckNsPerBatch:  ackWall.Nanoseconds() / batches,
		AckRowsPerSec:  float64(rowsStreamed) / ackWall.Seconds(),
		SyncRowsPerSec: float64(rowsStreamed) / syncWall.Seconds(),
		DrainLagMs:     float64(drainWall-ackWall) / float64(time.Millisecond),
		Speedup:        speedup,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ingest.json", append(data, '\n'), 0644); err != nil {
		b.Fatal(err)
	}

	extra := ingestBenchBatches(users, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := walFleet.LoadRowsDurable(ctx, "meterdata", extra[i], false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(speedup, "ack-speedup-vs-sync")
	b.ReportMetric(float64(rowsStreamed)/ackWall.Seconds(), "acked-rows/s")
}
