package wal

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// benchRecordRows is one shard's slice of a 2,000-row meter load on a
// 4-shard fleet.
const benchRecordRows = 500

// meterRows returns n rows shaped like one shard's slice of a meter load:
// distinct users from one 2,000-user block in arrival order, each user's
// region, the batch's one timestamp, and a reading at 0.01 resolution.
func meterRows(n int) []storage.Row {
	rng := rand.New(rand.NewSource(1))
	users := rng.Perm(2000)
	rows := make([]storage.Row, n)
	for i := range rows {
		u := int64(users[i%len(users)] + 1)
		rows[i] = storage.Row{
			storage.Int64(u),
			storage.Int64(u%11 + 1),
			storage.TimeUnix(1356998400),
			storage.Float64(float64(rng.Intn(100000)) / 100),
		}
	}
	return rows
}

// discardStore applies nothing: a commit's cost without the warehouse.
type discardStore struct{}

func (discardStore) LoadRowsByName(string, []storage.Row) error { return nil }

func fileSize(b *testing.B, path string) int64 {
	b.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return fi.Size()
}

// BenchmarkLogAppend: Log.Append of one meter record without fsync, the
// log's share of wal.append_us_per_record.
func BenchmarkLogAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "append.wal")
	l, _, err := OpenLog(path)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close(PolicyOff)
	rec := Record{Table: "meterdata", Rows: meterRows(benchRecordRows)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.LSN++
		if err := l.Append(rec, PolicyOff); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fileSize(b, path))/float64(b.N*benchRecordRows), "bytes/row")
	if a := testing.AllocsPerRun(20, func() {
		rec.LSN++
		if err := l.Append(rec, PolicyOff); err != nil {
			b.Fatal(err)
		}
	}); a != 0 {
		b.Fatalf("Log.Append allocates %.0f times; the log reuses its frame buffer", a)
	}
}

// BenchmarkCommit: Engine.Commit of one meter record on a two-replica shard
// over stores that drop the rows — the log's share of an ack: one frame
// appended to the shard's one log, queued on both replicas.
func BenchmarkCommit(b *testing.B) {
	dir := b.TempDir()
	e, err := Open(Options{Dir: dir, Fsync: PolicyOff}, [][]Store{{discardStore{}, discardStore{}}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	rows := meterRows(benchRecordRows)
	commit := func() {
		if _, err := e.Commit(ctx, 0, "meterdata", rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit()
	}
	b.StopTimer()
	if err := e.Drain(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fileSize(b, filepath.Join(dir, "shard-000", shardLogName)))/float64(b.N*benchRecordRows), "bytes/row")
	// With the appliers parked on their first batch, a commit allocates
	// nothing of its own: one frame, encoded into the shard log's buffer.
	gate := make(chan struct{})
	parked, err := Open(Options{Dir: b.TempDir(), Fsync: PolicyOff}, [][]Store{{dropStore{gate}, dropStore{gate}}})
	if err != nil {
		b.Fatal(err)
	}
	a := testing.AllocsPerRun(50, func() {
		if _, err := parked.Commit(ctx, 0, "meterdata", rows); err != nil {
			b.Fatal(err)
		}
	})
	close(gate)
	if err := parked.Close(); err != nil {
		b.Fatal(err)
	}
	if a != 0 {
		b.Fatalf("Commit allocates %.0f times a record; it encodes into the shard log's frame buffer", a)
	}
}

// BenchmarkReplay: OpenLog over a log of 200 meter records, as a restart
// replays it.
func BenchmarkReplay(b *testing.B) {
	const records = 200
	path := filepath.Join(b.TempDir(), "replay.wal")
	l, _, err := OpenLog(path)
	if err != nil {
		b.Fatal(err)
	}
	rows := meterRows(benchRecordRows)
	for lsn := uint64(1); lsn <= records; lsn++ {
		if err := l.Append(Record{LSN: lsn, Table: "meterdata", Rows: rows}, PolicyOff); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(PolicyOff); err != nil {
		b.Fatal(err)
	}
	replay := func() {
		l, recs, err := OpenLog(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != records {
			b.Fatalf("replayed %d records, want %d", len(recs), records)
		}
		l.Close(PolicyOff)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*records*benchRecordRows)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(fileSize(b, path))/(records*benchRecordRows), "bytes/row")
	// Per record: its cell arena, its row slice, its table name and the
	// growth of the record slice; per replay a few for the file.
	if a := testing.AllocsPerRun(5, replay); a > 4*records+16 {
		b.Fatalf("a replay of %d records allocates %.0f times; budget %d", records, a, 4*records+16)
	}
}
