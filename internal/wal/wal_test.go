package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

func testRows(base int, n int) []storage.Row {
	rows := make([]storage.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, storage.Row{
			storage.Int64(int64(base + i)),
			storage.Float64(float64(base+i) * 1.5),
			storage.Str(fmt.Sprintf("meter-%d", base+i)),
			storage.TimeUnix(int64(1_400_000_000 + base + i)),
		})
	}
	return rows
}

func TestWALRecordRoundTrip(t *testing.T) {
	rec := Record{LSN: 42, Table: "meter", Rows: testRows(7, 5)}
	frame := encodeFrame(nil, rec)
	recs, off, err := scanRecords(bytesReader(frame))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if off != int64(len(frame)) {
		t.Fatalf("offset %d, want %d", off, len(frame))
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
		t.Fatalf("round trip mismatch: %+v", recs)
	}
}

func bytesReader(b []byte) *os.File {
	f, err := os.CreateTemp("", "walframe")
	if err != nil {
		panic(err)
	}
	os.Remove(f.Name())
	f.Write(b)
	f.Seek(0, 0)
	return f
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, recs, err := OpenLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	for lsn := uint64(1); lsn <= 3; lsn++ {
		if err := l.Append(Record{LSN: lsn, Table: "meter", Rows: testRows(int(lsn)*10, 2)}, PolicyAlways); err != nil {
			t.Fatalf("append %d: %v", lsn, err)
		}
	}
	l.Close(PolicyOff)

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record at an arbitrary byte inside its payload, then
	// verify recovery keeps exactly the first two records — for every
	// possible cut point.
	recsAll, _, _ := scanRecords(bytesReader(full))
	if len(recsAll) != 3 {
		t.Fatalf("sanity: %d records", len(recsAll))
	}
	thirdStart := 0
	for i := 0; i < 2; i++ {
		n := int(uint32(full[thirdStart]) | uint32(full[thirdStart+1])<<8 | uint32(full[thirdStart+2])<<16 | uint32(full[thirdStart+3])<<24)
		thirdStart += frameHeaderLen + n
	}
	for cut := thirdStart + 1; cut < len(full); cut += 7 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs2, err := OpenLog(path)
		if err != nil {
			t.Fatalf("reopen cut=%d: %v", cut, err)
		}
		if len(recs2) != 2 || recs2[1].LSN != 2 {
			t.Fatalf("cut=%d: recovered %d records", cut, len(recs2))
		}
		if fi, _ := os.Stat(path); fi.Size() != int64(thirdStart) {
			t.Fatalf("cut=%d: torn tail not truncated (size %d, want %d)", cut, fi.Size(), thirdStart)
		}
		// Appends after recovery must produce a readable log again.
		if err := l2.Append(Record{LSN: 3, Table: "meter", Rows: testRows(99, 1)}, PolicyAlways); err != nil {
			t.Fatalf("cut=%d: re-append: %v", cut, err)
		}
		l2.Close(PolicyOff)
		_, recs3, err := OpenLog(path)
		if err != nil || len(recs3) != 3 {
			t.Fatalf("cut=%d: after re-append got %d records, err %v", cut, len(recs3), err)
		}
	}
}

func TestWALCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _, _ := OpenLog(path)
	for lsn := uint64(1); lsn <= 3; lsn++ {
		l.Append(Record{LSN: lsn, Table: "meter", Rows: testRows(int(lsn), 1)}, PolicyOff)
	}
	l.Close(PolicyOff)
	data, _ := os.ReadFile(path)
	data[frameHeaderLen+3] ^= 0xff // flip a byte inside record 1's payload
	os.WriteFile(path, data, 0o644)
	_, recs, err := OpenLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("corrupt first record should stop replay, got %d records", len(recs))
	}
}

// TestWALUndecodableRecordRefusesLog: a frame whose checksum holds but
// whose body does not decode is no torn write — a format mismatch or a bug.
// OpenLog must fail naming the file, the frame's offset and its LSN, and
// leave the log as it was: truncating there would destroy acknowledged
// records 2 and 3.
func TestWALUndecodableRecordRefusesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for lsn := uint64(1); lsn <= 3; lsn++ {
		recs = append(recs, Record{LSN: lsn, Table: "meter", Rows: testRows(int(lsn)*10, 2)})
		if err := l.Append(recs[lsn-1], PolicyOff); err != nil {
			t.Fatal(err)
		}
	}
	l.Close(PolicyOff)

	// Record 2 gains a trailing byte, and a checksum to match.
	payload := append(encodePayload(nil, recs[1]), 0)
	data := encodeFrame(nil, recs[0])
	second := len(data)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
	data = append(data, payload...)
	data = encodeFrame(data, recs[2])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, got, err := OpenLog(path)
	if err == nil {
		t.Fatalf("OpenLog accepted a log with an undecodable record and returned %d records", len(got))
	}
	for _, want := range []string{path, fmt.Sprintf("byte %d", second), "lsn 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("refused log was rewritten: %d bytes, want %d (%v)", len(after), len(data), err)
	}

	// ScanFrom decodes only the records it returns: from past record 2 the
	// log reads on, from before it the same refusal.
	lg := &Log{path: path}
	if tail, err := lg.ScanFrom(2); err != nil || len(tail) != 1 || tail[0].LSN != 3 {
		t.Fatalf("ScanFrom(2) = %d records, %v; want record 3", len(tail), err)
	}
	if _, err := lg.ScanFrom(1); err == nil || !strings.Contains(err.Error(), "lsn 2") {
		t.Fatalf("ScanFrom(1) = %v, want the undecodable record 2", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"": PolicyInterval, "interval": PolicyInterval, "always": PolicyAlways, "off": PolicyOff} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// memStore is a Store that records applies and can fail on demand.
type memStore struct {
	mu     sync.Mutex
	rows   []storage.Row
	tables []string
	fail   bool
}

func (m *memStore) LoadRowsByName(table string, rows []storage.Row) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return fmt.Errorf("store down")
	}
	m.rows = append(m.rows, rows...)
	m.tables = append(m.tables, table)
	return nil
}

func (m *memStore) snapshot() []storage.Row {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]storage.Row(nil), m.rows...)
}

func (m *memStore) setFail(v bool) {
	m.mu.Lock()
	m.fail = v
	m.mu.Unlock()
}

func openTestEngine(t *testing.T, dir string, shards, reps int, opts Options) (*Engine, [][]*memStore) {
	t.Helper()
	stores := make([][]*memStore, shards)
	ifaces := make([][]Store, shards)
	for s := range stores {
		for r := 0; r < reps; r++ {
			ms := &memStore{}
			stores[s] = append(stores[s], ms)
			ifaces[s] = append(ifaces[s], ms)
		}
	}
	opts.Dir = dir
	e, err := Open(opts, ifaces)
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	return e, stores
}

func TestWALEngineAppliesInOrder(t *testing.T) {
	dir := t.TempDir()
	e, stores := openTestEngine(t, dir, 1, 2, Options{Fsync: PolicyOff})
	ctx := context.Background()
	var want []storage.Row
	for i := 0; i < 20; i++ {
		rows := testRows(i*100, 3)
		want = append(want, rows...)
		lsn, err := e.Commit(ctx, 0, "meter", rows)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for ri, ms := range stores[0] {
		if got := ms.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d applied %d rows out of order (want %d)", ri, len(got), len(want))
		}
	}
	st := e.Stats()
	if st[0].Replicas[0].AppliedLSN != 20 || st[0].Replicas[0].PendingRecords != 0 {
		t.Fatalf("stats: %+v", st[0].Replicas[0])
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestWALHintedHandoffAndCatchUp(t *testing.T) {
	dir := t.TempDir()
	e, stores := openTestEngine(t, dir, 1, 2, Options{Fsync: PolicyOff})
	ctx := context.Background()
	commit := func(base int) {
		t.Helper()
		if _, err := e.Commit(ctx, 0, "meter", testRows(base, 2)); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	commit(0)
	if err := e.WaitApplied(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	e.MarkDown(0, 1)
	commit(100)
	commit(200)
	st := e.Stats()
	if h := st[0].Replicas[1].HintedRecords; h != 2 {
		t.Fatalf("hinted = %d, want 2", h)
	}
	done := make(chan struct{})
	e.CatchUp(0, 1, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("catch-up never completed")
	}
	commit(300)
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	a, b := stores[0][0].snapshot(), stores[0][1].snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replicas diverged after catch-up: %d vs %d rows", len(a), len(b))
	}
	st = e.Stats()
	r1 := st[0].Replicas[1]
	if r1.CatchingUp || r1.ReplayedRows != 4 || r1.HintedRecords != 0 {
		t.Fatalf("post-catchup stats: %+v", r1)
	}
	e.Close()
}

func TestWALCommitFailsWithNoLiveReplica(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTestEngine(t, dir, 1, 2, Options{Fsync: PolicyOff})
	e.MarkDown(0, 0)
	e.MarkDown(0, 1)
	if _, err := e.Commit(context.Background(), 0, "meter", testRows(0, 1)); err == nil {
		t.Fatal("commit with every replica down should fail")
	}
	e.Close()
}

func TestWALRecoveryReplaysLoggedRecords(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTestEngine(t, dir, 2, 2, Options{Fsync: PolicyAlways})
	ctx := context.Background()
	var want0, want1 []storage.Row
	for i := 0; i < 10; i++ {
		r0, r1 := testRows(i*10, 2), testRows(1000+i*10, 3)
		want0, want1 = append(want0, r0...), append(want1, r1...)
		if _, err := e.Commit(ctx, 0, "meter", r0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Commit(ctx, 1, "meter", r1); err != nil {
			t.Fatal(err)
		}
	}
	// Hard-stop mid-apply: appliers may or may not have drained anything.
	e.Abort()

	// Reopen over fresh (empty) stores, as after a process restart: every
	// logged record must replay, bit-identically, in order.
	e2, stores2 := openTestEngine(t, dir, 2, 2, Options{Fsync: PolicyOff})
	if err := e2.Drain(ctx); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}
	for si, want := range [][]storage.Row{want0, want1} {
		for ri, ms := range stores2[si] {
			if got := ms.snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shard %d replica %d: replay mismatch (%d rows, want %d)", si, ri, len(got), len(want))
			}
		}
	}
	st := e2.Stats()
	if st[0].NextLSN != 11 {
		t.Fatalf("recovered next LSN %d, want 11", st[0].NextLSN)
	}
	if rr := st[0].Replicas[0].ReplayedRows; rr != int64(len(want0)) {
		t.Fatalf("replayed rows %d, want %d", rr, len(want0))
	}
	e2.Close()
}

// TestWALOneLogPerShard: behind a directory each shard keeps one log, and a
// commit writes its frame once whatever the replica count. A replica that
// was down replays what it missed from that log, so after catch-up the
// three stores are identical.
func TestWALOneLogPerShard(t *testing.T) {
	dir := t.TempDir()
	e, stores := openTestEngine(t, dir, 2, 3, Options{Fsync: PolicyOff})
	ctx := context.Background()
	var frames [2]int
	missedRows := 0
	for i := 1; i <= 10; i++ {
		if i == 4 {
			if err := e.WaitApplied(ctx, 0, 3); err != nil {
				t.Fatal(err)
			}
			e.MarkDown(0, 2)
		}
		if i == 8 {
			if h := e.Stats()[0].Replicas[2].HintedRecords; h != 4 {
				t.Fatalf("replica 2 is owed %d records, want 4", h)
			}
			done := make(chan struct{})
			e.CatchUp(0, 2, func() { close(done) })
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("catch-up never completed: %+v", e.Stats()[0])
			}
		}
		for si := range frames {
			rows := testRows(si*1000+i*10, 1+i%3)
			lsn, err := e.Commit(ctx, si, "meter", rows)
			if err != nil {
				t.Fatalf("shard %d commit %d: %v", si, i, err)
			}
			frames[si] += len(encodeFrame(nil, Record{LSN: lsn, Table: "meter", Rows: rows}))
			if si == 0 && i >= 4 && i <= 7 {
				missedRows += len(rows)
			}
		}
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for si, want := range frames {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", si))
		files, err := os.ReadDir(shardDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 {
			t.Fatalf("shard %d directory holds %d files, want its one log", si, len(files))
		}
		if fi, err := os.Stat(filepath.Join(shardDir, files[0].Name())); err != nil || fi.Size() != int64(want) {
			t.Fatalf("shard %d log: %v, %v; want %d bytes, one frame per commit", si, fi, err, want)
		}
		for ri, ms := range stores[si][1:] {
			if !reflect.DeepEqual(ms.snapshot(), stores[si][0].snapshot()) {
				t.Fatalf("shard %d replica %d differs from replica 0 after catch-up", si, ri+1)
			}
		}
	}
	if r2 := e.Stats()[0].Replicas[2]; r2.ReplayedRows != int64(missedRows) || r2.HintedRecords != 0 {
		t.Fatalf("caught-up replica: %+v; want %d replayed rows and nothing owed", r2, missedRows)
	}
	e.Close()
}

// TestWALLogFailureIsSticky: a write the shard log refuses fails the commit
// with ErrNoLiveReplica, consumes no LSN and queues nothing, and the log
// refuses every later append — even once its file could take writes again —
// so no acknowledged record lands behind a partial frame. A reopen holds
// exactly the acknowledged records.
func TestWALLogFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTestEngine(t, dir, 1, 2, Options{Fsync: PolicyAlways})
	ctx := context.Background()
	var acked []Record
	for i := 1; i <= 3; i++ {
		rows := testRows(i*10, 2)
		lsn, err := e.Commit(ctx, 0, "meter", rows)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, Record{LSN: lsn, Table: "meter", Rows: rows})
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-000", shardLogName)
	l := e.shards[0].log
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()

	before := e.Stats()[0]
	if _, err := e.Commit(ctx, 0, "meter", testRows(100, 1)); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("commit onto a failed log = %v, want ErrNoLiveReplica", err)
	}
	// Give the log a working descriptor: it must still refuse.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.f = f
	l.mu.Unlock()
	if _, err := e.Commit(ctx, 0, "meter", testRows(200, 1)); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("commit after a log failure = %v, want ErrNoLiveReplica", err)
	}
	if after := e.Stats()[0]; !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused commit moved the engine:\nbefore %+v\nafter  %+v", before, after)
	}
	e.Abort()

	rl, got, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rl.Close(PolicyOff)
	if !reflect.DeepEqual(got, acked) {
		t.Fatalf("reopened log holds %d records, want the %d acknowledged", len(got), len(acked))
	}
}

// TestWALOpenRefusesStrayLog: a shard directory holding a log besides the
// shard's own — a per-replica log of the old layout, possibly longer than
// the shard log — fails Open naming it, before any file is opened, so
// nothing is created or truncated.
func TestWALOpenRefusesStrayLog(t *testing.T) {
	dir := t.TempDir()
	e, _ := openTestEngine(t, dir, 2, 1, Options{Fsync: PolicyOff})
	for si := 0; si < 2; si++ {
		if _, err := e.Commit(context.Background(), si, "meter", testRows(si*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	// A torn tail on shard 0's log, which an open would truncate, and a
	// stray log next to shard 1's.
	shard0 := filepath.Join(dir, "shard-000", shardLogName)
	data, err := os.ReadFile(shard0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard0, append(data, 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "shard-001", "replica-1.wal")
	if err := os.WriteFile(stray, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				b, rerr := os.ReadFile(p)
				files[p] = string(b)
				err = rerr
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	was := snapshot()
	if _, err := Open(Options{Dir: dir}, [][]Store{{&memStore{}}, {&memStore{}}}); err == nil || !strings.Contains(err.Error(), stray) {
		t.Fatalf("Open over a stray log = %v, want an error naming %s", err, stray)
	}
	if now := snapshot(); !reflect.DeepEqual(now, was) {
		t.Fatal("a refused Open changed the directory")
	}
}

func TestWALApplyErrorRetriesWithoutLoss(t *testing.T) {
	dir := t.TempDir()
	e, stores := openTestEngine(t, dir, 1, 1, Options{Fsync: PolicyOff})
	ctx := context.Background()
	stores[0][0].setFail(true)
	if _, err := e.Commit(ctx, 0, "meter", testRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := e.Stats()[0].Replicas[0]
		if st.Stalled != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall never surfaced in stats")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stores[0][0].setFail(false)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := stores[0][0].snapshot(); len(got) != 2 {
		t.Fatalf("rows lost across retry: %d", len(got))
	}
	if st := e.Stats()[0].Replicas[0]; st.Stalled != "" {
		t.Fatalf("stall not cleared: %+v", st)
	}
	e.Close()
}

func TestWALSyncAckWaitsForApply(t *testing.T) {
	dir := t.TempDir()
	e, stores := openTestEngine(t, dir, 1, 2, Options{Fsync: PolicyOff})
	ctx := context.Background()
	lsn, err := e.Commit(ctx, 0, "meter", testRows(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WaitApplied(ctx, 0, lsn); err != nil {
		t.Fatal(err)
	}
	for _, ms := range stores[0] {
		if len(ms.snapshot()) != 4 {
			t.Fatal("sync ack returned before apply")
		}
	}
	// A cancelled context must abort the wait, not hang.
	e.MarkDown(0, 1)
	stores[0][0].setFail(true)
	if _, err := e.Commit(ctx, 0, "meter", testRows(10, 1)); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := e.WaitApplied(cctx, 0, 2); err == nil {
		t.Fatal("wait should fail on context timeout")
	}
	stores[0][0].setFail(false)
	e.Close()
}

func TestWALBackpressureRespectsContext(t *testing.T) {
	dir := t.TempDir()
	e, stores := openTestEngine(t, dir, 1, 1, Options{Fsync: PolicyOff, MaxPendingRows: 4})
	ctx := context.Background()
	stores[0][0].setFail(true)
	for i := 0; i < 2; i++ {
		if _, err := e.Commit(ctx, 0, "meter", testRows(i*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := e.Commit(cctx, 0, "meter", testRows(100, 2)); err == nil {
		t.Fatal("commit should fail under backpressure with expired context")
	}
	stores[0][0].setFail(false)
	e.Close()
}

// dropStore discards what it is handed; applies park on gate until it closes.
type dropStore struct{ gate chan struct{} }

func (d dropStore) LoadRowsByName(string, []storage.Row) error {
	<-d.gate
	return nil
}

// TestWALApplierReleasesAppliedRows: once a backlog has been applied and
// drained, nothing in the engine still references its rows. The consumed
// prefix of the pending queue used to stay in the queue's backing array — as
// long as the deepest backlog — until a later append reallocated it.
func TestWALApplierReleasesAppliedRows(t *testing.T) {
	gate := make(chan struct{})
	e, err := Open(Options{}, [][]Store{{dropStore{gate}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	var freed atomic.Int64
	const batches = 8
	var last uint64
	for i := 0; i < batches; i++ {
		rows := testRows(i*10, 4)
		runtime.SetFinalizer(&rows[0][0], func(*storage.Value) { freed.Add(1) })
		if last, err = e.Commit(ctx, 0, "meter", rows); err != nil {
			t.Fatal(err)
		}
	}
	close(gate) // the first apply was parked: the other seven queued behind it
	if err := e.WaitApplied(ctx, 0, last); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < batches {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d applied batches are collectable after a drain and a GC; the engine still references the rest", freed.Load(), batches)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWALWithoutDirectory: Options.Dir == "" is the same engine over logs
// that store nothing. Sequencing, appliers, WaitApplied, MarkDown/CatchUp and
// Stats behave as behind a directory; the two consequences of having no log
// are that a commit is refused — before anything is queued — while a replica
// of the shard is down, and that records die with the engine.
func TestWALWithoutDirectory(t *testing.T) {
	stores := [][]*memStore{{{}, {}}}
	e, err := Open(Options{MaxBatchRows: 1}, [][]Store{{stores[0][0], stores[0][1]}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Durable() {
		t.Fatal("an engine without a directory reports itself durable")
	}
	ctx := context.Background()
	lsn, err := e.Commit(ctx, 0, "meter", testRows(0, 3))
	if err != nil || lsn != 1 {
		t.Fatalf("first commit: lsn %d, err %v", lsn, err)
	}
	if err := e.WaitApplied(ctx, 0, lsn); err != nil {
		t.Fatal(err)
	}

	// A record queued on a replica that then goes down waits for it.
	stores[0][1].setFail(true)
	if lsn, err = e.Commit(ctx, 0, "meter", testRows(10, 2)); err != nil {
		t.Fatal(err)
	}
	e.MarkDown(0, 1)
	stores[0][1].setFail(false)
	if err := e.WaitApplied(ctx, 0, lsn); err != nil { // the live replica applied it
		t.Fatal(err)
	}

	// While it is down there is no log to owe it records from: refused, with
	// nothing queued on the survivor and no LSN consumed.
	before := e.Stats()[0]
	if _, err := e.Commit(ctx, 0, "meter", testRows(20, 1)); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("commit with a replica down = %v, want ErrNoLiveReplica", err)
	}
	if after := e.Stats()[0]; !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused commit moved the engine:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := len(stores[0][0].snapshot()); got != 5 {
		t.Fatalf("survivor holds %d rows, want 5", got)
	}

	// Catch-up has nothing to copy; it ends when the replica's own queue
	// has drained, and the record applies exactly once.
	done := make(chan struct{})
	e.CatchUp(0, 1, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("catch-up never finished: %+v", e.Stats())
	}
	if got := stores[0][1].snapshot(); !reflect.DeepEqual(got, stores[0][0].snapshot()) {
		t.Fatalf("revived replica holds %d rows, survivor %d", len(got), len(stores[0][0].snapshot()))
	}
	// A replica that is behind by nothing is back before CatchUp returns.
	e.MarkDown(0, 0)
	back := false
	e.CatchUp(0, 0, func() { back = true })
	if !back {
		t.Fatal("catch-up of a replica with nothing missed and nothing queued did not finish inline")
	}

	// A record the engine closes over is gone, and its waiter is told so.
	stores[0][0].setFail(true)
	stores[0][1].setFail(true)
	if lsn, err = e.Commit(ctx, 0, "meter", testRows(30, 1)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.WaitApplied(ctx, 0, lsn); err == nil {
		t.Fatal("WaitApplied reported a record applied that the closed engine dropped")
	}
}
