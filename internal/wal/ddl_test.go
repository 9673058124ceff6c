package wal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// ddlStore is a memStore that also applies DDL records: it keeps every
// applied record in order, as "load <table>" or the statement text, and
// fails the statements named in failDDL.
type ddlStore struct {
	memStore
	mu      sync.Mutex
	ops     []string
	failDDL map[string]bool
}

func (d *ddlStore) LoadRowsByName(table string, rows []storage.Row) error {
	if err := d.memStore.LoadRowsByName(table, rows); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ops = append(d.ops, "load "+table)
	return nil
}

func (d *ddlStore) ApplyDDL(text string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failDDL[text] {
		return "", fmt.Errorf("cannot %s", text)
	}
	d.ops = append(d.ops, text)
	return "did " + text, nil
}

func (d *ddlStore) applied() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.ops)
}

// TestWALDDLRecordEncoding: a DDL record is a zero-row record followed by its
// text, and round-trips; a load record of no rows still ends after its row
// count. The decoder refuses empty text, text cut short and bytes after it.
func TestWALDDLRecordEncoding(t *testing.T) {
	rec := Record{LSN: 9, Table: "t", DDL: "CREATE TABLE t (a bigint)"}
	p := encodePayload(nil, rec)
	load := encodePayload(nil, Record{LSN: 9, Table: "t"})
	if !bytes.Equal(p[:len(load)], load) || !bytes.Equal(p[len(load):], append([]byte{byte(len(rec.DDL))}, rec.DDL...)) {
		t.Fatalf("DDL payload %x is not the zero-row load payload %x plus its text", p, load)
	}
	if got, err := decodePayload(p); err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, rec)
	}
	for what, bad := range map[string][]byte{
		"empty text":     append(slices.Clone(load), 0),
		"text cut short": p[:len(p)-3],
		"trailing bytes": append(slices.Clone(p), 'x'),
	} {
		if got, err := decodePayload(bad); err == nil {
			t.Errorf("%s: decoded as %+v", what, got)
		}
	}
}

// TestWALDDLAppliesInLogOrder: a shard's applier applies DDL records and
// loads in LSN order on every store of the shard, answers each DDL record on
// its channel with the first store's message, and answers a DDL record that
// fails with its error and goes on to the next record. A store that cannot
// apply DDL fails the record.
func TestWALDDLAppliesInLogOrder(t *testing.T) {
	stores := []*ddlStore{{failDDL: map[string]bool{"DROP TABLE nope": true}}, {}}
	e, err := Open(Options{}, [][]Store{{stores[0], stores[1]}, {&memStore{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	ddl := func(shard int, text string) DDLResult {
		t.Helper()
		_, done, err := e.Append(ctx, shard, Record{Table: "t", DDL: text})
		if err != nil {
			t.Fatal(err)
		}
		return <-done
	}
	if res := ddl(0, "CREATE TABLE t"); res.Err != nil || res.Message != "did CREATE TABLE t" {
		t.Fatalf("CREATE TABLE t: %+v", res)
	}
	if _, err := e.Commit(ctx, 0, "t", testRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	if res := ddl(0, "DROP TABLE nope"); res.Err == nil || !strings.Contains(res.Err.Error(), "cannot DROP TABLE nope") {
		t.Fatalf("failing DDL answered %+v, want its error", res)
	}
	lsn, err := e.Commit(ctx, 0, "t", testRows(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WaitApplied(ctx, 0, lsn); err != nil {
		t.Fatalf("the applier did not go on after a failed DDL record: %v", err)
	}
	want := []string{"CREATE TABLE t", "load t", "load t"}
	if got := stores[0].applied(); !slices.Equal(got, want) {
		t.Fatalf("store 0 applied %q, want %q", got, want)
	}
	if got := stores[1].applied(); !slices.Equal(got, []string{"CREATE TABLE t", "load t", "DROP TABLE nope", "load t"}) {
		t.Fatalf("store 1 applied %q", got)
	}
	if st := e.Stats()[0].Replicas[0]; st.AppliedLSN != 4 || st.Stalled != "" {
		t.Fatalf("shard 0 after a failed DDL record: %+v", st)
	}
	if res := ddl(1, "CREATE TABLE t"); res.Err == nil || !strings.Contains(res.Err.Error(), "cannot apply DDL") {
		t.Fatalf("DDL on a store without DDL = %+v, want an error", res)
	}
}

// TestWALDDLRecoversAndRollsForward: behind a directory DDL records replay
// with the loads, in log order, and RecoveredDDL lists them. A statement
// that reached only some shards' logs — a crash between its appends — is
// appended to the others' at Open; logs whose DDL disagrees elsewhere fail
// the open, naming the shard, and leave the files alone.
func TestWALDDLRecoversAndRollsForward(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Engine, []*ddlStore, error) {
		stores := []*ddlStore{{}, {}}
		e, err := Open(Options{Dir: dir, Fsync: PolicyOff}, [][]Store{{stores[0]}, {stores[1]}})
		return e, stores, err
	}
	e, _, err := open()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for si := range 2 {
		if _, _, err := e.Append(ctx, si, Record{Table: "t", DDL: "CREATE TABLE t"}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Commit(ctx, si, "t", testRows(si*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := e.Append(ctx, 0, Record{Table: "u", DDL: "CREATE TABLE u"}); err != nil { // shard 1 never gets it
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, stores, err := open()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.RecoveredDDL(); !slices.Equal(got, []string{"CREATE TABLE t", "CREATE TABLE u"}) {
		t.Fatalf("RecoveredDDL = %q", got)
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for si, st := range stores {
		if got := st.applied(); !slices.Equal(got, []string{"CREATE TABLE t", "load t", "CREATE TABLE u"}) {
			t.Fatalf("shard %d replayed %q", si, got)
		}
	}
	if got := e.Stats()[1].NextLSN; got != 4 {
		t.Fatalf("shard 1's next LSN after the roll-forward = %d, want 4", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Shard 1's log now holds a different statement where shard 0's holds
	// CREATE TABLE u.
	path := filepath.Join(dir, "shard-001", shardLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := scanRecords(bytes.NewReader(data))
	if err != nil || len(recs) != 3 {
		t.Fatalf("shard 1's log: %d records, %v", len(recs), err)
	}
	var forged []byte
	for _, rec := range recs[:2] {
		forged = encodeFrame(forged, rec)
	}
	forged = encodeFrame(forged, Record{LSN: 3, Table: "v", DDL: "CREATE TABLE v"})
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := open(); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Open over logs that disagree on DDL = %v, want an error naming shard 1", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, forged) {
		t.Fatal("a refused Open rewrote the log")
	}
}

// TestWALDDLAnsweredWhenEngineCloses: a DDL record the engine closes over
// before applying it is answered with an error, not left waiting.
func TestWALDDLAnsweredWhenEngineCloses(t *testing.T) {
	gate := make(chan struct{})
	e, err := Open(Options{}, [][]Store{{&memStore{gate: gate}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit(context.Background(), 0, "t", testRows(0, 1)); err != nil {
		t.Fatal(err)
	}
	_, done, err := e.Append(context.Background(), 0, Record{Table: "t", DDL: "DROP TABLE t"})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	for shut := false; !shut; { // release the parked load only once Close has begun
		e.mu.Lock()
		shut = e.closed
		e.mu.Unlock()
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if res := <-done; res.Err == nil || !strings.Contains(res.Err.Error(), "engine closed") {
		t.Fatalf("DDL record the engine closed over = %+v, want an engine-closed error", res)
	}
}
