package shard

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// countRows answers SELECT count(*) FROM table on r.
func countRows(t *testing.T, r *Router, table string) int {
	t.Helper()
	return int(mustExec(t, r, `SELECT count(*) FROM `+table).Rows[0][0].AsFloat())
}

// TestEnableWALRefusedAfterCommit: once a DDL statement, or a load, has
// committed to a router's engine, EnableWAL — with a directory or without —
// is refused, naming the shard and its next LSN, and touches nothing: the
// directory stays empty and the router goes on serving loads, DDL and
// queries on its engine. A router that has committed nothing takes a
// directory once.
func TestEnableWALRefusedAfterCommit(t *testing.T) {
	rows := []storage.Row{{storage.Int64(1), storage.Float64(1)}, {storage.Int64(2), storage.Float64(2)}}
	for _, commit := range []string{"ddl", "load"} {
		for _, withDir := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dir=%t", commit, withDir), func(t *testing.T) {
				r, err := New(Config{Shards: 2, Replicas: 2, Key: "userId"}, newShardWarehouse)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.CloseWAL() })
				// A replicated table (no userId): its load is a record in
				// every shard's log, after the CREATE TABLE.
				mustExec(t, r, `CREATE TABLE t (id bigint, v double)`)
				next := 2
				if commit == "load" {
					if _, err := r.LoadRowsDurable(context.Background(), "t", rows, true); err != nil {
						t.Fatal(err)
					}
					next = 3
				}
				opts := testWALOptions(t, withDir)
				err = r.EnableWAL(opts)
				if err == nil || !strings.Contains(err.Error(), "refused") || !strings.Contains(err.Error(), fmt.Sprintf("shard 0 has committed (next lsn %d)", next)) {
					t.Fatalf("EnableWAL after a commit = %v, want a refusal naming shard 0 and its next lsn %d", err, next)
				}
				if withDir {
					if entries, err := os.ReadDir(opts.Dir); err != nil || len(entries) != 0 {
						t.Fatalf("a refused EnableWAL wrote into its directory: %v, %v", entries, err)
					}
				}
				ack, err := r.LoadRowsDurable(context.Background(), "t", rows, true)
				if err != nil || ack.Durable || !ack.Applied {
					t.Fatalf("load after the refusal: ack %+v, err %v; want applied on the engine without a directory", ack, err)
				}
				mustExec(t, r, `CREATE TABLE u (userId bigint, v double)`)
				if _, err := r.LoadRowsDurable(context.Background(), "u", rows, true); err != nil {
					t.Fatal(err)
				}
				want := 2
				if commit == "load" {
					want = 4
				}
				if n := countRows(t, r, "t"); n != want {
					t.Fatalf("t holds %d rows, want %d", n, want)
				}
				if n := countRows(t, r, "u"); n != 2 {
					t.Fatalf("u holds %d rows, want 2", n)
				}
			})
		}
	}

	r, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.CloseWAL() })
	enableTestWAL(t, r, t.TempDir())
	if err := r.EnableWAL(wal.Options{Dir: t.TempDir(), Fsync: wal.PolicyOff}); err == nil || !strings.Contains(err.Error(), "already enabled") {
		t.Fatalf("second EnableWAL = %v, want an already-enabled error", err)
	}
}

// TestEnableWALRacesLoads: on a fresh router, loaders that create their
// tables and load into them race EnableWAL with a directory. Either EnableWAL
// ran first, and every acknowledged row is durable and comes back when a
// fresh router replays the directory; or a CREATE TABLE committed first,
// EnableWAL was refused, every acknowledged row is in the router's first
// engine and the directory holds nothing. No row is lost either way.
func TestEnableWALRacesLoads(t *testing.T) {
	const loaders, batches = 3, 5
	outcomes := map[bool]int{}
	for round := 0; round < 8; round++ {
		r, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		start := make(chan struct{})
		var wg sync.WaitGroup
		acked := make([]int, loaders)
		durable := make([]int, loaders)
		errs := make([]error, loaders+1)
		for l := 0; l < loaders; l++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				table := fmt.Sprintf("t%d", l)
				if _, err := exec(r, `CREATE TABLE `+table+` (userId bigint, v double)`); err != nil {
					errs[l] = err
					return
				}
				for b := 0; b < batches; b++ {
					rows := []storage.Row{{storage.Int64(int64(b)), storage.Float64(1)}, {storage.Int64(int64(b + 100)), storage.Float64(2)}}
					ack, err := r.LoadRowsDurable(context.Background(), table, rows, true)
					if err != nil {
						errs[l] = err
						return
					}
					acked[l] += len(rows)
					if ack.Durable {
						durable[l] += len(rows)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Odd rounds let the loaders get ahead, by more in later ones.
			if round%2 == 1 {
				time.Sleep(time.Duration(round) * 50 * time.Microsecond)
			}
			errs[loaders] = r.EnableWAL(wal.Options{Dir: dir, Fsync: wal.PolicyOff})
		}()
		close(start)
		wg.Wait()
		for _, err := range errs[:loaders] {
			if err != nil {
				t.Fatalf("round %d: loader: %v", round, err)
			}
		}
		enabled := errs[loaders] == nil
		if !enabled && !strings.Contains(errs[loaders].Error(), "refused") {
			t.Fatalf("round %d: EnableWAL = %v, want success or a refusal", round, errs[loaders])
		}
		outcomes[enabled]++
		for l := 0; l < loaders; l++ {
			table := fmt.Sprintf("t%d", l)
			if n := countRows(t, r, table); n != acked[l] {
				t.Fatalf("round %d: %s holds %d rows, %d were acknowledged", round, table, n, acked[l])
			}
			if want := map[bool]int{true: acked[l]}[enabled]; durable[l] != want {
				t.Fatalf("round %d (enabled=%t): %d of %s's %d acknowledged rows were durable, want %d", round, enabled, durable[l], table, acked[l], want)
			}
		}
		if err := r.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		if !enabled {
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Fatalf("round %d: a refused EnableWAL wrote into its directory: %v, %v", round, entries, err)
			}
			continue
		}
		again, err := New(Config{Shards: 2, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		enableTestWAL(t, again, dir)
		drainFleet(t, again)
		for l := 0; l < loaders; l++ {
			if table := fmt.Sprintf("t%d", l); countRows(t, again, table) != acked[l] {
				t.Fatalf("round %d: the replayed %s holds %d rows, %d were acknowledged", round, table, countRows(t, again, table), acked[l])
			}
		}
		if err := again.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("EnableWAL ran first in %d rounds and was refused in %d", outcomes[true], outcomes[false])
}

// TestNewRefusesPopulatedWarehouse: a fleet's tables come from its logs, so
// New refuses a warehouse that already holds one, naming the shard and the
// table.
func TestNewRefusesPopulatedWarehouse(t *testing.T) {
	_, err := New(Config{Shards: 2, Key: "userId"}, func(i int) *hive.Warehouse {
		w := newShardWarehouse(i)
		if i == 1 {
			mustExec(t, w, `CREATE TABLE old (userId bigint)`)
		}
		return w
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), `"old"`) {
		t.Fatalf("New over a warehouse holding a table = %v, want a refusal naming shard 1 and the table", err)
	}
}
