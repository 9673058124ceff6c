package shard

import (
	"context"
	"errors"
	"fmt"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// EnableWAL turns on durable ingest: every subsequent load appends a
// checksummed record to each replica's append-only log before it is
// acknowledged, background appliers drain the logs into the warehouses
// (running incremental index maintenance at apply time), and Kill/Revive
// switch from fail-fast to hinted handoff with catch-up by log replay.
//
// Call it after the fleet's tables exist: the catalog (DDL) is not logged,
// so on restart tables must be recreated before the engine replays loads.
// Records already in Dir's logs from a previous run are replayed into the
// (fresh, in-memory) warehouses before new loads commit.
func (r *Router) EnableWAL(opts wal.Options) error {
	if r.wal.Load() != nil {
		return fmt.Errorf("shard: WAL already enabled")
	}
	if opts.Dir == "" {
		return fmt.Errorf("shard: wal.Options.Dir is required")
	}
	stores := make([][]wal.Store, len(r.sets))
	for i, rs := range r.sets {
		for _, rep := range rs.reps {
			stores[i] = append(stores[i], rep.w)
		}
	}
	e, err := wal.Open(opts, stores)
	if err != nil {
		return err
	}
	if !r.wal.CompareAndSwap(nil, e) {
		e.Close()
		return fmt.Errorf("shard: WAL already enabled")
	}
	return nil
}

// WALEnabled reports whether EnableWAL has been called.
func (r *Router) WALEnabled() bool { return r.wal.Load() != nil }

// LoadAck describes a durably-acknowledged load.
type LoadAck struct {
	// MaxLSN is the highest log sequence number the load was assigned
	// across the shards it touched.
	MaxLSN uint64
	// Applied is true when the rows were confirmed applied (sync acks, or
	// any load on a fleet without a WAL); false means logged-but-pending.
	Applied bool
	// Shards is how many shards received a non-empty slice of the load.
	Shards int
}

// LoadRowsDurable is the fleet's one load call. With a WAL enabled rows
// route to their shards, each shard's slice commits to its live replicas'
// logs (dead replicas are owed the records via hinted handoff), and the
// call acks at log-durability speed; with sync=true it additionally waits —
// context-bounded — until every live replica of each touched shard has
// applied its slice. Without a WAL it writes every replica of each routed
// shard synchronously (see loadRowsReplicated) and the ack is Applied.
func (r *Router) LoadRowsDurable(ctx context.Context, table string, rows []storage.Row, sync bool) (LoadAck, error) {
	// Validate before writing or logging: a row the table's encoding cannot
	// carry would poison every later read, and a logged record that can
	// never apply would stall its replica's applier forever.
	schema, err := r.TableSchema(table)
	if err != nil {
		return LoadAck{}, err
	}
	for i, row := range rows {
		if len(row) != schema.Len() {
			return LoadAck{}, fmt.Errorf("shard: row %d has %d columns, table %q has %d", i, len(row), table, schema.Len())
		}
		if err := storage.CheckTextRow(row); err != nil {
			return LoadAck{}, fmt.Errorf("shard: row %d of a load into %q: %w", i, table, err)
		}
	}
	e := r.wal.Load()
	if e == nil {
		return LoadAck{Applied: true}, r.loadRowsReplicated(table, rows)
	}
	batches, err := r.loadBatches(table, rows)
	if err != nil {
		return LoadAck{}, err
	}
	var ack LoadAck
	lsns := make([]uint64, len(batches))
	errs := make([]error, len(batches))
	for si, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		ack.Shards++
		lsn, err := e.Commit(ctx, si, table, batch)
		if errors.Is(err, wal.ErrNoLiveReplica) {
			// The same availability failure a read of a fully-dead shard
			// reports, so callers match one sentinel for both.
			err = fmt.Errorf("%w: %w", ErrReplicaDown, err)
		}
		if err != nil {
			errs[si] = err
			continue
		}
		lsns[si] = lsn
		if lsn > ack.MaxLSN {
			ack.MaxLSN = lsn
		}
	}
	if err := fleetOutcome("load", 1, errs); err != nil {
		return ack, err
	}
	if sync {
		for si, lsn := range lsns {
			if lsn == 0 {
				continue
			}
			if err := e.WaitApplied(ctx, si, lsn); err != nil {
				return ack, err
			}
		}
		ack.Applied = true
	}
	return ack, nil
}

// WALStats snapshots the engine's per-shard per-replica log positions (nil
// when the WAL is disabled).
func (r *Router) WALStats() []wal.ShardStats {
	if e := r.wal.Load(); e != nil {
		return e.Stats()
	}
	return nil
}

// DrainWAL blocks until every live replica has applied everything
// committed so far, then flushes the logs. No-op without a WAL.
func (r *Router) DrainWAL(ctx context.Context) error {
	if e := r.wal.Load(); e != nil {
		return e.Drain(ctx)
	}
	return nil
}

// CloseWAL stops the appliers, flushes, and closes the logs. Unapplied
// records stay logged and replay on the next EnableWAL over the same Dir.
func (r *Router) CloseWAL() error {
	if e := r.wal.Swap(nil); e != nil {
		return e.Close()
	}
	return nil
}

// AbortWAL hard-stops the engine without the final flush — the crash model
// for recovery tests.
func (r *Router) AbortWAL() {
	if e := r.wal.Swap(nil); e != nil {
		e.Abort()
	}
}
