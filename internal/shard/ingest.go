package shard

import (
	"context"
	"errors"
	"fmt"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// stores lists the fleet's warehouses as the engine's apply targets.
func (r *Router) stores() [][]wal.Store {
	stores := make([][]wal.Store, len(r.sets))
	for i, rs := range r.sets {
		for _, rep := range rs.reps {
			stores[i] = append(stores[i], rep.w)
		}
	}
	return stores
}

// EnableWAL replaces the engine New opened — the same commit → apply
// pipeline over a log that stores nothing — with one opened from opts:
// whatever the old engine still has queued is applied, it is closed, and
// every later load commits to the new one. With opts.Dir set that makes
// ingest durable: a load appends a checksummed record to each touched
// shard's one log before it is acknowledged, the ack no longer waits for the
// apply unless asked to, and Kill/Revive turn from "a down replica refuses
// loads" into hinted handoff: the revived replica replays what it missed
// from the shard's log. Without a Dir it only
// installs opts' hooks and tuning. A router takes one directory: enabling
// again over a durable engine is an error.
//
// Call it at a quiet point after the fleet's tables exist: a load racing the
// swap may be refused, and the catalog (DDL) is not logged, so on restart
// tables must be recreated before the engine replays loads. Records already
// in Dir's logs from a previous run are replayed into the (fresh, in-memory)
// warehouses before new loads commit.
func (r *Router) EnableWAL(opts wal.Options) error {
	old := r.wal.Load()
	if old.Durable() {
		return fmt.Errorf("shard: WAL already enabled")
	}
	for _, rs := range r.sets {
		for _, rep := range rs.reps {
			if rep.isKilled() {
				// What is queued for it exists nowhere else, and the new
				// engine would not know it is down.
				return fmt.Errorf("shard: cannot replace the load engine: %w", rep.downErr())
			}
		}
	}
	//dgflint:ignore ctxflow construction-time call with no caller context; the queue of an engine without a log holds only loads that are themselves waiting on it
	if err := old.Drain(context.Background()); err != nil {
		return err
	}
	e, err := wal.Open(opts, r.stores())
	if err != nil {
		return err
	}
	if !r.wal.CompareAndSwap(old, e) {
		e.Close()
		return fmt.Errorf("shard: WAL already enabled")
	}
	return old.Close()
}

// LoadAck describes an acknowledged load.
type LoadAck struct {
	// MaxLSN is the highest log sequence number the load was assigned
	// across the shards it touched.
	MaxLSN uint64
	// Durable is true when the engine that took the load has a directory:
	// the rows are in the log of every shard they touched.
	Durable bool
	// Applied is true when the rows were confirmed applied on every live
	// replica of every shard they touched: sync acks, and every ack of a
	// fleet without a log directory; false means logged-but-pending.
	Applied bool
	// Shards is how many shards received a non-empty slice of the load.
	Shards int
}

// LoadRowsDurable is the fleet's one load call: rows route to their shards,
// each shard's slice commits to the engine — appended to the shard's log and
// queued for its live replicas' appliers — and the call acks. A durable
// engine acks at log speed (dead replicas are owed the records and replay
// them from the shard's log on revive);
// with sync=true it additionally waits — context-bounded — until every live
// replica of each touched shard has applied its slice. An engine without a
// directory has only the queue, so its ack always waits for the apply, and
// it refuses a shard's slice while one of the shard's replicas is down. ctx
// bounds the waits, not the work: a record that was queued is applied even
// if its load gave up waiting.
func (r *Router) LoadRowsDurable(ctx context.Context, table string, rows []storage.Row, sync bool) (LoadAck, error) {
	// Validate before writing or logging: a row the table's encoding cannot
	// carry would poison every later read, and a logged record that can
	// never apply would stall its replica's applier forever.
	schema, err := r.TableSchema(table)
	if err != nil {
		return LoadAck{}, err
	}
	if err := storage.CheckIngestRows(schema, rows); err != nil {
		return LoadAck{}, fmt.Errorf("shard: load into %q: %w", table, err)
	}
	batches, err := r.loadBatches(table, rows)
	if err != nil {
		return LoadAck{}, err
	}
	e := r.wal.Load()
	ack := LoadAck{Durable: e.Durable()}
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
	outcome := fleetOutcome("load", 1, errs)
	if sync || !ack.Durable {
		// Also after a partial failure: the outcome names the shards that
		// applied, and for those it must be true.
		for si, lsn := range lsns {
			if lsn == 0 {
				continue
			}
			if err := e.WaitApplied(ctx, si, lsn); err != nil {
				return ack, err
			}
		}
		ack.Applied = outcome == nil
	}
	return ack, outcome
}

// WALStats snapshots the engine's per-shard log tails and per-replica
// positions.
func (r *Router) WALStats() []wal.ShardStats { return r.wal.Load().Stats() }

// DrainWAL blocks until every live replica has applied everything
// committed so far, then flushes the logs.
func (r *Router) DrainWAL(ctx context.Context) error { return r.wal.Load().Drain(ctx) }

// CloseWAL stops the appliers, flushes, and closes the logs; it is how a
// router's goroutines are joined. Unapplied records stay logged and replay
// when a new router opens the same Dir. The closed engine stays in place:
// reads and WALStats keep working, loads are refused.
func (r *Router) CloseWAL() error { return r.wal.Load().Close() }

// AbortWAL hard-stops the engine without the final flush — the crash model
// for recovery tests.
func (r *Router) AbortWAL() { r.wal.Load().Abort() }
