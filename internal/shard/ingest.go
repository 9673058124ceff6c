package shard

import (
	"context"
	"fmt"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// stores lists the engine's apply targets: each shard's one warehouse.
func (r *Router) stores() [][]wal.Store {
	stores := make([][]wal.Store, len(r.sets))
	for i, rs := range r.sets {
		stores[i] = []wal.Store{rs.w}
	}
	return stores
}

// EnableWAL replaces the engine New opened — the same commit → apply
// pipeline over a log that stores nothing — with one opened from opts, and
// only while the old one is empty: once any shard has committed a load or a
// DDL statement it is refused, naming the shard and its next LSN, and the
// router goes on with its engine. Open the log before the first commit.
// With opts.Dir set the fleet is durable: a load acks once its records are
// in the touched shards' logs (and waits for the apply only when asked to),
// and a DDL statement is logged in every shard's log. Without a Dir it only
// installs opts' hooks and tuning; a router takes one directory. The logs
// replay into the (empty, in-memory) warehouses in log order, and the
// catalog is rebuilt from their DDL before anything new commits, so the
// fleet's tables, rows and indexes are exactly what its logs hold.
func (r *Router) EnableWAL(opts wal.Options) error {
	r.order.Lock()
	defer r.order.Unlock()
	old := r.wal.Load()
	if old.Durable() {
		return fmt.Errorf("shard: WAL already enabled")
	}
	for _, ss := range old.Stats() {
		if ss.NextLSN > 1 {
			return fmt.Errorf("shard: WAL refused: shard %d has committed (next lsn %d); the log opens before the first load or DDL statement", ss.Shard, ss.NextLSN)
		}
	}
	e, err := wal.Open(opts, r.stores())
	if err != nil {
		return err
	}
	var stmts []hive.Stmt
	for _, text := range e.RecoveredDDL() {
		stmt, err := hive.Parse(text)
		if err != nil {
			e.Close()
			return fmt.Errorf("shard: logged DDL %q: %w", text, err)
		}
		stmts = append(stmts, stmt)
	}
	// The replay applies the logged DDL in the background: its tables are
	// not queryable until every shard has replayed its whole log.
	at := &loggedDDL{e: e}
	for _, ss := range e.Stats() {
		at.lsns = append(at.lsns, ss.NextLSN-1)
	}
	for _, stmt := range stmts {
		if r.checkDDL(stmt) == nil {
			r.catalogDDL(stmt, at)
		}
	}
	r.wal.Store(e)
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
	// Applied is true when the rows were confirmed applied on every shard
	// they touched: sync acks, and every ack of a fleet without a log
	// directory; false means logged-but-pending.
	Applied bool
	// Shards is how many shards received a non-empty slice of the load.
	Shards int
}

// LoadRowsDurable is the fleet's one load call: rows route to their shards,
// each shard's slice commits to the engine — appended to the shard's log and
// queued for the shard's applier — and the call acks. A durable engine acks
// at log speed; with sync=true it additionally waits — context-bounded —
// until each touched shard has applied its slice. An engine without a
// directory has only the queue, so its ack always waits for the apply. A
// shard takes its slice whether or not its replicas are live: the warehouse
// outlives them. ctx bounds the waits, not the work: a record that was
// queued is applied even if its load gave up waiting.
func (r *Router) LoadRowsDurable(ctx context.Context, table string, rows []storage.Row, sync bool) (LoadAck, error) {
	e, ack, lsns, outcome, err := r.commitLoad(ctx, table, rows)
	if err != nil {
		return ack, err
	}
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

// commitLoad checks a load and commits each shard's slice to the engine,
// returning the engine, the LSN each shard's slice got (0 for none) and the
// folded per-shard outcome; err is a check that failed before anything was
// logged. It waits out each touched shard's backpressure first, then holds
// the ordering lock shared over the commits, so no DDL statement is logged
// between the check and the commits and nobody waits on an apply under the
// lock; a DDL statement that changed the table in between routes it again.
func (r *Router) commitLoad(ctx context.Context, table string, rows []storage.Row) (e *wal.Engine, ack LoadAck, lsns []uint64, outcome, err error) {
	for {
		m := r.meta(table)
		if m == nil {
			return nil, ack, nil, nil, fmt.Errorf("hive: table %q does not exist", table)
		}
		// Validate before writing or logging: a row the table's encoding
		// cannot carry would poison every later read, and a logged record
		// that can never apply would stall its shard's applier forever.
		if err := storage.CheckRows(m.schema, rows); err != nil {
			return nil, ack, nil, nil, fmt.Errorf("shard: load into %q: %w", table, err)
		}
		batches, err := r.loadBatches(table, rows)
		if err != nil {
			return nil, ack, nil, nil, err
		}
		errs := make([]error, len(batches))
		for si, batch := range batches {
			if len(batch) > 0 {
				errs[si] = r.wal.Load().WaitCapacity(ctx, si)
			}
		}
		r.order.RLock()
		if r.meta(table) != m {
			r.order.RUnlock()
			continue
		}
		e = r.wal.Load()
		ack = LoadAck{Durable: e.Durable()}
		lsns = make([]uint64, len(batches))
		for si, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			ack.Shards++
			if errs[si] != nil {
				continue
			}
			lsn, _, err := e.Append(ctx, si, wal.Record{Table: table, Rows: batch})
			if err != nil {
				errs[si] = err
				continue
			}
			lsns[si] = lsn
			ack.MaxLSN = max(ack.MaxLSN, lsn)
		}
		r.order.RUnlock()
		return e, ack, lsns, fleetOutcome("load", errs), nil
	}
}

// WALStats snapshots the engine's per-shard log tails and apply positions.
func (r *Router) WALStats() []wal.ShardStats { return r.wal.Load().Stats() }

// DrainWAL blocks until every shard applied all it committed, then syncs.
func (r *Router) DrainWAL(ctx context.Context) error { return r.wal.Load().Drain(ctx) }

// CloseWAL stops the appliers, flushes, and closes the logs, joining the
// router's goroutines; unapplied records replay when a router opens the same
// Dir. Reads and WALStats keep working after it; writes are refused.
func (r *Router) CloseWAL() error { return r.wal.Load().Close() }

// AbortWAL hard-stops the engine without the final flush — the crash model
// for recovery tests.
func (r *Router) AbortWAL() { r.wal.Load().Abort() }
