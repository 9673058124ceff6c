package shard

import (
	"context"
	"fmt"
	"sync"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// stores lists the fleet's warehouses as the engine's apply targets: one
// per shard.
func (r *Router) stores() [][]wal.Store {
	stores := make([][]wal.Store, len(r.sets))
	for i, rs := range r.sets {
		stores[i] = []wal.Store{rs.w}
	}
	return stores
}

// EnableWAL replaces the engine New opened — the same commit → apply
// pipeline over a log that stores nothing — with one opened from opts:
// whatever the old engine still has queued is applied, it is closed, and
// every later load commits to the new one. With opts.Dir set that makes
// ingest durable: a load appends a checksummed record to each touched
// shard's one log before it is acknowledged, and the ack no longer waits for
// the apply unless asked to. Without a Dir it only installs opts' hooks and
// tuning. A router takes one directory: enabling again over a durable engine
// is an error.
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
// logged. It holds the drop gate's load side, so no DROP TABLE runs between
// the check and the commits; it waits for a running drop only until ctx
// ends.
func (r *Router) commitLoad(ctx context.Context, table string, rows []storage.Row) (e *wal.Engine, ack LoadAck, lsns []uint64, outcome, err error) {
	if err := r.drops.enterLoad(ctx); err != nil {
		return nil, ack, nil, nil, fmt.Errorf("shard: load into %q waits for a DROP TABLE: %w", table, err)
	}
	defer r.drops.exitLoad()
	// Validate before writing or logging: a row the table's encoding cannot
	// carry would poison every later read, and a logged record that can
	// never apply would stall its shard's applier forever.
	schema, err := r.TableSchema(table)
	if err != nil {
		return nil, ack, nil, nil, err
	}
	if err := storage.CheckIngestRows(schema, rows); err != nil {
		return nil, ack, nil, nil, fmt.Errorf("shard: load into %q: %w", table, err)
	}
	batches, err := r.loadBatches(table, rows)
	if err != nil {
		return nil, ack, nil, nil, err
	}
	e = r.wal.Load()
	ack.Durable = e.Durable()
	lsns = make([]uint64, len(batches))
	errs := make([]error, len(batches))
	for si, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		ack.Shards++
		lsn, err := e.Commit(ctx, si, table, batch)
		if err != nil {
			errs[si] = err
			continue
		}
		lsns[si] = lsn
		if lsn > ack.MaxLSN {
			ack.MaxLSN = lsn
		}
	}
	return e, ack, lsns, fleetOutcome("load", errs), nil
}

// WALStats snapshots the engine's per-shard log tails and apply positions.
func (r *Router) WALStats() []wal.ShardStats { return r.wal.Load().Stats() }

// DrainWAL blocks until every shard has applied everything committed so
// far, then flushes the logs.
func (r *Router) DrainWAL(ctx context.Context) error { return r.wal.Load().Drain(ctx) }

// CloseWAL stops the appliers, flushes, and closes the logs; it is how a
// router's goroutines are joined. Unapplied records stay logged and replay
// when a new router opens the same Dir. The closed engine stays in place:
// reads and WALStats keep working, loads are refused.
func (r *Router) CloseWAL() error { return r.wal.Load().Close() }

// AbortWAL hard-stops the engine without the final flush — the crash model
// for recovery tests.
func (r *Router) AbortWAL() { r.wal.Load().Abort() }

// dropGate lets any number of loads through at once, or one DROP TABLE —
// sync.RWMutex's shape, except that both sides wait under a context: a load
// stuck behind a drain must still honour its deadline. A waiting drop holds
// off new loads, so a stream of loads cannot starve it.
type dropGate struct {
	mu       sync.Mutex
	loads    int           // loads between their table check and their commits' end
	dropping bool          // a drop holds the gate or waits for loads to leave
	changed  chan struct{} // closed whenever loads or dropping change; made by the next waiter
}

// await returns with g.mu held once ready holds, or without it and with
// ctx's error once ctx ends first.
func (g *dropGate) await(ctx context.Context, ready func() bool) error {
	g.mu.Lock()
	for !ready() {
		if g.changed == nil {
			g.changed = make(chan struct{})
		}
		changed := g.changed
		g.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
		g.mu.Lock()
	}
	return nil
}

// signal wakes every waiter; g.mu is held.
func (g *dropGate) signal() {
	if g.changed != nil {
		close(g.changed)
		g.changed = nil
	}
}

func (g *dropGate) enterLoad(ctx context.Context) error {
	if err := g.await(ctx, func() bool { return !g.dropping }); err != nil {
		return err
	}
	g.loads++
	g.mu.Unlock()
	return nil
}

func (g *dropGate) exitLoad() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.loads--; g.loads == 0 {
		g.signal()
	}
}

func (g *dropGate) enterDrop(ctx context.Context) error {
	if err := g.await(ctx, func() bool { return !g.dropping }); err != nil {
		return err
	}
	g.dropping = true
	g.mu.Unlock()
	if err := g.await(ctx, func() bool { return g.loads == 0 }); err != nil {
		g.exitDrop()
		return err
	}
	g.mu.Unlock()
	return nil
}

func (g *dropGate) exitDrop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropping = false
	g.signal()
}
