package wal

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// Store is an apply target of one shard — in production the shard's one
// *hive.Warehouse, whose LoadRowsByName already bumps table versions and
// runs incremental DGF index maintenance (dgf.Append) per batch. A store only
// reads the rows it is given: every store of a shard is handed the same
// record's rows.
type Store interface {
	LoadRowsByName(table string, rows []storage.Row) error
}

// ErrNoLiveReplica fails a Commit the shard's log refused (see Log.Append:
// a failed append or fsync makes the log refuse every later one). Nothing was
// queued and no LSN was consumed.
var ErrNoLiveReplica = errors.New("no live replica log accepted the record")

// Options configures an Engine.
type Options struct {
	// Dir is the WAL root; each shard's one log lives at
	// Dir/shard-NNN/replica-0.wal (see shardLogName). Empty runs the same
	// engine over logs that store nothing: records live only in the apply
	// queues, so nothing survives a restart.
	Dir string
	// Fsync selects the durability/latency trade-off for appends.
	Fsync Policy
	// MaxPendingRows is the per-applier backpressure bound: commits block
	// (context-aware) while an applier has this many unapplied rows.
	// Default 1<<20.
	MaxPendingRows int
	// OnApply, when set, runs after every applied record — the
	// server hooks result-cache invalidation here so cached answers are
	// evicted when rows land, not when they are enqueued.
	OnApply func(table string, rows int)
	// Recorder, when set, receives the trace spans of slow or errored
	// applies.
	Recorder *trace.Recorder
}

const (
	// shardLogName is the file of a shard's one log inside its shard-NNN
	// directory. The benchmark harness reads the WAL at exactly this path
	// (benchmark/workloads.go, benchmark/probes.go), so a rename goes with
	// a change to those two lines.
	shardLogName = "replica-0.wal"
	// syncEvery is the PolicyInterval flush period.
	syncEvery = 25 * time.Millisecond
	// slowApply is the apply wall time past which the flight recorder keeps
	// the apply's span (errored applies are always kept).
	slowApply = 500 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.MaxPendingRows <= 0 {
		o.MaxPendingRows = 1 << 20
	}
	return o
}

// Engine owns the logs and appliers for a whole fleet: one log and LSN
// sequencer per shard, one pending queue + applier goroutine per store.
type Engine struct {
	opts   Options
	shards []*shardWAL

	stopSync chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// shardWAL sequences commits for one shard into its one log. Every store of
// the shard applies that log's records in LSN order.
type shardWAL struct {
	idx  int
	mu   sync.Mutex // serialises commits
	log  *Log
	next uint64 // next LSN to assign (1-based)
	reps []*applier
}

// applier is one store's pending queue and applier state.
type applier struct {
	eng   *Engine
	shard int
	idx   int
	store Store

	mu           sync.Mutex
	cond         *sync.Cond
	pending      []Record
	pendingRows  int
	applied      uint64 // LSN high-water mark: everything <= is in the store
	replayTarget uint64 // records <= this were recovered from the log, not live commits
	closed       bool
	replayedRows int64 // rows applied by recovery replay
	batches      int64 // applied records
	stalled      string
}

// Open recovers (or initialises) the WAL under opts.Dir for a fleet shaped
// like stores: stores[shard] lists the shard's apply targets, one applier
// each (a router passes its one warehouse per shard); without a Dir every log
// is one with no file and there is nothing to recover. Each shard has one
// log, and every record recovered from it is queued on every store of the
// shard — the stores are in-memory, so a process restart means every logged
// record replays from LSN 1. A shard directory holding any other *.wal (a
// per-replica log from an older layout, whose copies may differ in length)
// fails the open before any file is touched.
func Open(opts Options, stores [][]Store) (*Engine, error) {
	opts = opts.withDefaults()
	paths := make([]string, len(stores))
	if opts.Dir != "" {
		for si := range stores {
			paths[si] = filepath.Join(opts.Dir, fmt.Sprintf("shard-%03d", si), shardLogName)
			if err := refuseStrayLogs(paths[si]); err != nil {
				return nil, err
			}
		}
	}
	e := &Engine{opts: opts, stopSync: make(chan struct{})}
	for si, reps := range stores {
		l, recs, err := OpenLog(paths[si])
		if err != nil {
			e.closeLogs()
			return nil, err
		}
		last := l.LastLSN()
		sw := &shardWAL{idx: si, log: l, next: last + 1}
		for ri, st := range reps {
			rw := &applier{eng: e, shard: si, idx: ri, store: st,
				pending: slices.Clone(recs), pendingRows: recordRows(recs), replayTarget: last}
			rw.cond = sync.NewCond(&rw.mu)
			sw.reps = append(sw.reps, rw)
		}
		e.shards = append(e.shards, sw)
	}
	for _, sw := range e.shards {
		for _, rw := range sw.reps {
			e.wg.Add(1)
			go rw.run()
		}
	}
	if opts.Fsync == PolicyInterval && opts.Dir != "" {
		e.wg.Add(1)
		go e.syncLoop()
	}
	return e, nil
}

// refuseStrayLogs fails when the directory of a shard log holds any other
// *.wal file, naming it: only the shard log is read, so another log's records
// would be silently dropped.
func refuseStrayLogs(path string) error {
	logs, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*.wal"))
	if err != nil {
		return fmt.Errorf("wal: list logs: %w", err)
	}
	for _, other := range logs {
		if other != path {
			return fmt.Errorf("wal: %s: a shard keeps one log, %s; move the other log away or recover it with the build that wrote it", other, path)
		}
	}
	return nil
}

func (e *Engine) closeLogs() {
	for _, sw := range e.shards {
		sw.log.Close(PolicyOff)
	}
}

func (e *Engine) syncLoop() {
	defer e.wg.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-e.stopSync:
			return
		case <-t.C:
			for _, sw := range e.shards {
				sw.log.Sync() // best-effort; a failure refuses the next commit
			}
		}
	}
}

// Commit logs one shard's slice of a load and queues it for apply,
// returning the assigned LSN. The record is appended to the shard's log
// once and queued on every applier of the shard. If the log refuses the
// append, the commit fails with nothing logged or queued. ctx gates only the
// backpressure wait — once appending starts the commit always completes.
func (e *Engine) Commit(ctx context.Context, shard int, table string, rows []storage.Row) (uint64, error) {
	if shard < 0 || shard >= len(e.shards) {
		return 0, fmt.Errorf("wal: commit to unknown shard %d", shard)
	}
	sw := e.shards[shard]
	// Backpressure before taking the commit lock: an applier drowning in
	// unapplied rows should slow producers, not grow without bound.
	for _, rw := range sw.reps {
		if err := rw.waitCapacity(ctx, e.opts.MaxPendingRows); err != nil {
			return 0, err
		}
	}
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		span = parent.Child("wal_append")
		defer span.Finish()
	}

	sw.mu.Lock()
	defer sw.mu.Unlock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, fmt.Errorf("wal: engine closed")
	}
	e.mu.Unlock()

	rec := Record{LSN: sw.next, Table: table, Rows: rows}
	if err := sw.log.Append(rec, e.opts.Fsync); err != nil {
		return 0, fmt.Errorf("wal: shard %d: %w: %w", shard, ErrNoLiveReplica, err)
	}
	sw.next++
	for _, rw := range sw.reps {
		rw.mu.Lock()
		rw.pending = append(rw.pending, rec)
		rw.pendingRows += len(rows)
		rw.cond.Broadcast()
		rw.mu.Unlock()
	}
	if span != nil {
		span.Set("shard", shard)
		span.Set("lsn", rec.LSN)
		span.Set("rows", len(rows))
		span.Set("fsync", e.opts.Fsync.String())
	}
	return rec.LSN, nil
}

// waitCapacity blocks while the applier is over the pending-rows bound.
func (rw *applier) waitCapacity(ctx context.Context, maxRows int) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.pendingRows < maxRows || rw.closed {
		return nil
	}
	stop := watchCtx(ctx, rw.cond)
	defer stop()
	for rw.pendingRows >= maxRows && !rw.closed {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("wal: backpressure wait: %w", err)
		}
		rw.cond.Wait()
	}
	return nil
}

// watchCtx broadcasts on cond when ctx is cancelled so cond.Wait loops can
// observe the cancellation. Returns a stop func; no-op for contexts that
// can never be cancelled.
func watchCtx(ctx context.Context, cond *sync.Cond) func() {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-done:
			cond.L.Lock()
			cond.Broadcast()
			cond.L.Unlock()
		case <-quit:
		}
	}()
	return func() { close(quit) }
}

// run is the store's applier: it applies pending records in LSN order, one
// logged record per store call, passing the record's rows as they are (a
// Store only reads them). A store therefore makes the same loads in the same
// order, live or recovered, so its part files, and therefore scan row order,
// depend only on the log.
func (rw *applier) run() {
	defer rw.eng.wg.Done()
	backoff := 10 * time.Millisecond
	for {
		rw.mu.Lock()
		for !rw.closed && len(rw.pending) == 0 {
			rw.cond.Wait()
		}
		if rw.closed {
			rw.mu.Unlock()
			return
		}
		rec := rw.pending[0]
		replay := rec.LSN <= rw.replayTarget
		rw.mu.Unlock()

		span := trace.New("apply")
		span.Set("shard", rw.shard)
		span.Set("table", rec.Table)
		span.Set("rows", len(rec.Rows))
		span.Set("lsn", rec.LSN)
		err := rw.store.LoadRowsByName(rec.Table, rec.Rows)
		span.Finish()

		if err != nil {
			// Never drop a logged record: surface the stall, back off, and
			// retry. The record is durable; the operator can see the error
			// in /stats and the flight recorder.
			rw.mu.Lock()
			rw.stalled = err.Error()
			rw.mu.Unlock()
			rw.record(span, fmt.Sprintf("WAL apply shard %d table %s", rw.shard, rec.Table), err)
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 10 * time.Millisecond

		rw.mu.Lock()
		// Zero the consumed record before reslicing: the backing array
		// outlives it, and through Record.Rows it would keep every applied
		// record reachable until a later append happened to reallocate it.
		rw.pending[0] = Record{}
		rw.pending = rw.pending[1:]
		rw.pendingRows -= len(rec.Rows)
		rw.applied = rec.LSN
		rw.batches++
		if replay {
			rw.replayedRows += int64(len(rec.Rows))
		}
		rw.stalled = ""
		rw.cond.Broadcast()
		rw.mu.Unlock()

		if cb := rw.eng.opts.OnApply; cb != nil {
			cb(rec.Table, len(rec.Rows))
		}
		if span.Wall() >= slowApply {
			rw.record(span, fmt.Sprintf("WAL apply shard %d table %s", rw.shard, rec.Table), nil)
		}
	}
}

func (rw *applier) record(span *trace.Span, what string, err error) {
	rec := rw.eng.opts.Recorder
	if rec == nil {
		return
	}
	tr := trace.Record{
		Time:   time.Now(),
		SQL:    what,
		WallMs: float64(span.Wall()) / float64(time.Millisecond),
		Trace:  span.Snapshot(),
	}
	if err != nil {
		tr.Error = err.Error()
	} else {
		tr.Slow = true
	}
	rec.Add(tr)
}

// WaitApplied blocks until every applier of shard has applied through lsn;
// it fails if the context expires or the engine closes first. Used for
// ?sync=1 acks, and for every ack of an engine without a directory.
func (e *Engine) WaitApplied(ctx context.Context, shard int, lsn uint64) error {
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("wal: wait on unknown shard %d", shard)
	}
	for _, rw := range e.shards[shard].reps {
		rw.mu.Lock()
		stop := watchCtx(ctx, rw.cond)
		for rw.applied < lsn && !rw.closed && ctx.Err() == nil {
			rw.cond.Wait()
		}
		err := ctx.Err()
		if err == nil && rw.applied < lsn {
			err = fmt.Errorf("engine closed with shard %d applied through lsn %d of %d", shard, rw.applied, lsn)
		}
		rw.mu.Unlock()
		stop()
		if err != nil {
			return fmt.Errorf("wal: sync ack wait: %w", err)
		}
	}
	return nil
}

// Drain blocks until every applier has applied everything committed so far
// (ctx-bounded), then flushes the logs.
func (e *Engine) Drain(ctx context.Context) error {
	for _, sw := range e.shards {
		sw.mu.Lock()
		target := sw.next - 1
		sw.mu.Unlock()
		if err := e.WaitApplied(ctx, sw.idx, target); err != nil {
			return err
		}
	}
	return e.SyncAll()
}

// SyncAll fsyncs every log (no-op per log when clean).
func (e *Engine) SyncAll() error {
	var first error
	for _, sw := range e.shards {
		if err := sw.log.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Durable reports whether the engine was opened over a directory: its
// records survive a restart, and an ack need not wait for the apply.
func (e *Engine) Durable() bool { return e.opts.Dir != "" }

// Close stops appliers and the fsync ticker, flushes, and closes the logs.
// Pending-but-unapplied records stay in the logs and replay on next Open
// (without a directory they are dropped, and their WaitApplied fails).
func (e *Engine) Close() error {
	return e.shutdown(true)
}

// Abort is Close without the final flush — it models a hard crash for
// recovery tests: appliers stop where they are, descriptors close, and
// whatever the OS buffered is whatever survives.
func (e *Engine) Abort() {
	e.shutdown(false)
}

func (e *Engine) shutdown(flush bool) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stopSync)
	for _, sw := range e.shards {
		for _, rw := range sw.reps {
			rw.mu.Lock()
			rw.closed = true
			rw.cond.Broadcast()
			rw.mu.Unlock()
		}
	}
	e.wg.Wait()
	var first error
	policy := e.opts.Fsync
	if !flush {
		policy = PolicyOff
	}
	for _, sw := range e.shards {
		if err := sw.log.Close(policy); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReplicaStats is one applier's WAL position for /stats and /metrics: a
// router's shard has one, whose Replica is 0. LastLSN is the shard log's
// tail. AppliedBatches counts the records the applier has applied, one store
// call each; ReplayedRows the rows it applied by recovery replay.
type ReplicaStats struct {
	Replica        int    `json:"replica"`
	LastLSN        uint64 `json:"last_lsn"`
	AppliedLSN     uint64 `json:"applied_lsn"`
	PendingRecords int    `json:"pending_records"`
	PendingRows    int    `json:"pending_rows"`
	ReplayedRows   int64  `json:"replayed_rows,omitempty"`
	AppliedBatches int64  `json:"applied_batches"`
	Stalled        string `json:"stalled,omitempty"`
}

// ShardStats is one shard's WAL state.
type ShardStats struct {
	Shard    int            `json:"shard"`
	NextLSN  uint64         `json:"next_lsn"`
	Replicas []ReplicaStats `json:"replicas"`
}

// Stats snapshots the whole engine.
func (e *Engine) Stats() []ShardStats {
	out := make([]ShardStats, 0, len(e.shards))
	for _, sw := range e.shards {
		sw.mu.Lock()
		ss := ShardStats{Shard: sw.idx, NextLSN: sw.next}
		tail := sw.log.LastLSN()
		sw.mu.Unlock()
		for _, rw := range sw.reps {
			rw.mu.Lock()
			ss.Replicas = append(ss.Replicas, ReplicaStats{
				Replica:        rw.idx,
				LastLSN:        tail,
				AppliedLSN:     rw.applied,
				PendingRecords: len(rw.pending),
				PendingRows:    rw.pendingRows,
				ReplayedRows:   rw.replayedRows,
				AppliedBatches: rw.batches,
				Stalled:        rw.stalled,
			})
			rw.mu.Unlock()
		}
		out = append(out, ss)
	}
	return out
}
