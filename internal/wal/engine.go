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

// Store is the apply target for one replica — in production the replica's
// *hive.Warehouse, whose LoadRowsByName already bumps table versions and
// runs incremental DGF index maintenance (dgf.Append) per batch.
type Store interface {
	LoadRowsByName(table string, rows []storage.Row) error
}

// ErrNoLiveReplica fails a Commit the shard cannot take: every replica is
// down, the shard's log refused the append — or, on an engine without a
// directory, any replica is down (see Commit). Nothing was queued and no LSN
// was consumed.
var ErrNoLiveReplica = errors.New("no live replica log accepted the record")

// Options configures an Engine.
type Options struct {
	// Dir is the WAL root; each shard's one log lives at
	// Dir/shard-NNN/replica-0.wal (see shardLogName), shared by all its
	// replicas. Empty runs the same engine over logs that store nothing:
	// records live only in the apply queues, so nothing survives a restart
	// and there is no hinted handoff (see Commit).
	Dir string
	// Fsync selects the durability/latency trade-off for appends.
	Fsync Policy
	// MaxBatchRows caps rows coalesced into one apply call. Default 8192.
	MaxBatchRows int
	// MaxPendingRows is the per-replica backpressure bound: commits block
	// (context-aware) while a live replica has this many unapplied rows.
	// Default 1<<20.
	MaxPendingRows int
	// OnApply, when set, runs after every successful apply batch — the
	// server hooks result-cache invalidation here so cached answers are
	// evicted when rows land, not when they are enqueued.
	OnApply func(table string, rows int)
	// Recorder, when set, receives apply/catchup trace spans (slow or
	// errored applies; every catch-up).
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
	// the apply's span (errored applies and catch-ups are always kept).
	slowApply = 500 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.MaxBatchRows <= 0 {
		o.MaxBatchRows = 8192
	}
	if o.MaxPendingRows <= 0 {
		o.MaxPendingRows = 1 << 20
	}
	return o
}

// Engine owns the logs and appliers for a whole fleet: one log and LSN
// sequencer per shard, one pending queue + applier goroutine per replica.
type Engine struct {
	opts   Options
	shards []*shardWAL

	stopSync chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// shardWAL sequences commits for one shard into its one log. Every replica
// applies that log's records in LSN order; a down replica's queue stops at
// its queued cursor, and catch-up reads the rest from the log.
type shardWAL struct {
	idx  int
	mu   sync.Mutex // serialises commit + catch-up's read of the log
	log  *Log
	next uint64 // next LSN to assign (1-based)
	reps []*replicaWAL
}

// replicaWAL is one replica's pending queue and applier state.
type replicaWAL struct {
	eng   *Engine
	shard int
	idx   int
	store Store

	mu           sync.Mutex
	cond         *sync.Cond
	pending      []Record
	pendingRows  int
	applied      uint64 // LSN high-water mark: everything <= is in the store
	queued       uint64 // highest LSN ever queued: everything <= is applied or pending
	replayTarget uint64 // records <= this were recovered or caught up, not live commits
	active       bool   // false while the replica is down: no appends, no applies
	catchingUp   bool
	closed       bool
	replayedRows int64 // rows applied via recovery or catch-up replay
	batches      int64 // successful apply batches
	stalled      string
}

// Open recovers (or initialises) the WAL under opts.Dir for a fleet shaped
// like stores: stores[shard][replica]; without a Dir every log is one with
// no file and there is nothing to recover. Each shard has one log, and every
// record recovered from it is queued on every replica — the stores are
// in-memory, so a process restart means every logged record replays from
// LSN 1. A shard directory holding any other *.wal (a per-replica log from an
// older layout, whose copies may differ in length) fails the open before any
// file is touched.
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
			rw := &replicaWAL{eng: e, shard: si, idx: ri, store: st, active: true,
				pending: slices.Clone(recs), pendingRows: recordRows(recs), queued: last, replayTarget: last}
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
// once and queued on every live replica; a replica marked down is skipped
// and catches up from the log (hinted handoff). If no replica is live, or
// the log refuses the append, the commit fails with nothing logged or
// queued. An engine without a directory has no log to catch up from: it
// refuses the commit while any replica of the shard is down, before
// anything is queued, and the replicas stay exact copies. ctx gates only the
// backpressure wait — once appending starts the commit always completes.
func (e *Engine) Commit(ctx context.Context, shard int, table string, rows []storage.Row) (uint64, error) {
	if shard < 0 || shard >= len(e.shards) {
		return 0, fmt.Errorf("wal: commit to unknown shard %d", shard)
	}
	sw := e.shards[shard]
	// Backpressure before taking the commit lock: a replica drowning in
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

	durable := e.opts.Dir != ""
	live := 0
	for _, rw := range sw.reps {
		rw.mu.Lock()
		up := rw.active
		rw.mu.Unlock()
		if up {
			live++
		} else if !durable {
			return 0, fmt.Errorf("wal: shard %d: replica %d is down and there is no log to hand the record off from: %w", shard, rw.idx, ErrNoLiveReplica)
		}
	}
	if live == 0 {
		return 0, fmt.Errorf("wal: shard %d: %w", shard, ErrNoLiveReplica)
	}
	rec := Record{LSN: sw.next, Table: table, Rows: rows}
	if err := sw.log.Append(rec, e.opts.Fsync); err != nil {
		return 0, fmt.Errorf("wal: shard %d: %w: %w", shard, ErrNoLiveReplica, err)
	}
	sw.next++
	for _, rw := range sw.reps {
		rw.mu.Lock()
		// Without a log a replica that went down since the check above
		// still needs the record: nothing else could give it back.
		if rw.active || !durable {
			rw.pending = append(rw.pending, rec)
			rw.pendingRows += len(rows)
			rw.queued = rec.LSN
			rw.cond.Broadcast()
		}
		rw.mu.Unlock()
	}
	if span != nil {
		span.Set("shard", shard)
		span.Set("lsn", rec.LSN)
		span.Set("rows", len(rows))
		span.Set("replicas_live", live)
		span.Set("fsync", e.opts.Fsync.String())
	}
	return rec.LSN, nil
}

// waitCapacity blocks while the replica is live and over the pending-rows
// bound. Down replicas don't exert backpressure (they aren't applying).
func (rw *replicaWAL) waitCapacity(ctx context.Context, maxRows int) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.pendingRows < maxRows || !rw.active || rw.closed {
		return nil
	}
	stop := watchCtx(ctx, rw.cond)
	defer stop()
	for rw.pendingRows >= maxRows && rw.active && !rw.closed {
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

// run is the per-replica applier: it drains pending records in LSN order,
// coalescing contiguous same-table records into micro-batches, and applies
// them to the store. Strict order keeps part-file naming — and therefore
// scan row order — identical across replicas.
func (rw *replicaWAL) run() {
	defer rw.eng.wg.Done()
	backoff := 10 * time.Millisecond
	for {
		rw.mu.Lock()
		for !rw.closed && (!rw.active || len(rw.pending) == 0) {
			rw.cond.Wait()
		}
		if rw.closed {
			rw.mu.Unlock()
			return
		}
		table := rw.pending[0].Table
		maxRows := rw.eng.opts.MaxBatchRows
		n, rows, replay := 0, 0, 0
		var lastLSN uint64
		for n < len(rw.pending) && rw.pending[n].Table == table {
			r := len(rw.pending[n].Rows)
			if n > 0 && rows+r > maxRows {
				break
			}
			rows += r
			if rw.pending[n].LSN <= rw.replayTarget {
				replay += r
			}
			lastLSN = rw.pending[n].LSN
			n++
		}
		batch := make([]storage.Row, 0, rows)
		for i := 0; i < n; i++ {
			batch = append(batch, rw.pending[i].Rows...)
		}
		rw.mu.Unlock()

		span := trace.New("apply")
		span.Set("shard", rw.shard)
		span.Set("replica", rw.idx)
		span.Set("table", table)
		span.Set("records", n)
		span.Set("rows", rows)
		span.Set("lsn", lastLSN)
		err := rw.store.LoadRowsByName(table, batch)
		span.Finish()

		if err != nil {
			// Never drop a logged record: surface the stall, back off, and
			// retry. The record is durable; the operator can see the error
			// in /stats and the flight recorder.
			rw.mu.Lock()
			rw.stalled = err.Error()
			rw.mu.Unlock()
			rw.record(span, fmt.Sprintf("WAL apply shard %d replica %d table %s", rw.shard, rw.idx, table), err)
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 10 * time.Millisecond

		rw.mu.Lock()
		// Zero the consumed records before reslicing: the backing array
		// outlives them, and through Record.Rows it would keep every applied
		// batch reachable until a later append happened to reallocate it.
		clear(rw.pending[:n])
		rw.pending = rw.pending[n:]
		rw.pendingRows -= rows
		rw.applied = lastLSN
		rw.batches++
		rw.replayedRows += int64(replay)
		rw.stalled = ""
		rw.cond.Broadcast()
		rw.mu.Unlock()

		if cb := rw.eng.opts.OnApply; cb != nil {
			cb(table, rows)
		}
		if span.Wall() >= slowApply {
			rw.record(span, fmt.Sprintf("WAL apply shard %d replica %d table %s", rw.shard, rw.idx, table), nil)
		}
	}
}

func (rw *replicaWAL) record(span *trace.Span, what string, err error) {
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

// MarkDown pauses a replica: commits stop queueing records on it (it is
// owed them from the shard's log) and its applier idles. Pending records
// stay queued so an in-process revive never replays a record twice.
func (e *Engine) MarkDown(shard, replica int) {
	rw := e.replica(shard, replica)
	if rw == nil {
		return
	}
	rw.mu.Lock()
	rw.active = false
	rw.catchingUp = false
	rw.cond.Broadcast()
	rw.mu.Unlock()
}

// CatchUp revives a replica by log replay: the records committed while it
// was down (LSN > its queued cursor) are read from the shard's log into its
// pending queue, the applier resumes, and onDone fires once the replica's
// applied high-water mark reaches the last of them. The read runs before
// CatchUp returns; the wait for the applier runs in the background, and its
// window is observable via Stats (CatchingUp=true). A replica that missed
// nothing and has nothing queued is back by the time CatchUp returns. If the
// log cannot be read the replica stays down, with the error in Stats.
func (e *Engine) CatchUp(shard, replica int, onDone func()) {
	rw := e.replica(shard, replica)
	if rw == nil {
		if onDone != nil {
			onDone()
		}
		return
	}
	sw := e.shards[shard]
	span := trace.New("catchup")
	span.Set("shard", shard)
	span.Set("replica", replica)

	// Under the shard commit lock: no commit lands between the read of the
	// log and the replica going live, so it misses nothing.
	sw.mu.Lock()
	rw.mu.Lock()
	from := rw.queued
	rw.mu.Unlock()
	var missed []Record
	var scanErr error
	if from < sw.log.LastLSN() {
		missed, scanErr = sw.log.ScanFrom(from)
	}
	rw.mu.Lock()
	target := from
	if scanErr != nil {
		rw.stalled = scanErr.Error()
	} else {
		for _, rec := range missed {
			rw.pending = append(rw.pending, rec)
			rw.pendingRows += len(rec.Rows)
		}
		if n := len(missed); n > 0 {
			target = missed[n-1].LSN
		}
		rw.queued = target
		if target > rw.replayTarget {
			rw.replayTarget = target
		}
		rw.active = true
		rw.catchingUp = true
	}
	caughtUp := rw.applied >= target
	rw.cond.Broadcast()
	rw.mu.Unlock()
	sw.mu.Unlock()

	span.Set("from_lsn", from)
	span.Set("to_lsn", target)
	span.Set("records", len(missed))
	span.Set("rows", recordRows(missed))
	if scanErr != nil {
		span.Eventf("log read failed: %v", scanErr)
		span.Finish()
		rw.record(span, fmt.Sprintf("WAL catchup shard %d replica %d", shard, replica), scanErr)
		return
	}

	// Wait until the replica has applied everything it was owed (or went
	// down / closed again first).
	wait := func() {
		rw.mu.Lock()
		for rw.applied < target && rw.active && !rw.closed {
			rw.cond.Wait()
		}
		reached := rw.applied >= target
		if reached {
			rw.catchingUp = false
		}
		rw.mu.Unlock()
		span.Finish()
		rw.record(span, fmt.Sprintf("WAL catchup shard %d replica %d", shard, replica), nil)
		if reached && onDone != nil {
			onDone()
		}
	}
	if caughtUp {
		wait()
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		wait()
	}()
}

// WaitApplied blocks until every live replica of shard has applied through
// lsn; it fails if the context expires or the engine closes first. Used for
// ?sync=1 acks, and for every ack of an engine without a directory.
func (e *Engine) WaitApplied(ctx context.Context, shard int, lsn uint64) error {
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("wal: wait on unknown shard %d", shard)
	}
	for _, rw := range e.shards[shard].reps {
		rw.mu.Lock()
		stop := watchCtx(ctx, rw.cond)
		for rw.applied < lsn && rw.active && !rw.closed && ctx.Err() == nil {
			rw.cond.Wait()
		}
		err := ctx.Err()
		if err == nil && rw.closed && rw.active && rw.applied < lsn {
			err = fmt.Errorf("engine closed with shard %d replica %d applied through lsn %d of %d", shard, rw.idx, rw.applied, lsn)
		}
		rw.mu.Unlock()
		stop()
		if err != nil {
			return fmt.Errorf("wal: sync ack wait: %w", err)
		}
	}
	return nil
}

// Drain blocks until every live replica has applied everything committed
// so far (ctx-bounded), then flushes the logs.
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
// records survive a restart, a down replica is owed what it misses, and an
// ack need not wait for the apply.
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

func (e *Engine) replica(shard, rep int) *replicaWAL {
	if shard < 0 || shard >= len(e.shards) {
		return nil
	}
	sw := e.shards[shard]
	if rep < 0 || rep >= len(sw.reps) {
		return nil
	}
	return sw.reps[rep]
}

// ReplicaStats is one replica's WAL position for /stats and /metrics.
// LastLSN is the shard log's tail, the same for every replica of a shard;
// HintedRecords is what a down replica is owed from it (tail − queued
// cursor), 0 for a live one.
type ReplicaStats struct {
	Replica        int    `json:"replica"`
	LastLSN        uint64 `json:"last_lsn"`
	AppliedLSN     uint64 `json:"applied_lsn"`
	PendingRecords int    `json:"pending_records"`
	PendingRows    int    `json:"pending_rows"`
	Active         bool   `json:"active"`
	CatchingUp     bool   `json:"catching_up,omitempty"`
	HintedRecords  int64  `json:"hinted_records,omitempty"`
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
			var owed int64
			if !rw.active && rw.queued < tail {
				owed = int64(tail - rw.queued)
			}
			ss.Replicas = append(ss.Replicas, ReplicaStats{
				Replica:        rw.idx,
				LastLSN:        tail,
				AppliedLSN:     rw.applied,
				PendingRecords: len(rw.pending),
				PendingRows:    rw.pendingRows,
				Active:         rw.active,
				CatchingUp:     rw.catchingUp,
				HintedRecords:  owed,
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
