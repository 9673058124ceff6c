package wal

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// Store is an apply target of one shard — in production its one
// *hive.Warehouse, whose loads bump table versions and maintain the DGF
// index. A store only reads the rows it is handed.
type Store interface {
	LoadRowsByName(table string, rows []storage.Row) error
}

// DDLStore is a Store that also applies DDL records (*hive.Warehouse): a
// DDL record fails on a store that is not one.
type DDLStore interface {
	Store
	ApplyDDL(text string) (string, error)
}

// DDLResult is a DDL record's outcome on its shard.
type DDLResult struct {
	Message string
	Err     error
}

// ErrLogRefused fails a commit the shard's log refused (see Log): nothing
// was queued and no LSN was consumed.
var ErrLogRefused = errors.New("the shard's log refused the record")

// Options configures an Engine.
type Options struct {
	// Dir is the WAL root; each shard's one log lives at
	// Dir/shard-NNN/replica-0.wal (see shardLogName). Empty runs the same
	// engine over logs that store nothing: records live only in the apply
	// queues, so nothing survives a restart.
	Dir string
	// Fsync selects the durability/latency trade-off for appends.
	Fsync Policy
	// MaxPendingRows is the per-shard backpressure bound: load commits
	// block (context-aware) while the shard's applier has this many
	// unapplied rows. Default 1<<20.
	MaxPendingRows int
	// OnApply, when set, runs for every applied record (rows 0 for DDL)
	// before it counts as applied, so a sync ack or a drain returns after
	// it: the server evicts cached answers here, when rows land.
	OnApply func(table string, rows int)
	// Recorder, when set, receives the spans of slow or errored applies.
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

// Engine owns the logs and appliers for a whole fleet: one log, one LSN
// sequencer and one applier per shard.
type Engine struct {
	opts   Options
	shards []*shardWAL
	ddl    []string // the DDL texts the logs held at Open, in log order

	stopSync chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// shardWAL is one shard's log, LSN sequencer and applier (run).
type shardWAL struct {
	eng    *Engine
	idx    int
	stores []Store
	mu     sync.Mutex // serialises commits
	log    *Log
	next   uint64 // next LSN to assign (1-based)
	loaded int    // the stores that have loaded pending[0]; run's own

	qmu          sync.Mutex // guards the queue and the apply state below
	cond         *sync.Cond
	pending      []queued
	pendingRows  int
	applied      uint64 // LSN high-water mark: everything <= is in the stores
	replayTarget uint64 // records <= this were recovered from the log, not live commits
	closed       bool
	replayedRows int64 // rows applied by recovery replay
	batches      int64 // applied records
	stalled      string
}

// queued is a record awaiting its apply; done gets a live DDL's outcome.
type queued struct {
	Record
	done chan DDLResult
}

// Open recovers (or initialises) the WAL under opts.Dir for a fleet shaped
// like stores: stores[shard] lists the apply targets the shard's applier
// hands each record to, in order. The stores are in-memory, so every logged
// record, DDL included, replays from LSN 1 (after rollForwardDDL); without
// a Dir there is nothing to recover. A shard directory holding any other
// *.wal (an older per-replica layout) fails the open, touching nothing.
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
	recovered := make([][]Record, len(stores))
	for si := range stores {
		l, recs, err := OpenLog(paths[si])
		if err != nil {
			e.closeLogs()
			return nil, err
		}
		sw := &shardWAL{eng: e, idx: si, stores: stores[si], log: l, next: l.LastLSN() + 1}
		sw.cond = sync.NewCond(&sw.qmu)
		e.shards = append(e.shards, sw)
		recovered[si] = recs
	}
	if err := e.rollForwardDDL(recovered); err != nil {
		e.closeLogs()
		return nil, err
	}
	for si, sw := range e.shards {
		for _, rec := range recovered[si] {
			sw.pending = append(sw.pending, queued{Record: rec})
			sw.pendingRows += len(rec.Rows)
		}
		sw.replayTarget = sw.next - 1
		e.wg.Add(1)
		go sw.run()
	}
	if opts.Fsync == PolicyInterval && opts.Dir != "" {
		e.wg.Add(1)
		go e.syncLoop()
	}
	return e, nil
}

// rollForwardDDL makes every shard's log hold the same DDL records, their
// texts e.ddl. A statement is appended to the logs one after another with no
// commit between, and a crash cuts a log only at its tail, so one a crash
// left in some logs only follows every DDL record the rest kept: it is
// appended to them. Logs whose DDL differs otherwise fail the open, naming
// the shard: shards never boot with different catalogs.
func (e *Engine) rollForwardDDL(recovered [][]Record) error {
	ddl := make([][]Record, len(recovered))
	longest := 0
	for si, recs := range recovered {
		for _, rec := range recs {
			if rec.DDL != "" {
				ddl[si] = append(ddl[si], rec)
			}
		}
		if len(ddl[si]) > len(ddl[longest]) {
			longest = si
		}
	}
	for si, own := range ddl {
		for i, rec := range own {
			if want := ddl[longest][i]; rec.DDL != want.DDL {
				return fmt.Errorf("wal: shard %d's log holds %q at lsn %d where shard %d's holds %q: the logs disagree on the catalog",
					si, rec.DDL, rec.LSN, longest, want.DDL)
			}
		}
		sw := e.shards[si]
		for _, rec := range ddl[longest][len(own):] {
			rec.LSN = sw.next
			if err := sw.log.Append(rec, e.opts.Fsync); err != nil {
				return fmt.Errorf("wal: shard %d: roll %q forward: %w", si, rec.DDL, err)
			}
			sw.next++
			recovered[si] = append(recovered[si], rec)
		}
	}
	for _, rec := range ddl[longest] {
		e.ddl = append(e.ddl, rec.DDL)
	}
	return nil
}

// RecoveredDDL lists the DDL statements every shard's log held at Open, in
// log order.
func (e *Engine) RecoveredDDL() []string { return e.ddl }

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
// returning the assigned LSN: WaitCapacity, then Append. If the log refuses
// the append, the commit fails with ErrLogRefused and nothing logged or
// queued. ctx gates only the backpressure wait — once appending starts the
// commit always completes.
func (e *Engine) Commit(ctx context.Context, shard int, table string, rows []storage.Row) (uint64, error) {
	if err := e.WaitCapacity(ctx, shard); err != nil {
		return 0, err
	}
	lsn, _, err := e.Append(ctx, shard, Record{Table: table, Rows: rows})
	return lsn, err
}

// WaitCapacity blocks while the shard's applier has MaxPendingRows or more
// unapplied rows, until ctx ends: an applier drowning in unapplied rows
// should slow producers, not grow without bound.
func (e *Engine) WaitCapacity(ctx context.Context, shard int) error {
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("wal: commit to unknown shard %d", shard)
	}
	sw, maxRows := e.shards[shard], e.opts.MaxPendingRows
	sw.qmu.Lock()
	defer sw.qmu.Unlock()
	if sw.pendingRows < maxRows || sw.closed {
		return nil
	}
	stop := broadcastOnDone(ctx, sw.cond)
	defer stop()
	for sw.pendingRows >= maxRows && !sw.closed {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("wal: backpressure wait: %w", err)
		}
		sw.cond.Wait()
	}
	return nil
}

// Append is Commit without the backpressure wait, for a caller that waited
// in WaitCapacity before taking a lock of its own: it logs rec (a load's
// rows, or a DDL statement's text naming rec.Table) at the shard's next LSN
// and queues it. For a DDL record the channel receives the statement's
// outcome on the shard once applied, or an error if the engine closes
// first. ctx only carries the trace the append's span joins.
func (e *Engine) Append(ctx context.Context, shard int, rec Record) (uint64, <-chan DDLResult, error) {
	if shard < 0 || shard >= len(e.shards) {
		return 0, nil, fmt.Errorf("wal: commit to unknown shard %d", shard)
	}
	var done chan DDLResult
	if rec.DDL != "" {
		done = make(chan DDLResult, 1)
	}
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		span = parent.Child("wal_append")
		defer span.Finish()
	}
	sw := e.shards[shard]
	sw.mu.Lock()
	defer sw.mu.Unlock()
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return 0, nil, fmt.Errorf("wal: engine closed")
	}
	rec.LSN = sw.next
	if err := sw.log.Append(rec, e.opts.Fsync); err != nil {
		return 0, nil, fmt.Errorf("wal: shard %d: %w: %w", shard, ErrLogRefused, err)
	}
	sw.next++
	sw.qmu.Lock()
	if sw.closed {
		sw.tellClosed(queued{rec, done})
	} else {
		sw.pending = append(sw.pending, queued{rec, done})
		sw.pendingRows += len(rec.Rows)
		sw.cond.Broadcast()
	}
	sw.qmu.Unlock()
	if span != nil {
		span.Set("shard", shard)
		span.Set("lsn", rec.LSN)
		span.Set("rows", len(rec.Rows))
		span.Set("fsync", e.opts.Fsync.String())
	}
	return rec.LSN, done, nil
}

// tellClosed answers a DDL record the closed engine will not apply.
func (sw *shardWAL) tellClosed(q queued) {
	if q.done != nil {
		q.done <- DDLResult{Err: fmt.Errorf("wal: engine closed before shard %d applied lsn %d", sw.idx, q.LSN)}
	}
}

// broadcastOnDone broadcasts on cond when ctx ends, so cond.Wait loops see
// the cancellation. The context runs the callback; no goroutine of ours
// waits on ctx. The returned func stops it.
func broadcastOnDone(ctx context.Context, cond *sync.Cond) func() bool {
	return context.AfterFunc(ctx, func() {
		cond.L.Lock()
		cond.Broadcast()
		cond.L.Unlock()
	})
}

// run is the shard's applier: it applies pending records in LSN order, one
// record per store call, passing a load's rows as they are, so the stores'
// files, and scan row order, depend only on the log. A failed load is
// retried until it applies; a failed DDL record is answered with its error.
func (sw *shardWAL) run() {
	defer sw.eng.wg.Done()
	backoff := 10 * time.Millisecond
	for {
		sw.qmu.Lock()
		for !sw.closed && len(sw.pending) == 0 {
			sw.cond.Wait()
		}
		if sw.closed {
			sw.qmu.Unlock()
			return
		}
		q := sw.pending[0]
		replay := q.LSN <= sw.replayTarget
		sw.qmu.Unlock()

		span := trace.New("apply")
		span.Set("shard", sw.idx)
		span.Set("table", q.Table)
		span.Set("rows", len(q.Rows))
		span.Set("lsn", q.LSN)
		msg, err := sw.apply(q.Record)
		span.Finish()
		what := fmt.Sprintf("WAL apply shard %d table %s", sw.idx, q.Table)
		if err != nil && q.DDL == "" {
			// Never drop a logged load: surface the stall, back off, and
			// retry. The record is durable; the operator can see the error
			// in /stats and the flight recorder.
			sw.qmu.Lock()
			sw.stalled = err.Error()
			sw.qmu.Unlock()
			sw.record(span, what, err)
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 10 * time.Millisecond
		if cb := sw.eng.opts.OnApply; cb != nil {
			cb(q.Table, len(q.Rows))
		}

		sw.qmu.Lock()
		// Zero the consumed record before reslicing: the backing array
		// outlives it, and through Record.Rows it would keep every applied
		// record reachable until a later append happened to reallocate it.
		sw.pending[0] = queued{}
		sw.pending = sw.pending[1:]
		sw.pendingRows -= len(q.Rows)
		sw.applied = q.LSN
		sw.batches++
		if replay {
			sw.replayedRows += int64(len(q.Rows))
		}
		sw.stalled = ""
		sw.cond.Broadcast()
		sw.qmu.Unlock()

		if q.done != nil {
			q.done <- DDLResult{Message: msg, Err: err}
		}
		if err != nil || span.Wall() >= slowApply {
			sw.record(span, what, err)
		}
	}
}

// apply hands rec to the shard's stores in order. A load resumes at the
// first store that has not taken it, so a retry loads no store twice. A DDL
// record runs once on every store and reports the first message and error.
func (sw *shardWAL) apply(rec Record) (string, error) {
	if rec.DDL == "" {
		for ; sw.loaded < len(sw.stores); sw.loaded++ {
			if err := sw.stores[sw.loaded].LoadRowsByName(rec.Table, rec.Rows); err != nil {
				return "", err
			}
		}
		sw.loaded = 0
		return "", nil
	}
	var msg string
	var first error
	for i, st := range sw.stores {
		m, err := "", fmt.Errorf("wal: store %d of shard %d cannot apply DDL", i, sw.idx)
		if ds, ok := st.(DDLStore); ok {
			m, err = ds.ApplyDDL(rec.DDL)
		}
		msg, first = cmp.Or(msg, m), cmp.Or(first, err)
	}
	return msg, first
}

func (sw *shardWAL) record(span *trace.Span, what string, err error) {
	rec := sw.eng.opts.Recorder
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

// WaitApplied blocks until shard's applier has applied through lsn, or
// fails when ctx ends or the engine closes first (sync acks use it).
func (e *Engine) WaitApplied(ctx context.Context, shard int, lsn uint64) error {
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("wal: wait on unknown shard %d", shard)
	}
	sw := e.shards[shard]
	sw.qmu.Lock()
	defer sw.qmu.Unlock()
	stop := broadcastOnDone(ctx, sw.cond)
	defer stop()
	for sw.applied < lsn && !sw.closed && ctx.Err() == nil {
		sw.cond.Wait()
	}
	err := ctx.Err()
	if err == nil && sw.applied < lsn {
		err = fmt.Errorf("engine closed with shard %d applied through lsn %d of %d", shard, sw.applied, lsn)
	}
	if err != nil {
		return fmt.Errorf("wal: sync ack wait: %w", err)
	}
	return nil
}

// Drain blocks until every shard's applier has applied everything committed
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
// Unapplied records replay on the next Open (without a directory they are
// dropped: their waits fail).
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
		sw.qmu.Lock()
		sw.closed = true
		sw.cond.Broadcast()
		sw.qmu.Unlock()
	}
	e.wg.Wait()
	for _, sw := range e.shards {
		sw.qmu.Lock()
		for _, q := range sw.pending {
			sw.tellClosed(q)
		}
		sw.qmu.Unlock()
	}
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

// ReplicaStats is a shard applier's WAL position for /stats and /metrics
// (Replica is 0: a shard has one). AppliedBatches counts applied records;
// ReplayedRows the rows applied by recovery replay.
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
		sw.qmu.Lock()
		ss.Replicas = []ReplicaStats{{
			LastLSN:        tail,
			AppliedLSN:     sw.applied,
			PendingRecords: len(sw.pending),
			PendingRows:    sw.pendingRows,
			ReplayedRows:   sw.replayedRows,
			AppliedBatches: sw.batches,
			Stalled:        sw.stalled,
		}}
		sw.qmu.Unlock()
		out = append(out, ss)
	}
	return out
}
