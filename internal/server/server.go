// Package server is the concurrent query-serving subsystem in front of the
// warehouse fleet: the paper positions DGFIndex as what makes Hive viable
// for the State Grid's online analytics, where many operators issue
// multidimensional range queries against one shared meter table at once.
//
// A Server always fronts a shard router — one warehouse is a 1x1 fleet,
// which passes statements through bit-identically — so there is one
// deployment shape: health, the write path and streaming are the same behind
// every server. The router is handed over empty: the server opens its engine
// before the first statement, so everything the fleet holds went through
// that engine's logs. On top of the router the server adds three things:
//
//   - admission control: a bounded worker pool executes queries with a
//     configurable parallelism, a bounded wait queue sheds overload, and
//     shutdown drains in-flight work gracefully;
//   - caching: SELECT results are served from an LRU result cache keyed by
//     normalized SQL plus the read tables' version counters, so any DDL or
//     LOAD invalidates exactly the dependent entries;
//   - observability: per-session and server-wide metrics (query counts,
//     latency histogram, simulated cluster-seconds, records/bytes read,
//     cache hit rates) in the same terms as the paper's figures.
//
// Query, QueryStream and LoadRowsCtx run one request lifecycle (see call):
// admission, root span, parse, deadline, worker slot, and one metrics
// and flight-recorder epilogue.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// Backend is the method set of *shard.Router the server calls, and
// *shard.Router is the one implementation: the interface exists so tests can
// decorate a real router (park its apply hook, observe an execution), not to
// admit other backend shapes. Everything else — admission, caching, metrics
// — is the server's own.
type Backend interface {
	// ExecParsedContext executes an already-parsed statement under ctx: a
	// ctx that ends mid-scan aborts the underlying job within one split
	// boundary and returns an error wrapping ctx.Err(), never a partial
	// result.
	ExecParsedContext(ctx context.Context, stmt hive.Stmt, opts hive.ExecOptions) (*hive.Result, error)
	// SelectCursor opens a streaming cursor over one SELECT; cancelling ctx
	// or closing the cursor aborts the scan.
	SelectCursor(ctx context.Context, stmt *hive.SelectStmt, opts hive.ExecOptions) (hive.Cursor, error)
	// LoadRowsDurable appends rows to the named table through the router's
	// engine: committed, and — with sync, or always when the engine has no
	// log directory — applied before the ack.
	LoadRowsDurable(ctx context.Context, table string, rows []storage.Row, sync bool) (shard.LoadAck, error)
	// TableVersions snapshots the named tables' mutation counters; the
	// counters must only ever grow (result-cache keys depend on it).
	TableVersions(names ...string) map[string]uint64
	// TableSchema returns the named table's column schema.
	TableSchema(name string) (*storage.Schema, error)
	// TableInfos snapshots the catalog for /tables.
	TableInfos() []hive.TableInfo
	// Health snapshots per-shard replica health for /stats and /healthz.
	Health() []shard.SetHealth
	// EnableWAL, WALStats, DrainWAL and CloseWAL are the engine's lifecycle:
	// the server opens it with its hooks (over Config.WALDir, if set) before
	// anything has committed — it is refused after — reads its positions for
	// /stats, and drains and closes it in Close.
	EnableWAL(opts wal.Options) error
	WALStats() []wal.ShardStats
	DrainWAL(ctx context.Context) error
	CloseWAL() error
}

// Sentinel errors returned by Query.
var (
	// ErrOverloaded reports that the worker pool and its wait queue are
	// full; the caller should back off and retry.
	ErrOverloaded = errors.New("server: overloaded, admission queue full")
	// ErrClosed reports that the server is draining or closed.
	ErrClosed = errors.New("server: closed")
	// ErrQueryTimeout reports that the query exceeded its deadline. The
	// underlying job keeps its worker slot until it finishes; the slot is
	// then returned to the pool.
	ErrQueryTimeout = errors.New("server: query timeout")
)

// Config tunes a Server. The zero value selects the documented defaults.
type Config struct {
	// MaxConcurrent is the worker-pool size: how many queries execute in
	// parallel. Default 8.
	MaxConcurrent int
	// MaxQueue bounds how many admitted queries may wait for a worker
	// beyond the pool itself; past that Query returns ErrOverloaded.
	// Default 64.
	MaxQueue int
	// DefaultTimeout applies to requests that carry no timeout of their
	// own. Default 30s; negative disables.
	DefaultTimeout time.Duration
	// CacheEntries sizes the result cache (0 uses the default 256;
	// negative disables caching).
	CacheEntries int
	// MaxResultBytes caps the result cache by total row-payload bytes:
	// past the budget, least-recently-used entries evict until the cache
	// fits, and a single result larger than the budget is never cached.
	// Zero means no byte cap (the entry cap still applies); negative
	// disables result caching entirely.
	MaxResultBytes int64
	// SlowQueryMs is the flight recorder's slow threshold in milliseconds:
	// a query at or above it (or one that errors) has its trace retained.
	// Zero uses the default 500; negative records errored queries only.
	SlowQueryMs int
	// TraceRingSize bounds the flight recorder: the N most recent
	// slow/errored traces are kept. Zero uses the default 64; negative
	// disables the recorder entirely (queries are then only traced on
	// request via Request.Trace).
	TraceRingSize int
	// WALDir gives the write path a log directory: loads append to one
	// write-ahead log per shard under it before they are acknowledged, so
	// they survive a restart and acks need not wait for the apply. Empty
	// runs the same commit → apply pipeline with nothing stored: an ack
	// means applied.
	WALDir string
	// FsyncPolicy selects WAL append durability: "always", "interval"
	// (default), or "off". It is validated at boot either way and has
	// nothing to act on without WALDir.
	FsyncPolicy string
	// MaxLoadBytes bounds a POST /load request body; larger bodies are
	// rejected with 413. Zero uses the default 32 MiB; negative disables
	// the bound.
	MaxLoadBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 256
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.MaxResultBytes < 0 {
		c.CacheEntries = 0
		c.MaxResultBytes = 0
	}
	if c.SlowQueryMs == 0 {
		c.SlowQueryMs = 500
	}
	switch {
	case c.TraceRingSize == 0:
		c.TraceRingSize = 64
	case c.TraceRingSize < 0:
		c.TraceRingSize = 0
	}
	if c.MaxLoadBytes == 0 {
		c.MaxLoadBytes = 32 << 20
	}
	return c
}

// Request is one query submission.
type Request struct {
	// SQL is the HiveQL statement to execute.
	SQL string
	// Session attributes the query to a session for metrics; empty means
	// the "default" session.
	Session string
	// Timeout overrides Config.DefaultTimeout when positive; negative
	// disables the deadline for this request.
	Timeout time.Duration
	// NoCache bypasses the result cache for this request (both lookup and
	// fill).
	NoCache bool
	// Trace asks for the query's span tree in Response.Trace. Traced
	// requests skip the result cache's fast path only in the sense that a
	// cache hit still produces a (shallow) trace showing the hit.
	Trace bool
}

// Response is the outcome of one query.
type Response struct {
	// Result is the statement outcome. Cached responses share one Result
	// across callers: treat Columns and Rows as read-only.
	Result *hive.Result
	// Cached reports a result-cache hit.
	Cached bool
	// Session is the session the query was attributed to.
	Session string
	// Wall is the end-to-end service time, queueing included.
	Wall time.Duration
	// Trace is the query's span tree, present only when Request.Trace was
	// set. Its root wall duration equals Wall exactly.
	Trace *trace.SpanSnapshot
}

// Session carries per-session serving metrics.
type Session struct {
	id string
	m  *metricSet
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Snapshot returns the session's metrics.
func (s *Session) Snapshot() MetricsSnapshot { return s.m.snapshot() }

// Server turns a shard router (one warehouse is the 1x1 fleet) into a
// concurrent query service.
type Server struct {
	b   Backend
	cfg Config

	sem chan struct{} // worker slots

	mu         sync.Mutex // guards draining, admitted, counters below
	cond       *sync.Cond // signalled on admitted decrements
	draining   bool
	admitted   int // admitted queries not yet fully finished (queued, running, or abandoned-by-timeout)
	rejected   int64
	loads      int64
	rowsLoaded int64

	results *resultCache

	sessMu   sync.Mutex
	sessions map[string]*Session

	metrics  *metricSet
	recorder *trace.Recorder // nil when TraceRingSize < 0
	started  time.Time

	// walErr records why the engine could not be opened as configured —
	// loads then fail with it instead of silently falling back to whatever
	// engine the router had.
	walErr      error
	rowsApplied atomic.Int64 // rows the engine's appliers wrote into warehouses
}

// NewWithBackend wraps a shard router in a server and opens the router's
// load engine with the server's hooks — over Config.WALDir when set — so the
// router must not have committed anything yet. A failure to open it (a log
// that will not open, or a router that has already committed) is deferred
// into WALError (and every load) rather than panicking, because
// construction has no error return. Close releases the engine's goroutines.
func NewWithBackend(b Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		b:        b,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		results:  newResultCache(cfg.CacheEntries, cfg.MaxResultBytes),
		sessions: map[string]*Session{},
		metrics:  newMetricSet(),
		recorder: trace.NewRecorder(cfg.TraceRingSize),
		started:  time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.walErr = s.enableWAL()
	return s
}

func (s *Server) enableWAL() error {
	policy, err := wal.ParsePolicy(s.cfg.FsyncPolicy)
	if err != nil {
		return err
	}
	return s.b.EnableWAL(wal.Options{
		Dir:   s.cfg.WALDir,
		Fsync: policy,
		// Invalidation at apply time: a cached result only goes stale when
		// rows actually land in the warehouse, which is also the moment
		// table versions move.
		OnApply: func(table string, rows int) {
			s.results.invalidateTables([]string{strings.ToLower(table)})
			s.rowsApplied.Add(int64(rows))
		},
		Recorder: s.recorder,
	})
}

// WALError reports why the load engine could not be opened as configured
// (nil when it is working). Daemons should treat a non-nil value as a boot
// failure: loads will refuse rather than degrade to non-durable.
func (s *Server) WALError() error { return s.walErr }

// WALStats snapshots the engine's per-shard positions.
func (s *Server) WALStats() []wal.ShardStats { return s.b.WALStats() }

// maxSessions bounds the session map: ids arrive from untrusted HTTP
// parameters, and per-session metric sets must not grow memory (or the
// /stats payload) without limit. Past the cap, new ids share one overflow
// session.
const maxSessions = 1024

// Session returns the named session, creating it on first use. An empty id
// maps to "default"; once maxSessions distinct ids exist, further new ids
// are pooled into the "overflow" session.
func (s *Server) Session(id string) *Session {
	if id == "" {
		id = "default"
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		if len(s.sessions) >= maxSessions {
			id = "overflow"
			if sess, ok = s.sessions[id]; ok {
				return sess
			}
		}
		sess = &Session{id: id, m: newMetricSet()}
		s.sessions[id] = sess
	}
	return sess
}

// admit reserves an admission slot; release returns it.
func (s *Server) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrClosed
	}
	if s.admitted >= s.cfg.MaxConcurrent+s.cfg.MaxQueue {
		s.rejected++
		return ErrOverloaded
	}
	s.admitted++
	return nil
}

func (s *Server) release() {
	s.mu.Lock()
	s.admitted--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// call is one admitted request on its way through the serving lifecycle
// Query, QueryStream and LoadRowsCtx share: begin admits it and opens the
// root span, plan parses its statement, acquire bounds it with the deadline
// and waits for a worker slot, and finish is the metrics and flight-recorder
// epilogue. A load has no statement to plan and
// is bounded by WAL backpressure instead of the worker pool, so it goes
// straight from begin to finish.
type call struct {
	s      *Server
	sess   *Session // nil for a load: loads are not attributed to sessions
	sql    string
	start  time.Time
	root   *trace.Span // nil when neither the caller nor the recorder wants the tree
	queued time.Duration
}

// begin opens a call: it opens the root span and reserves an admission
// slot, which the caller owns (and must release) from then on. The root span
// opens whenever anyone could want the tree: the caller asked (traced), or
// the flight recorder is armed — it cannot know in advance which requests
// will turn out slow, so it traces all of them.
func (s *Server) begin(name string, sess *Session, sql string, traced bool) (*call, error) {
	c := &call{s: s, sess: sess, sql: sql, start: time.Now()}
	if traced || s.recorder != nil {
		c.root = trace.NewAt(name, c.start)
		if sess != nil {
			c.root.Set("session", sess.id)
		}
	}
	if err := s.admit(); err != nil {
		return nil, err
	}
	return c, nil
}

// plan parses the call's SQL and returns its normal form, the result
// cache's key.
func (c *call) plan() (norm string, stmt hive.Stmt, err error) {
	psp := c.root.Child("plan")
	defer psp.Finish()
	stmt, norm, err = hive.ParseNormal(c.sql)
	return norm, stmt, err
}

// acquire bounds the call with its deadline (timeout, else
// Config.DefaultTimeout; negative disables) and waits for a worker slot. The
// wait is accounted separately from execution
// (MetricsSnapshot.QueueWaitSeconds) so a saturated pool shows up as
// admission pressure, not as slow queries. On success the caller owns the
// slot and the cancel; the returned context carries the root span, so the
// router's scatter and each warehouse's execution hang their child spans off
// this request's tree.
func (c *call) acquire(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc, error) {
	if timeout == 0 {
		timeout = c.s.cfg.DefaultTimeout
	}
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	asp := c.root.Child("admission")
	defer asp.Finish()
	queueStart := time.Now()
	select {
	case c.s.sem <- struct{}{}:
		c.queued = time.Since(queueStart)
		return trace.NewContext(ctx, c.root), cancel, nil
	case <-ctx.Done():
		c.queued = time.Since(queueStart)
		asp.Eventf("gave up waiting for a worker slot")
		cancel()
		return nil, nil, ctx.Err()
	}
}

// finish is the one epilogue: it maps a context termination onto the
// server's sentinels, observes a query in the server and session metrics
// (res may be nil, or carry only the partial stats of an aborted stream),
// closes the root span and feeds the flight recorder. It returns the served
// wall time, the final span tree (nil when untraced) and the mapped error.
func (c *call) finish(res *hive.Result, cached bool, err error) (time.Duration, *trace.SpanSnapshot, error) {
	err = ctxError(err)
	wall := time.Since(c.start)
	if c.sess != nil {
		isTimeout := errors.Is(err, ErrQueryTimeout)
		c.s.metrics.observe(wall, c.queued, res, cached, isTimeout, err != nil)
		c.sess.m.observe(wall, c.queued, res, cached, isTimeout, err != nil)
	}
	if c.root == nil {
		return wall, nil, err
	}
	// Finishing at start+wall makes the root's wall duration equal the
	// reported wall exactly, not up to a second clock read.
	c.root.FinishAt(c.start.Add(wall))
	snap := c.root.Snapshot()
	c.s.record(c.sql, c.sess, wall, err, snap)
	return wall, &snap, err
}

// Query executes one statement under admission control, consulting the
// result cache. It blocks while waiting for a worker slot (until the
// request deadline) and is safe to call from any number of goroutines.
func (s *Server) Query(ctx context.Context, req Request) (*Response, error) {
	c, err := s.begin("query", s.Session(req.Session), req.SQL, req.Trace)
	if err != nil {
		return nil, err
	}
	handoff := false // true once a worker goroutine owns the admission slot
	defer func() {
		if !handoff {
			s.release()
		}
	}()
	reply := func(res *hive.Result, cached bool, err error) (*Response, error) {
		wall, snap, err := c.finish(res, cached, err)
		if err != nil {
			return nil, err
		}
		resp := &Response{Result: res, Cached: cached, Session: c.sess.id, Wall: wall}
		if req.Trace {
			resp.Trace = snap
		}
		return resp, nil
	}

	norm, stmt, err := c.plan()
	if err != nil {
		return reply(nil, false, err)
	}
	tables := hive.StatementTables(stmt)
	readOnly := hive.IsReadOnly(stmt)
	// Only plain SELECTs are cached: their keys carry the read tables'
	// versions, which is what makes invalidation sound. Catalog statements
	// (SHOW TABLES, DESCRIBE) reference no versioned table — caching them
	// could serve a stale catalog — and they cost nothing to re-run.
	_, isSelect := stmt.(*hive.SelectStmt)
	cacheable := readOnly && isSelect && !req.NoCache && s.cfg.CacheEntries > 0

	// Result cache. The key carries the read tables' versions as of *before*
	// execution: versions only grow, so a hit proves no mutation happened
	// between key construction and lookup and the entry is exact; a result
	// is never older than its key (see resultCache).
	var key string
	if cacheable {
		csp := c.root.Child("result_cache")
		key = cacheKey(norm, tables, s.b.TableVersions(tables...))
		res, hit := s.results.get(key)
		csp.Set("hit", hit)
		csp.Finish()
		if hit {
			return reply(res, true, nil)
		}
	}

	ctx, cancel, err := c.acquire(ctx, req.Timeout)
	if err != nil {
		return reply(nil, false, err)
	}
	defer cancel()

	// Execute on a worker goroutine that owns the slot and the admission
	// reservation. The backend call runs under the request ctx, so a missed
	// deadline or an abandoning caller actually aborts the scan (within one
	// split boundary) instead of the job holding its worker slot to
	// completion; the goroutine frees its resources as soon as the abort
	// surfaces, keeping drain and admission accounting exact. (A timed-out
	// caller snapshots the span tree mid-flight; spans are concurrency-safe
	// and unfinished ones report elapsed time.)
	type outcome struct {
		res *hive.Result
		err error
	}
	handoff = true
	ch := make(chan outcome, 1)
	go func() {
		res, err := s.b.ExecParsedContext(ctx, stmt, hive.ExecOptions{})
		// Free the slot and the reservation before handing the outcome
		// over: once Query returns, its request is no longer in flight.
		<-s.sem
		s.release()
		ch <- outcome{res, err}
	}()

	select {
	case out := <-ch:
		if out.err != nil {
			return reply(nil, false, out.err)
		}
		if cacheable {
			s.results.put(key, tables, out.res)
		}
		if !readOnly {
			s.results.invalidateTables(tables)
		}
		return reply(out.res, false, nil)
	case <-ctx.Done():
		return reply(nil, false, ctx.Err())
	}
}

// record feeds the flight recorder: a finished request whose wall time
// crossed the slow threshold, or one that errored, has its trace retained.
func (s *Server) record(sql string, sess *Session, wall time.Duration, err error, snap trace.SpanSnapshot) {
	if s.recorder == nil {
		return
	}
	slow := s.cfg.SlowQueryMs > 0 && wall >= time.Duration(s.cfg.SlowQueryMs)*time.Millisecond
	if !slow && err == nil {
		return
	}
	rec := trace.Record{
		Time:   time.Now(),
		SQL:    sql,
		WallMs: float64(wall.Microseconds()) / 1e3,
		Slow:   slow,
		Trace:  snap,
	}
	if sess != nil {
		rec.Session = sess.id
	}
	if err != nil {
		rec.Error = err.Error()
	}
	s.recorder.Add(rec)
}

// SlowTraces returns the flight recorder's retained records, newest first
// (nil when the recorder is disabled). Served at /debug/slow and dumped on
// SIGQUIT by the daemon.
func (s *Server) SlowTraces() []trace.Record {
	return s.recorder.Snapshot()
}

// ctxError is the one place a context termination maps onto the server's
// sentinel errors, shared by every entry point through call.finish. It
// classifies both forms an expired request takes — the request ctx's own
// Err(), and the wrapped ctx error a mid-scan abort bubbles up through the
// execution stack — so a missed deadline is always ErrQueryTimeout (counted
// as a timeout in metrics, HTTP 504) no matter where the deadline caught
// the query, and a caller cancellation (an HTTP client disconnecting
// mid-scan) is always a cancellation, not a timeout. Errors unrelated to a
// context pass through unchanged.
func ctxError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrQueryTimeout):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		// The deadline error is deliberately flattened: ErrQueryTimeout must
		// be the only sentinel callers can errors.Is against, or retry logic
		// keyed on context.DeadlineExceeded would fire on server-side
		// per-query timeouts too.
		//dgflint:ignore errwrap ErrQueryTimeout must stay the only unwrappable sentinel
		return fmt.Errorf("%w: %v", ErrQueryTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("server: request canceled: %w", err)
	default:
		return err
	}
}

// cacheKey renders "normalized sql @ table:version,..." deterministically.
func cacheKey(norm string, tables []string, versions map[string]uint64) string {
	names := append([]string(nil), tables...)
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(norm)
	b.WriteString(" @ ")
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", n, versions[n])
	}
	return b.String()
}

// ShardHealth returns the router's per-shard replica health.
func (s *Server) ShardHealth() []shard.SetHealth { return s.b.Health() }

// Stream is one in-flight streaming query: the cursor plus the serving
// resources it holds (a worker slot, an admission reservation, the request
// deadline). The caller must Close it — that aborts an unfinished scan,
// releases the slot, and records the query in the serving metrics. Close is
// idempotent.
type Stream struct {
	hive.Cursor
	// Session is the session the query is attributed to.
	Session string

	c      *call
	cancel context.CancelFunc
	once   sync.Once
}

// Close aborts the scan if still running, observes the final (possibly
// partial) stats in the server and session metrics, and releases the worker
// slot and admission reservation.
func (st *Stream) Close() error {
	st.once.Do(func() {
		st.Cursor.Close()
		st.cancel()
		st.c.finish(&hive.Result{Stats: st.Cursor.Stats()}, false, st.Cursor.Err())
		<-st.c.s.sem
		st.c.s.release()
	})
	return nil
}

// TraceSnapshot returns the stream's span tree so far, or nil when the
// stream is untraced. After Close the tree is final; before it, running
// spans report their elapsed time.
func (st *Stream) TraceSnapshot() *trace.SpanSnapshot {
	if st.c.root == nil {
		return nil
	}
	sn := st.c.root.Snapshot()
	return &sn
}

// Err returns the scan's terminal error mapped onto the server's sentinel
// errors (a mid-scan deadline becomes ErrQueryTimeout, exactly as it does
// for a non-streaming Query).
func (st *Stream) Err() error { return ctxError(st.Cursor.Err()) }

// QueryStream executes one SELECT under admission control and returns a
// Stream delivering rows as the scan produces them. Streaming queries
// bypass the result cache in both directions (there is no materialized
// result to cache) but run the same lifecycle as Query: the parse, the
// worker pool, and the timeout discipline — the request ctx plus the
// configured timeout bound the whole stream, and cancelling either aborts
// the scan within one split boundary.
func (s *Server) QueryStream(ctx context.Context, req Request) (*Stream, error) {
	c, err := s.begin("query", s.Session(req.Session), req.SQL, req.Trace)
	if err != nil {
		return nil, err
	}
	c.root.Set("stream", true)
	fail := func(err error) (*Stream, error) {
		_, _, err = c.finish(nil, false, err)
		s.release()
		return nil, err
	}

	_, stmt, err := c.plan()
	if err != nil {
		return fail(err)
	}
	sel, isSelect := stmt.(*hive.SelectStmt)
	if !isSelect {
		return fail(fmt.Errorf("server: only SELECT statements can stream (got %T)", stmt))
	}
	// The stream holds the worker slot until Close.
	ctx, cancel, err := c.acquire(ctx, req.Timeout)
	if err != nil {
		return fail(err)
	}
	cur, err := s.b.SelectCursor(ctx, sel, hive.ExecOptions{})
	if err != nil {
		<-s.sem
		cancel()
		return fail(err)
	}
	return &Stream{Cursor: cur, Session: c.sess.id, c: c, cancel: cancel}, nil
}

// LoadResult describes one acknowledged load.
type LoadResult struct {
	// Invalidated is how many cached results were evicted between the
	// load's start and its ack: by its own applies (the engine's hook), by
	// the ack itself, and by any other load that applied meanwhile. Rows
	// that apply after the ack evict later and are not counted.
	Invalidated int
	// Durable is true when the load is in a write-ahead log on disk, false
	// when the engine has no log directory.
	Durable bool
	// Applied is true once the rows are confirmed queryable: always without
	// a log directory, only for sync=true acks with one.
	Applied bool
	// LSN is the highest sequence number the engine assigned the load.
	LSN uint64
}

// LoadRowsCtx appends rows to the named table through the server, counting
// the load in the serving metrics (Snapshot.Loads, Snapshot.RowsLoaded) and
// evicting dependent cache entries eagerly. (Loads made directly on the
// router stay correct — version-qualified keys can never serve stale data —
// but bypass both.) Behind a log directory the call returns once the rows
// are logged in every touched shard's log (sync=false) or applied there
// (sync=true); without one it always returns once they are applied. ctx
// bounds both waits, and the wait for room in a backlogged shard's queue.
func (s *Server) LoadRowsCtx(ctx context.Context, table string, rows []storage.Row, sync bool) (LoadResult, error) {
	if s.walErr != nil {
		return LoadResult{}, fmt.Errorf("server: durable ingest unavailable: %w", s.walErr)
	}
	c, err := s.begin("load", nil, "LOAD "+table, false)
	if err != nil {
		return LoadResult{}, err
	}
	defer s.release()
	c.root.Set("table", table)
	c.root.Set("rows", len(rows))
	evicted := s.results.stats().Invalidations
	ack, err := s.b.LoadRowsDurable(trace.NewContext(ctx, c.root), table, rows, sync)
	if _, _, err = c.finish(nil, false, err); err != nil {
		return LoadResult{}, err
	}
	s.mu.Lock()
	s.loads++
	s.rowsLoaded += int64(len(rows))
	s.mu.Unlock()
	s.results.invalidateTables([]string{strings.ToLower(table)})
	return LoadResult{
		Invalidated: int(s.results.stats().Invalidations - evicted),
		Durable:     ack.Durable,
		Applied:     ack.Applied,
		LSN:         ack.MaxLSN,
	}, nil
}

// Close stops admitting new queries and waits until every admitted query —
// queued, running, or abandoned by a timed-out caller — has finished, or
// until ctx expires (the context's error is returned and workers keep
// draining in the background). It then drains the load engine — every
// acknowledged load is applied — and closes it, joining its appliers;
// records it could not apply before ctx expired stay in the logs (if there
// is a log directory) and replay on the next boot.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.admitted > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.walErr != nil {
		return nil // the server only closes an engine it opened
	}
	if err := s.b.DrainWAL(ctx); err != nil {
		s.b.CloseWAL() // flushes; undrained records replay on reboot
		return err
	}
	return s.b.CloseWAL()
}

// Draining reports whether Close has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// InFlight returns the number of admitted, unfinished queries.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted
}

// Snapshot is the full server state for /stats.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	InFlight      int     `json:"in_flight"`
	Rejected      int64   `json:"rejected"`
	Loads         int64   `json:"loads"`
	RowsLoaded    int64   `json:"rows_loaded"`
	// ResultInvalidations counts cached results evicted because a table
	// they read mutated (LOAD or DDL) — the invalidation churn of the
	// serving fleet.
	ResultInvalidations int64 `json:"result_invalidations"`
	// SlowTraces counts flight-recorder records ever taken (including
	// records the ring has since evicted).
	SlowTraces    int64                      `json:"slow_traces"`
	MaxConcurrent int                        `json:"max_concurrent"`
	MaxQueue      int                        `json:"max_queue"`
	Server        MetricsSnapshot            `json:"server"`
	Sessions      map[string]MetricsSnapshot `json:"sessions"`
	ResultCache   CacheStats                 `json:"result_cache"`
	// Shards reports per-shard replica health: replicas per shard, how many
	// are live, and each replica's in-flight count. A single-warehouse
	// server reports its one shard with one replica.
	Shards []shard.SetHealth `json:"shards,omitempty"`
	// RowsApplied counts every row the engine's appliers wrote into a
	// shard's warehouse, once.
	RowsApplied int64 `json:"rows_applied"`
	// WAL reports per-shard engine positions — queue depth, applied LSN
	// lag, rows replayed at recovery.
	WAL []wal.ShardStats `json:"wal"`
}

// Stats snapshots the server-wide and per-session metrics.
func (s *Server) Stats() Snapshot {
	s.mu.Lock()
	rejected, inflight, draining := s.rejected, s.admitted, s.draining
	loads, rowsLoaded := s.loads, s.rowsLoaded
	s.mu.Unlock()
	sessions := map[string]MetricsSnapshot{}
	s.sessMu.Lock()
	for id, sess := range s.sessions {
		sessions[id] = sess.m.snapshot()
	}
	s.sessMu.Unlock()
	rc := s.results.stats()
	return Snapshot{
		UptimeSeconds:       time.Since(s.started).Seconds(),
		Draining:            draining,
		InFlight:            inflight,
		Rejected:            rejected,
		Loads:               loads,
		RowsLoaded:          rowsLoaded,
		ResultInvalidations: rc.Invalidations,
		SlowTraces:          s.recorder.Total(),
		MaxConcurrent:       s.cfg.MaxConcurrent,
		MaxQueue:            s.cfg.MaxQueue,
		Server:              s.metrics.snapshot(),
		Sessions:            sessions,
		ResultCache:         rc,
		Shards:              s.ShardHealth(),
		RowsApplied:         s.rowsApplied.Load(),
		WAL:                 s.WALStats(),
	}
}
