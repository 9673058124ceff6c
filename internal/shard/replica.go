// Per-shard replica sets: each shard of the fleet is R identical warehouse
// copies instead of one. Writes (DDL broadcast, routed loads) apply to every
// replica so the copies never diverge; reads pick one live replica per shard
// — least-loaded first, round-robin among ties — and fail over to the next
// replica when the chosen one errors, so a down replica degrades a shard's
// read capacity instead of failing the whole scatter. Every read — a
// partial, a pass-through statement, a plan, a cursor's stream — is one
// withFailover call: the only loop over pick, running each attempt under
// replica.do's kill supervision.
//
// Health is tracked per replica: consecutive failures past a threshold eject
// the replica from selection, and a timed re-probe lets it earn its way back
// (one trial request after the re-probe interval; success resets the
// failure count, failure re-ejects). Kill/Revive inject the failure mode the
// P2P overlay literature calls node churn: a killed replica refuses new
// requests and aborts in-flight ones, exactly what a crashed store looks
// like to the router.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// ErrReplicaDown marks a request that failed because the chosen replica is
// down (killed, or aborted mid-request by a kill). The router retries such
// failures on the shard's surviving replicas; it only surfaces once a
// shard's replicas are all exhausted.
var ErrReplicaDown = errors.New("shard: replica down")

// replica is one warehouse copy of one shard, with health accounting and the
// kill switch the failover tests (and operators simulating an outage) use.
type replica struct {
	shard, idx int
	w          *hive.Warehouse

	// inflight counts requests currently executing on this replica; the
	// picker prefers the least-loaded live replica.
	inflight atomic.Int64

	mu           sync.Mutex
	fails        int       // consecutive failures
	ejectedUntil time.Time // zero when not ejected
	killed       bool
	killCh       chan struct{} // closed while killed; replaced on Revive
	// catchingUp: revived but still applying the records it is behind by.
	// Excluded from read selection (its data is stale) yet distinct from
	// killed in health reporting — the replica is repairing, not dead.
	catchingUp bool
}

func newReplica(shard, idx int, w *hive.Warehouse) *replica {
	return &replica{shard: shard, idx: idx, w: w, killCh: make(chan struct{})}
}

// Warehouse returns the replica's underlying warehouse (tests and tooling).
func (rep *replica) Warehouse() *hive.Warehouse { return rep.w }

// kill marks the replica down: new requests fail immediately and in-flight
// requests are aborted at their next split boundary.
func (rep *replica) kill() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.killed {
		rep.killed = true
		close(rep.killCh)
	}
	rep.catchingUp = false // dead trumps repairing
}

func (rep *replica) isKilled() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.killed
}

// beginCatchUp revives the replica into the catching-up state with a clean
// health record: back in the fleet (commits append to its log again) but
// excluded from reads until the engine reports it caught up.
func (rep *replica) beginCatchUp() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.killed {
		rep.killed = false
		rep.killCh = make(chan struct{})
	}
	rep.fails = 0
	rep.ejectedUntil = time.Time{}
	rep.catchingUp = true
}

// endCatchUp returns the replica to full read eligibility.
func (rep *replica) endCatchUp() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.catchingUp = false
}

// downErr is the immediate failure a killed replica returns without touching
// its warehouse (the "connection refused" of the model).
func (rep *replica) downErr() error {
	return fmt.Errorf("%w (shard %d replica %d)", ErrReplicaDown, rep.shard, rep.idx)
}

// watchCtx derives a context that additionally ends when the replica is
// killed, so a kill aborts in-flight work on this replica without touching
// its siblings. It returns this request's kill-generation channel: classify
// consults the generation, not the current killed flag, so a Revive racing
// the aborted request cannot disguise the kill as a caller cancellation.
// The caller must call the returned cancel.
func (rep *replica) watchCtx(parent context.Context) (context.Context, context.CancelFunc, <-chan struct{}) {
	rep.mu.Lock()
	killCh := rep.killCh
	rep.mu.Unlock()
	kctx, cancel := context.WithCancel(parent)
	go func() {
		select {
		case <-killCh:
			cancel()
		case <-kctx.Done():
		}
	}()
	return kctx, cancel, killCh
}

// classify maps one request outcome on this replica onto failover semantics:
// a context error while the scatter itself is still live and this request's
// kill generation fired means the replica was killed under the request (a
// replica failure, retryable), not that the caller cancelled. Real errors
// pass through; caller cancellations stay cancellations.
func (rep *replica) classify(parent context.Context, killCh <-chan struct{}, err error) error {
	if err == nil {
		return nil
	}
	killed := false
	select {
	case <-killCh:
		killed = true
	default:
	}
	if killed && isCtxErr(err) && parent.Err() == nil {
		// The context error is deliberately flattened: the caller's ctx is
		// still live (parent.Err() == nil), so surfacing a wrapped
		// cancellation would make the router misclassify a replica kill as
		// the client giving up instead of failing over.
		//dgflint:ignore errwrap a wrapped ctx error here would defeat isCtxErr failover classification
		return fmt.Errorf("%w (shard %d replica %d): aborted in flight: %v", ErrReplicaDown, rep.shard, rep.idx, err)
	}
	return err
}

// do runs one read request against the replica under kill supervision.
// Success resets the health record; failures are counted by the caller
// (replicaSet.noteFailure), which owns the ejection policy.
func (rep *replica) do(parent context.Context, fn func(ctx context.Context) error) error {
	if rep.isKilled() {
		return rep.downErr()
	}
	kctx, cancel, killCh := rep.watchCtx(parent)
	defer cancel()
	rep.inflight.Add(1)
	err := rep.classify(parent, killCh, fn(kctx))
	rep.inflight.Add(-1)
	if err == nil {
		rep.noteSuccess()
	}
	return err
}

func (rep *replica) noteSuccess() {
	rep.mu.Lock()
	rep.fails = 0
	rep.ejectedUntil = time.Time{}
	rep.mu.Unlock()
}

// isCtxErr reports whether err is a context termination (cancel or deadline).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// replicaSet is one shard's R replicas plus the selection state.
type replicaSet struct {
	shard      int
	reps       []*replica
	next       atomic.Uint64 // round-robin tie-break cursor
	ejectAfter int
	reprobe    time.Duration
}

func newReplicaSet(shard int, ejectAfter int, reprobe time.Duration, reps []*replica) *replicaSet {
	return &replicaSet{shard: shard, reps: reps, ejectAfter: ejectAfter, reprobe: reprobe}
}

// noteFailure records one failure on rep under this set's ejection policy,
// reporting whether this strike ejected it (so callers can annotate the
// query's trace with the health consequence of its failures).
func (rs *replicaSet) noteFailure(rep *replica) bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.fails++
	if rep.fails >= rs.ejectAfter {
		ejected := rep.ejectedUntil.IsZero()
		rep.ejectedUntil = time.Now().Add(rs.reprobe)
		return ejected
	}
	return false
}

// live reports whether rep is currently eligible for selection (healthy,
// not ejected, not replaying missed WAL records).
func (rs *replicaSet) live(rep *replica) bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.ejectedUntil.IsZero() && !rep.catchingUp
}

// tryClaimProbe claims rep's re-probe if its ejection window has elapsed:
// claiming pushes the window forward by one re-probe interval under the
// lock, so of any number of concurrent picks exactly one sends the trial
// request and the rest keep using the healthy replicas — a still-dead
// replica costs one failed request per interval, not a thundering probe.
func (rep *replica) tryClaimProbe(reprobe time.Duration) bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.ejectedUntil.IsZero() || time.Now().Before(rep.ejectedUntil) {
		return false
	}
	rep.ejectedUntil = time.Now().Add(reprobe)
	return true
}

// pick chooses the next replica to try, skipping the already-tried set: a
// due re-probe wins first (single-flight — see tryClaimProbe), then the
// least-loaded healthy replica (round-robin among ties); with no healthy
// candidate left the least-recently-ejected one is probed anyway — refusing
// to try at all would fail queries a recovered replica could serve. It
// returns nil once every replica has been tried.
func (rs *replicaSet) pick(tried []bool) *replica {
	for i, rep := range rs.reps {
		if !tried[i] && rep.tryClaimProbe(rs.reprobe) {
			return rep
		}
	}
	start := int(rs.next.Add(1) - 1)
	var best *replica
	var bestLoad int64
	for off := 0; off < len(rs.reps); off++ {
		i := (start + off) % len(rs.reps)
		rep := rs.reps[i]
		if tried[i] || !rs.live(rep) {
			continue
		}
		if load := rep.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = rep, load
		}
	}
	if best != nil {
		return best
	}
	// Every untried replica is ejected and not yet due: probe the one due
	// back soonest. A catching-up replica is never probed — it would answer
	// from stale data, not fail.
	var when time.Time
	for i, rep := range rs.reps {
		if tried[i] {
			continue
		}
		rep.mu.Lock()
		until := rep.ejectedUntil
		catching := rep.catchingUp
		rep.mu.Unlock()
		if catching {
			continue
		}
		if best == nil || until.Before(when) {
			best, when = rep, until
		}
	}
	return best
}

// index returns rep's position in the set.
func (rs *replicaSet) index(rep *replica) int {
	for i, r := range rs.reps {
		if r == rep {
			return i
		}
	}
	return -1
}

// exhaustedErr wraps the last failure once every replica of the shard has
// been tried: the root cause the scatter surfaces for a fully-dead shard.
// An unreplicated shard returns the failure untouched, keeping a Replicas:1
// router's errors identical to an unreplicated one's.
func (rs *replicaSet) exhaustedErr(last error) error {
	if last == nil {
		// Nothing was even tried: every replica is excluded from selection
		// without failing (all catching up after a revive).
		return fmt.Errorf("shard %d: no readable replica: replicas are catching up", rs.shard)
	}
	if len(rs.reps) == 1 {
		return last
	}
	return fmt.Errorf("shard %d: all %d replicas failed: %w", rs.shard, len(rs.reps), last)
}

// withFailover is the one loop over a shard's replicas: it runs fn under
// replica.do's kill supervision against replicas of the shard until one
// succeeds. A replica failure (including a kill that aborted the request in
// flight) moves on to the next live replica; a caller cancellation
// propagates immediately; exhausting every replica returns the last root
// cause. fn learns whether its replica is the shard's last candidate, after
// which no retry can follow.
//
// Health penalties wait until the query proves a sibling could serve it: a
// replica that fails where another then succeeds earns its strike, while a
// query that fails on every replica penalizes no one — the query itself is
// bad (unknown table, bad column), and ejecting healthy replicas over user
// errors would flip /healthz to degraded on a healthy fleet. A down replica
// (ErrReplicaDown) is penalized immediately: refusing requests is never the
// query's fault.
func (rs *replicaSet) withFailover(ctx context.Context, fn func(ctx context.Context, rep *replica, last bool) error) error {
	tried := make([]bool, len(rs.reps))
	untried := len(rs.reps)
	var deferred []*replica
	sp := trace.FromContext(ctx)
	strike := func(rep *replica) {
		if rs.noteFailure(rep) {
			sp.Eventf("replica %d ejected", rep.idx)
		}
	}
	var last error
	for {
		rep := rs.pick(tried)
		if rep == nil {
			return rs.exhaustedErr(last)
		}
		tried[rs.index(rep)] = true
		untried--
		err := rep.do(ctx, func(kctx context.Context) error { return fn(kctx, rep, untried == 0) })
		switch {
		case err == nil:
			for _, failed := range deferred {
				strike(failed)
			}
			return nil
		case isCtxErr(err):
			// The caller's own cancellation (do already reclassified a kill
			// as ErrReplicaDown): not a replica failure, nothing to retry.
			return err
		}
		sp.Eventf("replica %d failed: %v", rep.idx, err)
		if errors.Is(err, ErrReplicaDown) {
			strike(rep)
		} else {
			deferred = append(deferred, rep)
		}
		last = err
	}
}

// execPartial is the scatter's per-shard unit of work under failover.
func (rs *replicaSet) execPartial(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (*hive.PartialResult, int, error) {
	var part *hive.PartialResult
	chosen := -1
	err := rs.withFailover(ctx, func(kctx context.Context, rep *replica, _ bool) error {
		p, err := rep.w.SelectPartialContext(kctx, s, opts)
		if err != nil {
			return err
		}
		part, chosen = p, rep.idx
		return nil
	})
	return part, chosen, err
}

// execStmt runs one full statement on the shard under failover (the
// pass-through and catalog paths).
func (rs *replicaSet) execStmt(ctx context.Context, stmt hive.Stmt, opts hive.ExecOptions) (*hive.Result, error) {
	var res *hive.Result
	err := rs.withFailover(ctx, func(kctx context.Context, rep *replica, _ bool) error {
		r, err := rep.w.ExecParsedContext(kctx, stmt, opts)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	return res, err
}

// explain plans the SELECT on one live replica under failover, reporting
// which replica answered (EXPLAIN's per-shard chosen replica).
func (rs *replicaSet) explain(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (*hive.ExplainPlan, int, error) {
	var plan *hive.ExplainPlan
	chosen := -1
	err := rs.withFailover(ctx, func(_ context.Context, rep *replica, _ bool) error {
		p, err := rep.w.Explain(s, opts)
		if err != nil {
			return err
		}
		plan, chosen = p, rep.idx
		return nil
	})
	return plan, chosen, err
}

// ReplicaHealth is one replica's health record, surfaced through
// Router.Health, the server's /stats, and /healthz.
type ReplicaHealth struct {
	Replica int `json:"replica"`
	// Live: eligible for selection (not killed and not currently ejected).
	Live bool `json:"live"`
	// Killed: down via Kill (operator- or test-injected outage).
	Killed bool `json:"killed,omitempty"`
	// CatchingUp: revived and replaying missed WAL records; excluded from
	// reads until the replay completes, but repairing rather than dead.
	CatchingUp bool `json:"catching_up,omitempty"`
	// ConsecutiveFailures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// EjectedForMs is how long until the next re-probe (0 when not ejected).
	EjectedForMs int64 `json:"ejected_for_ms,omitempty"`
	// Inflight requests currently executing on the replica.
	Inflight int64 `json:"inflight,omitempty"`
}

// SetHealth is one shard's replica-set health summary.
type SetHealth struct {
	Shard    int `json:"shard"`
	Replicas int `json:"replicas"`
	// Live counts replicas currently eligible for reads; 0 means the shard
	// cannot answer and scatters over it will fail.
	Live int `json:"live"`
	// CatchingUp counts replicas replaying missed WAL records.
	CatchingUp int             `json:"catching_up,omitempty"`
	Detail     []ReplicaHealth `json:"detail"`
}

// health snapshots the set.
func (rs *replicaSet) health() SetHealth {
	sh := SetHealth{Shard: rs.shard, Replicas: len(rs.reps)}
	now := time.Now()
	for i, rep := range rs.reps {
		rep.mu.Lock()
		h := ReplicaHealth{
			Replica:             i,
			Killed:              rep.killed,
			CatchingUp:          rep.catchingUp,
			ConsecutiveFailures: rep.fails,
			Inflight:            rep.inflight.Load(),
		}
		if !rep.ejectedUntil.IsZero() && now.Before(rep.ejectedUntil) {
			h.EjectedForMs = rep.ejectedUntil.Sub(now).Milliseconds()
		}
		h.Live = !rep.killed && !rep.catchingUp && h.EjectedForMs == 0
		rep.mu.Unlock()
		if h.Live {
			sh.Live++
		}
		if h.CatchingUp {
			sh.CatchingUp++
		}
		sh.Detail = append(sh.Detail, h)
	}
	return sh
}
