// Executors: each shard of the fleet is one warehouse — one dfs, one
// key-value store, one applier on the shard's log — served by R replicas.
// The paper's deployment holds state once: HDFS replicates blocks beneath
// stateless Hive servers, and HBase holds each GFU pair once. So a replica
// here is an executor, not a store: it runs reads against its shard's
// warehouse and has its own liveness, in-flight count and kill switch.
//
// Kill/Revive inject the failure mode the P2P overlay literature calls node
// churn. A killed replica refuses new reads and aborts its in-flight ones,
// exactly what a crashed server looks like to the router; applies, loads and
// DDL go on, because the storage they write outlives the server. Reads pick
// one live replica per shard — least-loaded first, round-robin among ties —
// and retry on a sibling only when the chosen one went down (ErrReplicaDown):
// any other error is the statement's own, since a sibling reads the same
// warehouse. Every read — a partial, a pass-through statement, a plan, a
// cursor's stream — is one withFailover call: the only loop over pick,
// running each attempt under replica.do's kill supervision.
package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// ErrReplicaDown marks a request that failed because the chosen replica is
// down (killed, or aborted mid-request by a kill). The router retries such
// failures on the shard's surviving replicas; it only surfaces once a
// shard's replicas are all down.
var ErrReplicaDown = errors.New("shard: replica down")

// replica is one executor of one shard, with the kill switch the failover
// tests (and operators simulating an outage) use.
type replica struct {
	shard, idx int

	// inflight counts requests currently executing on this replica; the
	// picker prefers the least-loaded live replica.
	inflight atomic.Int64

	// life is the current kill generation: kill ends it, and revive starts
	// the next one. Its Err is non-nil while the replica is killed.
	mu   sync.Mutex
	life context.Context
	end  context.CancelFunc
}

func newReplica(shard, idx int) *replica {
	rep := &replica{shard: shard, idx: idx}
	rep.begin()
	return rep
}

// begin starts a kill generation.
func (rep *replica) begin() {
	//dgflint:ignore ctxflow a kill generation belongs to the replica and outlives every request, so no caller's ctx is its parent
	rep.life, rep.end = context.WithCancel(context.Background())
}

// kill marks the replica down: new requests fail immediately and in-flight
// requests are aborted at their next split boundary.
func (rep *replica) kill() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.end()
}

// revive makes a killed replica live again.
func (rep *replica) revive() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.life.Err() != nil {
		rep.begin()
	}
}

// generation returns the current kill generation.
func (rep *replica) generation() context.Context {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.life
}

func (rep *replica) isKilled() bool { return rep.generation().Err() != nil }

// downErr is the immediate failure a killed replica returns without touching
// the warehouse (the "connection refused" of the model).
func (rep *replica) downErr() error {
	return fmt.Errorf("%w (shard %d replica %d)", ErrReplicaDown, rep.shard, rep.idx)
}

// classify maps one request outcome on this replica onto failover semantics:
// a context error while the scatter itself is still live and this request's
// kill generation ended means the replica was killed under the request (a
// replica failure, retryable), not that the caller cancelled. It reads the
// generation the request started in, not the current one, so a Revive racing
// the aborted request cannot disguise the kill as a caller cancellation.
// Real errors pass through; caller cancellations stay cancellations.
func (rep *replica) classify(parent, life context.Context, err error) error {
	if err == nil {
		return nil
	}
	if life.Err() != nil && isCtxErr(err) && parent.Err() == nil {
		// The context error is deliberately flattened: the caller's ctx is
		// still live (parent.Err() == nil), so surfacing a wrapped
		// cancellation would make the router misclassify a replica kill as
		// the client giving up instead of failing over.
		//dgflint:ignore errwrap a wrapped ctx error here would defeat isCtxErr failover classification
		return fmt.Errorf("%w (shard %d replica %d): aborted in flight: %v", ErrReplicaDown, rep.shard, rep.idx, err)
	}
	return err
}

// do runs one read request on the replica under kill supervision: the
// request's context also ends when its kill generation does, through a
// callback the generation runs, not a goroutine per request.
func (rep *replica) do(parent context.Context, fn func(ctx context.Context) error) error {
	life := rep.generation()
	if life.Err() != nil {
		return rep.downErr()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	stop := context.AfterFunc(life, cancel)
	defer stop()
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	return rep.classify(parent, life, fn(ctx))
}

// isCtxErr reports whether err is a context termination (cancel or deadline).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// replicaSet is one shard: its warehouse, its R replicas and the selection
// state.
type replicaSet struct {
	shard int
	w     *hive.Warehouse
	reps  []*replica
	next  atomic.Uint64 // round-robin tie-break cursor
}

func newReplicaSet(shard, replicas int, w *hive.Warehouse) *replicaSet {
	rs := &replicaSet{shard: shard, w: w}
	for j := 0; j < replicas; j++ {
		rs.reps = append(rs.reps, newReplica(shard, j))
	}
	return rs
}

// pick chooses the least-loaded live replica not yet tried (round-robin
// among ties), or nil when there is none.
func (rs *replicaSet) pick(tried []bool) *replica {
	start := int(rs.next.Add(1) - 1)
	var best *replica
	var bestLoad int64
	for off := 0; off < len(rs.reps); off++ {
		rep := rs.reps[(start+off)%len(rs.reps)]
		if tried[rep.idx] || rep.isKilled() {
			continue
		}
		if load := rep.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = rep, load
		}
	}
	return best
}

// exhaustedErr is the root cause the scatter surfaces for a shard with no
// live replica left: the last replica's failure, or a down error when every
// replica was down before the read started. An unreplicated shard returns
// it untouched, keeping a Replicas:1 router's errors identical to an
// unreplicated one's.
func (rs *replicaSet) exhaustedErr(last error) error {
	if last == nil {
		last = fmt.Errorf("%w (shard %d)", ErrReplicaDown, rs.shard)
	}
	if len(rs.reps) == 1 {
		return last
	}
	return fmt.Errorf("shard %d: all %d replicas failed: %w", rs.shard, len(rs.reps), last)
}

// withFailover is the one loop over a shard's replicas: it runs fn under
// replica.do's kill supervision on a live replica, and again on the next
// one only when the attempt failed because its replica went down
// (ErrReplicaDown, a kill that aborted the request in flight included).
// Success, a caller cancellation and the statement's own errors return at
// once: every replica reads the same warehouse, so a sibling would fail the
// same way. fn learns whether its replica is the shard's last candidate:
// every other replica was tried already, killed ones included, so no retry
// can follow — not even on a replica revived while the attempt runs.
func (rs *replicaSet) withFailover(ctx context.Context, fn func(ctx context.Context, rep *replica, last bool) error) error {
	tried := make([]bool, len(rs.reps))
	sp := trace.FromContext(ctx)
	var err error
	for {
		rep := rs.pick(tried)
		if rep == nil {
			return rs.exhaustedErr(err)
		}
		tried[rep.idx] = true
		last := !slices.Contains(tried, false)
		err = rep.do(ctx, func(kctx context.Context) error { return fn(kctx, rep, last) })
		if !errors.Is(err, ErrReplicaDown) {
			return err
		}
		sp.Eventf("replica %d failed: %v", rep.idx, err)
	}
}

// execPartial is the scatter's per-shard unit of work under failover.
func (rs *replicaSet) execPartial(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (*hive.PartialResult, int, error) {
	var part *hive.PartialResult
	chosen := -1
	err := rs.withFailover(ctx, func(kctx context.Context, rep *replica, _ bool) error {
		p, err := rs.w.SelectPartialContext(kctx, s, opts)
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
	err := rs.withFailover(ctx, func(kctx context.Context, _ *replica, _ bool) error {
		r, err := rs.w.ExecParsedContext(kctx, stmt, opts)
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
		p, err := rs.w.Explain(s, opts)
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
	// Live: eligible for selection (not killed).
	Live bool `json:"live"`
	// Inflight requests currently executing on the replica.
	Inflight int64 `json:"inflight,omitempty"`
}

// SetHealth is one shard's replica health summary.
type SetHealth struct {
	Shard    int `json:"shard"`
	Replicas int `json:"replicas"`
	// Live counts replicas currently eligible for reads; 0 means the shard
	// cannot answer and scatters over it will fail.
	Live   int             `json:"live"`
	Detail []ReplicaHealth `json:"detail"`
}

// health snapshots the set.
func (rs *replicaSet) health() SetHealth {
	sh := SetHealth{Shard: rs.shard, Replicas: len(rs.reps)}
	for _, rep := range rs.reps {
		h := ReplicaHealth{Replica: rep.idx, Live: !rep.isKilled(), Inflight: rep.inflight.Load()}
		if h.Live {
			sh.Live++
		}
		sh.Detail = append(sh.Detail, h)
	}
	return sh
}
