// Package shard partitions tables across N independent warehouses and
// executes queries by scatter-gather: DDL broadcasts to every shard, loads
// route row-by-row on a configurable key (hash on meter/user id, or ranges
// on region), and SELECTs fan out concurrently to the shards the predicate
// can reach, each returning mergeable partial-aggregation state that the
// router combines and finalizes once.
//
// The paper's deployment indexes billions of readings from ~17M meters; one
// in-process Warehouse cannot scale to that. Distributed partial
// aggregation over partitioned stores is the same shape P2P
// multidimensional indexes use (Bongers & Pouwelse's survey): every shard
// keeps its own DGFIndex over its own slice of the data, and the additive
// aggregates the paper pre-computes per GFU (sum/count/min/max, avg as
// sum+count) merge across shards exactly as they merge across grid cells.
//
// The router implements the serving layer's Backend contract, so DGFServe's
// admission control, caches, and metrics sit in front of a sharded fleet
// unchanged.
package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// Strategy selects how a routing-key value maps to a shard.
type Strategy uint8

const (
	// HashKey routes by FNV-1a hash of the key value: uniform spread, and
	// equality predicates on the key prune to a single shard.
	HashKey Strategy = iota
	// RangeKey routes by position among Config.Bounds: contiguous key
	// ranges per shard, so range predicates on the key prune shards.
	RangeKey
)

// String names the strategy for flags and logs.
func (s Strategy) String() string {
	if s == RangeKey {
		return "range"
	}
	return "hash"
}

// ParseStrategy reads "hash" or "range".
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "", "hash":
		return HashKey, nil
	case "range":
		return RangeKey, nil
	default:
		return 0, fmt.Errorf("shard: unknown strategy %q (want hash or range)", s)
	}
}

// Config describes the partitioning and replication of a Router.
type Config struct {
	// Shards is the number of logical shards (>= 1).
	Shards int
	// Replicas is how many identical warehouse copies each shard keeps
	// (0 or 1 = unreplicated). Writes apply to every replica; reads pick one
	// and fail over to the others on error.
	Replicas int
	// Key names the routing column (case-insensitive). Tables whose schema
	// lacks the column replicate to every shard instead — which keeps
	// broadcast-join sides (the paper's userInfo) available shard-locally.
	// A one-shard fleet partitions nothing and may leave it empty.
	Key string
	// Strategy selects hash or range routing. Default HashKey.
	Strategy Strategy
	// Bounds holds Shards-1 ascending split points for RangeKey: shard i
	// covers key values in [Bounds[i-1], Bounds[i]). Ignored for HashKey.
	Bounds []float64
	// EjectAfter is how many consecutive failures remove a replica from read
	// selection (default 3).
	EjectAfter int
	// Reprobe is how long an ejected replica sits out before the router
	// probes it with one trial request (default 2s).
	Reprobe time.Duration
}

// replicas returns the effective copies per shard (>= 1).
func (c Config) replicas() int {
	if c.Replicas < 1 {
		return 1
	}
	return c.Replicas
}

func (c Config) ejectAfter() int {
	if c.EjectAfter < 1 {
		return 3
	}
	return c.EjectAfter
}

func (c Config) reprobe() time.Duration {
	if c.Reprobe <= 0 {
		return 2 * time.Second
	}
	return c.Reprobe
}

func (c Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: need at least 1 shard, got %d", c.Shards)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("shard: negative replica count %d", c.Replicas)
	}
	if c.Shards > 1 && strings.TrimSpace(c.Key) == "" {
		return fmt.Errorf("shard: routing key column must be named")
	}
	if c.Strategy == RangeKey {
		if len(c.Bounds) != c.Shards-1 {
			return fmt.Errorf("shard: range routing over %d shards needs %d bounds, got %d",
				c.Shards, c.Shards-1, len(c.Bounds))
		}
		for i := 1; i < len(c.Bounds); i++ {
			if c.Bounds[i-1] >= c.Bounds[i] {
				return fmt.Errorf("shard: bounds must be strictly ascending")
			}
		}
	}
	return nil
}

// tableMeta is the router's record of one table created through it.
type tableMeta struct {
	schema *storage.Schema
	// keyIdx is the routing column's position in the schema; -1 marks a
	// replicated table (no routing column).
	keyIdx int
}

// Router partitions tables across shards and executes statements by
// broadcast (DDL), routed append (loads) or scatter-gather (SELECT). It
// implements the serving layer's Backend interface; all methods are safe
// for concurrent use — each shard warehouse carries its own locking, and
// the router itself only guards its table records.
type Router struct {
	cfg  Config
	sets []*replicaSet

	// wal is the engine every load commits to and whose appliers write the
	// warehouses (see ingest.go): opened without a directory by New, swapped
	// by EnableWAL, never nil.
	wal atomic.Pointer[wal.Engine]

	mu     sync.RWMutex
	tables map[string]*tableMeta
}

// New builds a router over cfg.Shards shards of cfg.Replicas fresh
// warehouses each, produced by mk (called once per (shard, replica) pair).
// Every warehouse must get its own filesystem: shards are independent
// stores, not views of one, and a shard's replicas are independent copies.
// The router starts one applier goroutine per replica; CloseWAL joins them.
func New(cfg Config, mk func(shard, replica int) *hive.Warehouse) (*Router, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, tables: map[string]*tableMeta{}}
	for i := 0; i < cfg.Shards; i++ {
		reps := make([]*replica, cfg.replicas())
		for j := range reps {
			w := mk(i, j)
			if w == nil {
				return nil, fmt.Errorf("shard: nil warehouse for shard %d replica %d", i, j)
			}
			reps[j] = newReplica(i, j, w)
		}
		r.sets = append(r.sets, newReplicaSet(i, cfg.ejectAfter(), cfg.reprobe(), reps))
	}
	e, err := wal.Open(wal.Options{}, r.stores())
	if err != nil {
		return nil, err
	}
	r.wal.Store(e)
	return r, nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.sets) }

// NumReplicas returns the copies per shard.
func (r *Router) NumReplicas() int { return r.cfg.replicas() }

// Shard returns the i-th shard's first replica warehouse (for tests and
// tooling; replicas hold identical data, so any one represents the shard).
func (r *Router) Shard(i int) *hive.Warehouse { return r.sets[i].reps[0].w }

// Replica returns the j-th replica warehouse of shard i.
func (r *Router) Replica(i, j int) *hive.Warehouse { return r.sets[i].reps[j].w }

// Kill marks one replica down, as if the store crashed: new requests to it
// fail immediately, in-flight reads and DDL abort at their next split
// boundary, and its applier pauses — a batch it is already writing runs to
// completion, what is queued behind it waits for Revive. Reads fail over to
// the shard's surviving replicas. Writes: behind a log directory the load
// commits to the shard's log and is queued on the surviving replicas, and
// the dead one is owed the records (hinted handoff); without one there is
// nothing to hand off from, so loads touching the shard are refused until
// Revive and the replicas stay exact copies.
func (r *Router) Kill(shard, replica int) {
	r.sets[shard].reps[replica].kill()
	r.wal.Load().MarkDown(shard, replica)
}

// Revive brings a killed replica back with a clean health record. It first
// applies what it is behind by — whatever was queued for it when it died,
// then the records the shard's log took while it was down, read from that
// log — and health reports it catching_up, not live, until then. A replica
// that is behind by nothing is live when Revive returns.
func (r *Router) Revive(shard, replica int) {
	rep := r.sets[shard].reps[replica]
	rep.beginCatchUp()
	r.wal.Load().CatchUp(shard, replica, rep.endCatchUp)
}

// Health snapshots every shard's replica-set health (the serving layer's
// /stats and /healthz surface this).
func (r *Router) Health() []SetHealth {
	out := make([]SetHealth, len(r.sets))
	for i, rs := range r.sets {
		out[i] = rs.health()
	}
	return out
}

// meta looks up the router's record of a table (nil if the table was not
// created through the router).
func (r *Router) meta(table string) *tableMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tables[strings.ToLower(table)]
}

// ExecContext parses and executes one HiveQL statement across the fleet: a
// ctx that ends mid-scatter cancels every in-flight shard scan at its next
// split boundary.
func (r *Router) ExecContext(ctx context.Context, sql string, opts hive.ExecOptions) (*hive.Result, error) {
	stmt, err := hive.Parse(sql)
	if err != nil {
		return nil, err
	}
	return r.ExecParsedContext(ctx, stmt, opts)
}

// ExecParsedContext executes an already-parsed statement: SELECTs
// scatter-gather under a cancellable group, catalog reads go to shard 0
// (every shard holds the same catalog), and DDL broadcasts to all shards.
func (r *Router) ExecParsedContext(ctx context.Context, stmt hive.Stmt, opts hive.ExecOptions) (*hive.Result, error) {
	switch s := stmt.(type) {
	case *hive.SelectStmt:
		return r.execSelect(ctx, s, opts)
	case *hive.ExplainStmt:
		if len(r.sets) == 1 {
			// Pass through: bit-identical to a bare warehouse.
			return r.sets[0].execStmt(ctx, stmt, opts)
		}
		plan, err := r.ExplainContext(ctx, s.Select, opts)
		if err != nil {
			return nil, err
		}
		return plan.Render(), nil
	case *hive.TraceStmt:
		return hive.TraceSelect(ctx, func(ctx context.Context) (*hive.Result, error) {
			return r.execSelect(ctx, s.Select, opts)
		})
	case *hive.ShowTablesStmt, *hive.DescribeStmt:
		// Catalog reads: any replica of shard 0 answers (identical catalogs
		// everywhere by DDL broadcast), with failover.
		return r.sets[0].execStmt(ctx, stmt, opts)
	case *hive.CreateTableStmt:
		res, err := r.broadcast(ctx, stmt, opts)
		if err != nil {
			return nil, err
		}
		schema := storage.NewSchema(s.Cols...)
		r.mu.Lock()
		r.tables[strings.ToLower(s.Name)] = &tableMeta{schema: schema, keyIdx: schema.ColIndex(r.cfg.Key)}
		r.mu.Unlock()
		return res, nil
	case *hive.DropTableStmt:
		res, err := r.broadcast(ctx, stmt, opts)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		delete(r.tables, strings.ToLower(s.Name))
		r.mu.Unlock()
		return res, nil
	default:
		// CREATE INDEX and future DDL: every shard indexes its own slice.
		return r.broadcast(ctx, stmt, opts)
	}
}

// broadcast runs one statement on every warehouse of the fleet (all
// replicas of all shards) concurrently and returns shard 0 replica 0's
// result. On error the fleet may diverge (some stores applied the DDL, some
// did not); the returned error enumerates every store's outcome — which
// shard/replica failed and why, and which shards applied the statement — so
// an operator knows exactly what needs repair instead of seeing one error
// and guessing.
func (r *Router) broadcast(ctx context.Context, stmt hive.Stmt, opts hive.ExecOptions) (*hive.Result, error) {
	nr := r.cfg.replicas()
	results := make([]*hive.Result, len(r.sets)*nr)
	errs := make([]error, len(r.sets)*nr)
	var wg sync.WaitGroup
	for i, rs := range r.sets {
		for j, rep := range rs.reps {
			wg.Add(1)
			go func(slot int, rep *replica) {
				defer wg.Done()
				// The same kill supervision the read paths get via do(): a
				// replica killed mid-DDL aborts at its next split boundary
				// and the outcome names the dead store, not a bare cancel.
				errs[slot] = rep.do(ctx, func(kctx context.Context) error {
					res, err := rep.w.ExecParsedContext(kctx, stmt, opts)
					results[slot] = res
					return err
				})
			}(i*nr+j, rep)
		}
	}
	wg.Wait()
	if err := fleetOutcome("broadcast", nr, errs); err != nil {
		return nil, err
	}
	return results[0], nil
}

// fleetOutcome folds the per-store errors of one fleet-wide write — a DDL
// broadcast (perShard stores per shard, shard-major) or a routed load (one
// outcome per shard) — into a single error that names every failed store and
// the shards that applied, so an operator knows exactly what needs repair
// (nil when everything applied). A single store passes its error through
// untouched, keeping a one-store router's errors identical to a bare
// warehouse's.
func fleetOutcome(op string, perShard int, errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	shards := len(errs) / perShard
	var failed, applied []string
	var causes []error
	for i := 0; i < shards; i++ {
		ok := true
		for j := 0; j < perShard; j++ {
			err := errs[i*perShard+j]
			if err == nil {
				continue
			}
			ok = false
			causes = append(causes, err)
			if perShard > 1 {
				failed = append(failed, fmt.Sprintf("shard %d/%d replica %d failed: %v", i, shards, j, err))
			} else {
				failed = append(failed, fmt.Sprintf("shard %d/%d failed: %v", i, shards, err))
			}
		}
		if ok {
			applied = append(applied, strconv.Itoa(i))
		}
	}
	if failed == nil {
		return nil
	}
	msg := strings.Join(failed, "; ")
	if len(applied) > 0 {
		msg += "; shards " + strings.Join(applied, ",") + " applied"
	} else {
		msg += "; no shard applied"
	}
	return &fleetError{msg: "shard: " + op + " diverged the fleet: " + msg, causes: causes}
}

// fleetError enumerates a partially-applied fleet write's per-store failures
// while keeping every cause reachable through errors.Is/As.
type fleetError struct {
	msg    string
	causes []error
}

func (e *fleetError) Error() string   { return e.msg }
func (e *fleetError) Unwrap() []error { return e.causes }

// routeSelect is the one place the fleet decides how a SELECT executes:
// pass through to one warehouse untouched, or scatter to a target set.
// Execution, EXPLAIN, and the streaming cursor all consume this single
// decision, so the plan a router announces, the shards a cursor opens, and
// the shards the gather reads can never diverge.
//
// passthrough=true names the single answering warehouse (always shard 0):
// a one-shard fleet (bit-identical to a bare warehouse — stats and access
// path included), a table created behind the router (only shard 0 holds
// it), or a replicated FROM table (every shard holds a full copy). The one
// replicated-FROM exception is a join against a partitioned table: every
// shard then holds the full FROM copy plus a disjoint slice of the join
// side, so a full fan-out counts every match exactly once, while shard 0
// alone would silently drop the other shards' join rows.
func (r *Router) routeSelect(s *hive.SelectStmt) (targets []int, passthrough bool, err error) {
	// A directory sink writes into whichever store executes it: on a
	// sharded fleet the shards' outputs would land in different
	// filesystems, and on a replicated one only the chosen replica would
	// hold the files — silently diverging the copies. Only a 1-shard,
	// 1-replica router (true pass-through) can support it.
	if s.InsertDir != "" && (len(r.sets) > 1 || r.cfg.replicas() > 1) {
		return nil, false, fmt.Errorf("shard: INSERT OVERWRITE DIRECTORY is not supported on a sharded or replicated backend")
	}
	if len(r.sets) == 1 {
		return nil, true, nil
	}
	m := r.meta(s.From.Table)
	if m == nil {
		return nil, true, nil
	}
	if m.keyIdx < 0 {
		if s.Join != nil {
			if jm := r.meta(s.Join.Table.Table); jm != nil && jm.keyIdx >= 0 {
				return r.allShards(), false, nil
			}
		}
		return nil, true, nil
	}
	if err := r.checkJoin(s); err != nil {
		return nil, false, err
	}
	return r.targetShards(s, m), false, nil
}

// execSelect is the scatter-gather path: prune shards by the routing-key
// predicate, run SelectPartialContext on each target concurrently, merge the
// partial states, finalize once.
func (r *Router) execSelect(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (*hive.Result, error) {
	targets, passthrough, err := r.routeSelect(s)
	if err != nil {
		return nil, err
	}
	if passthrough {
		return r.sets[0].execStmt(ctx, s, opts)
	}
	return r.scatter(ctx, s, opts, targets)
}

// fanOut is the one per-shard scatter: it runs fn for every target on its
// own goroutine under a cancellable child of ctx (i is the target's
// position, si its shard). A replica error inside one shard does not touch
// its siblings — fn fails over within the shard — and only a non-context
// error, a shard whose replicas are all exhausted, cancels the group: the
// sibling scans then abort at their next split boundary instead of running
// to completion. Every goroutine is joined before fanOut returns. The error
// is the root cause: the first real failure in target order outranks the
// context errors its cancellation induced; only a caller cancellation (or
// deadline) leaves a context error, the first target's to report one.
func fanOut(ctx context.Context, targets []int, fn func(ctx context.Context, i, si int) error) error {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, si := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = fn(fctx, i, si); errs[i] != nil && !isCtxErr(errs[i]) {
				cancel()
			}
		}()
	}
	wg.Wait()
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case !isCtxErr(err):
			return err
		case ctxErr == nil:
			ctxErr = err
		}
	}
	return ctxErr
}

// scatterPartials runs the SELECT's partial on every target shard through
// fanOut, each under failover and its own trace span.
func (r *Router) scatterPartials(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions, targets []int) ([]*hive.PartialResult, error) {
	ssp := trace.FromContext(ctx).Child("scatter")
	ssp.Set("targets", fmt.Sprintf("%d/%d", len(targets), len(r.sets)))
	defer ssp.Finish()
	parts := make([]*hive.PartialResult, len(targets))
	err := fanOut(ctx, targets, func(ctx context.Context, i, si int) error {
		shsp := ssp.Child(fmt.Sprintf("shard %d", si))
		defer shsp.Finish()
		part, chosen, err := r.sets[si].execPartial(trace.NewContext(ctx, shsp), s, opts)
		if err != nil {
			shsp.Set("error", err.Error())
			return err
		}
		parts[i] = part
		st := part.Stats
		shsp.Set("replica", chosen)
		shsp.Set("access_path", st.AccessPath)
		shsp.Set("records_read", st.RecordsRead)
		shsp.Set("bytes_read", st.BytesRead)
		shsp.Set("splits", st.Splits)
		shsp.Set("sim_sec", st.IndexSimSec+st.DataSimSec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// scatter runs scatterPartials and merges the shards' partial results into
// one finalized Result.
func (r *Router) scatter(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions, targets []int) (*hive.Result, error) {
	start := time.Now()
	parts, err := r.scatterPartials(ctx, s, opts, targets)
	if err != nil {
		return nil, err
	}

	merged := parts[0]
	stats := merged.Stats
	for _, p := range parts[1:] {
		if err := merged.Merge(p); err != nil {
			return nil, err
		}
		mergeStats(&stats, p.Stats)
	}
	merged.Stats = stats
	res := merged.Finalize(s.Limit)
	res.Stats.AccessPath = fmt.Sprintf("sharded(%d/%d):%s", len(targets), len(r.sets), parts[0].Stats.AccessPath)
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// ExplainContext plans a SELECT across the fleet without executing it,
// consuming the same routeSelect decision execution does: pass-through cases
// return the single answering warehouse's plan untouched; scatter cases merge
// the target shards' plans (volumes and slice counts sum — exactly how the
// executed stats merge) and prefix the access path with the same
// "sharded(k/n):" label the gather will report. Planning reads index KV state
// from a live replica per target shard, and ctx bounds those reads the same
// way it bounds execution.
func (r *Router) ExplainContext(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (*hive.ExplainPlan, error) {
	targets, passthrough, err := r.routeSelect(s)
	if err != nil {
		return nil, err
	}
	if passthrough {
		plan, _, err := r.sets[0].explain(ctx, s, opts)
		return plan, err
	}
	return r.explainScatter(ctx, s, opts, targets)
}

// explainScatter merges the per-target-shard plans into the fleet plan.
// Each shard's plan comes from a live replica (failover included, so EXPLAIN
// keeps working with a replica down), and the plan records which replica the
// router chose for each target shard.
func (r *Router) explainScatter(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions, targets []int) (*hive.ExplainPlan, error) {
	plans := make([]*hive.ExplainPlan, len(targets))
	chosen := make([]int, len(targets))
	err := fanOut(ctx, targets, func(ctx context.Context, i, si int) (err error) {
		plans[i], chosen[i], err = r.sets[si].explain(ctx, s, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The gather reports the first target's access path; so does the plan.
	merged := *plans[0]
	merged.AccessPath = fmt.Sprintf("sharded(%d/%d):%s", len(targets), len(r.sets), plans[0].AccessPath)
	merged.ShardsTotal = len(r.sets)
	merged.ShardsTargeted = len(targets)
	merged.TargetShards = append([]int(nil), targets...)
	merged.ReplicasPerShard = r.cfg.replicas()
	if merged.ReplicasPerShard > 1 {
		merged.ChosenReplicas = chosen
	}
	for _, p := range plans[1:] {
		if merged.ProjectedBytes >= 0 && p.ProjectedBytes >= 0 {
			merged.ProjectedBytes += p.ProjectedBytes
		} else {
			merged.ProjectedBytes = -1
		}
		merged.GFUSlices += p.GFUSlices
		merged.InnerCells += p.InnerCells
		merged.BoundaryCells += p.BoundaryCells
		merged.MissingCells += p.MissingCells
		merged.GroupsSkipped += p.GroupsSkipped
	}
	return &merged, nil
}

// mergeStats folds one more shard's cost into the scatter-gather total:
// data volumes add; the slowest shard bounds the simulated time, because
// the shards run concurrently.
func mergeStats(dst *hive.QueryStats, s hive.QueryStats) {
	dst.RecordsRead += s.RecordsRead
	dst.BytesRead += s.BytesRead
	dst.Splits += s.Splits
	dst.Seeks += s.Seeks
	dst.GroupsSkipped += s.GroupsSkipped
	dst.ShufflePairs += s.ShufflePairs
	dst.ShuffleBytes += s.ShuffleBytes
	dst.Vectorized = dst.Vectorized && s.Vectorized
	if s.SimTotalSec() > dst.SimTotalSec() {
		dst.IndexSimSec, dst.DataSimSec = s.IndexSimSec, s.DataSimSec
	}
}

// checkJoin verifies a join is answerable shard-locally: the right table is
// replicated on every shard, or both join columns are the routing key (the
// tables are then co-partitioned and matching rows share a shard).
func (r *Router) checkJoin(s *hive.SelectStmt) error {
	if s.Join == nil {
		return nil
	}
	rm := r.meta(s.Join.Table.Table)
	if rm == nil || rm.keyIdx < 0 {
		return nil
	}
	if strings.EqualFold(s.Join.Left.Name, r.cfg.Key) && strings.EqualFold(s.Join.Right.Name, r.cfg.Key) {
		return nil
	}
	return fmt.Errorf("shard: join with %q must be on the shard key %q (co-partitioned); join on other columns needs a replicated table (one without the key column)",
		s.Join.Table.Table, r.cfg.Key)
}

// targetShards prunes the fan-out by the WHERE constraint on the routing
// key: hash routing prunes equality predicates to one shard, range routing
// prunes to the shards whose key interval intersects the predicate range.
func (r *Router) targetShards(s *hive.SelectStmt, m *tableMeta) []int {
	ranges := hive.WhereRanges(s, m.schema)
	kr, ok := ranges[strings.ToLower(m.schema.Col(m.keyIdx).Name)]
	if !ok {
		return r.allShards()
	}
	if r.cfg.Strategy == RangeKey {
		var out []int
		for i := 0; i < len(r.sets); i++ {
			if r.shardIntervalIntersects(i, kr) {
				out = append(out, i)
			}
		}
		if len(out) == 0 {
			// Contradictory predicate: any one shard yields the correct
			// empty (or scalar-NaN) result.
			out = []int{0}
		}
		return out
	}
	// HashKey: only a point constraint picks a shard.
	if !kr.LoUnbounded && !kr.HiUnbounded && !kr.LoOpen && !kr.HiOpen && storage.Compare(kr.Lo, kr.Hi) == 0 {
		return []int{r.route(kr.Lo, m.schema.Col(m.keyIdx).Kind)}
	}
	return r.allShards()
}

func (r *Router) allShards() []int {
	out := make([]int, len(r.sets))
	for i := range out {
		out[i] = i
	}
	return out
}

// shardIntervalIntersects reports whether shard i's key interval
// [Bounds[i-1], Bounds[i]) meets the predicate range.
func (r *Router) shardIntervalIntersects(i int, kr gridfile.Range) bool {
	if i > 0 && !kr.HiUnbounded {
		lo, hi := r.cfg.Bounds[i-1], kr.Hi.AsFloat()
		if hi < lo || (hi == lo && kr.HiOpen) {
			return false
		}
	}
	if i < len(r.cfg.Bounds) && !kr.LoUnbounded {
		if kr.Lo.AsFloat() >= r.cfg.Bounds[i] {
			return false
		}
	}
	return true
}

// route maps one routing-key value to its shard. The value is first coerced
// through the schema column's kind, so the same logical key always lands on
// the same shard no matter how a caller rendered it: hashing the raw text
// would send the typed load's Int64(5), a CSV batch's Str("05") and a JSON
// timestamp's raw Unix seconds to three different shards, and a point query
// (whose literal parses through the schema) would then miss rows.
func (r *Router) route(v storage.Value, kind storage.Kind) int {
	v = coerceKey(v, kind)
	if r.cfg.Strategy == RangeKey {
		f := v.AsFloat()
		for i, b := range r.cfg.Bounds {
			if f < b {
				return i
			}
		}
		return len(r.sets) - 1
	}
	h := fnv.New64a()
	h.Write([]byte(v.String()))
	return int(h.Sum64() % uint64(len(r.sets)))
}

// coerceKey canonicalizes a routing-key value to its schema kind before it
// is hashed or compared against range bounds: strings parse through the
// column's parser ("05" and "5" are the same bigint key), numerics convert
// through their float reading the way the /load endpoint coerces wire rows.
func coerceKey(v storage.Value, kind storage.Kind) storage.Value {
	if v.Kind == kind {
		return v
	}
	if v.Kind == storage.KindString {
		if p, err := storage.ParseValue(kind, v.S); err == nil {
			return p
		}
	}
	switch kind {
	case storage.KindInt64:
		return storage.Int64(int64(v.AsFloat()))
	case storage.KindFloat64:
		return storage.Float64(v.AsFloat())
	case storage.KindTime:
		return storage.TimeUnix(int64(v.AsFloat()))
	default:
		return storage.Str(v.String())
	}
}

// loadBatches routes rows into per-shard batches by the key column. An
// unrouted table (created behind the router) batches everything to shard 0;
// a table without the key column replicates the full batch to every shard.
func (r *Router) loadBatches(table string, rows []storage.Row) ([][]storage.Row, error) {
	batches := make([][]storage.Row, len(r.sets))
	m := r.meta(table)
	switch {
	case m == nil:
		batches[0] = rows
		return batches, nil
	case m.keyIdx < 0:
		for i := range batches {
			batches[i] = rows
		}
		return batches, nil
	}
	kind := m.schema.Col(m.keyIdx).Kind
	for _, row := range rows {
		if m.keyIdx >= len(row) {
			return nil, fmt.Errorf("shard: row has %d columns; routing key %q is column %d", len(row), r.cfg.Key, m.keyIdx+1)
		}
		si := r.route(row[m.keyIdx], kind)
		batches[si] = append(batches[si], row)
	}
	return batches, nil
}

// TableVersions sums the shards' per-table mutation counters. A shard's
// counter is the max across its replicas (replicas apply every write, so
// the copies agree; max keeps the value monotone even mid-broadcast). Each
// counter only grows, so the sum only grows — the monotonicity the serving
// layer's version-keyed result cache relies on.
func (r *Router) TableVersions(names ...string) map[string]uint64 {
	out := make(map[string]uint64, len(names))
	for _, rs := range r.sets {
		shardMax := make(map[string]uint64, len(names))
		for _, rep := range rs.reps {
			for k, v := range rep.w.TableVersions(names...) {
				if v > shardMax[k] {
					shardMax[k] = v
				}
			}
		}
		for k, v := range shardMax {
			out[k] += v
		}
	}
	return out
}

// TableSchema returns the named table's schema (identical on every shard by
// DDL broadcast).
func (r *Router) TableSchema(name string) (*storage.Schema, error) {
	if m := r.meta(name); m != nil {
		return m.schema, nil
	}
	return r.sets[0].reps[0].w.TableSchema(name)
}

// TableInfos merges the shards' catalog snapshots: partitioned tables sum
// sizes — data and DGFIndex — across shards; replicated tables report shard
// 0's (each shard holds a full copy — summing would overstate the logical
// table N-fold).
// Every table's Version is the same summed counter TableVersions reports —
// replicated tables included — so the version /tables shows is exactly the
// version the serving layer's result-cache keys carry; the two views cannot
// disagree. The rest (schema, format, indexes) is identical everywhere by
// DDL broadcast.
func (r *Router) TableInfos() []hive.TableInfo {
	infos := r.sets[0].reps[0].w.TableInfos()
	for _, rs := range r.sets[1:] {
		byName := map[string]hive.TableInfo{}
		for _, o := range rs.reps[0].w.TableInfos() {
			byName[o.Name] = o
		}
		for i := range infos {
			if m := r.meta(infos[i].Name); m != nil && m.keyIdx < 0 {
				continue
			}
			if o, ok := byName[infos[i].Name]; ok {
				infos[i].SizeBytes += o.SizeBytes
				infos[i].DgfIndexBytes += o.DgfIndexBytes
				infos[i].DgfEntries += o.DgfEntries
			}
		}
	}
	names := make([]string, len(infos))
	for i := range infos {
		names[i] = infos[i].Name
	}
	versions := r.TableVersions(names...)
	for i := range infos {
		infos[i].Version = versions[strings.ToLower(infos[i].Name)]
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ShardSizes reports each shard's byte size of the named table (replica 0's
// copy), for balance inspection in tests and tooling.
func (r *Router) ShardSizes(table string) []int64 {
	out := make([]int64, len(r.sets))
	for i, rs := range r.sets {
		w := rs.reps[0].w
		t, err := w.Table(table)
		if err != nil {
			continue
		}
		out[i] = w.TableSizeBytes(t)
	}
	return out
}
