package hive

import (
	"context"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hiveindex"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// QueryStats mirrors the paper's stacked-bar decomposition: index access
// plus job overhead ("read index and other") versus data scan and processing
// ("read data and process"), along with the raw volumes of Tables 3/4/6.
type QueryStats struct {
	// AccessPath names the chosen plan: "dgfindex", "dgfindex(precompute)",
	// "index:<name>", "aggindex-rewrite:<name>", or "scan".
	AccessPath string
	// IndexSimSec is simulated seconds spent reading the index plus fixed
	// query overhead (HiveQL parsing, job launch).
	IndexSimSec float64
	// DataSimSec is simulated seconds reading data and processing.
	DataSimSec float64
	// RecordsRead is the number of records delivered to mappers.
	RecordsRead int64
	// BytesRead is the payload volume fetched from the filesystem.
	BytesRead int64
	Splits    int
	Seeks     int64
	// GroupsSkipped counts the row groups zone maps pruned before their
	// payloads were fetched (join-free RCFile scans and DGF plans only; see
	// choosePath).
	GroupsSkipped int64
	// DictProbes counts dictionary binary searches the predicate kernels
	// performed — each replaces a whole group's per-row string compares.
	DictProbes int64
	// RunsSkipped counts the runs of run-length columns the kernels rejected
	// wholesale (one predicate evaluation per run instead of per row).
	RunsSkipped int64
	// Vectorized reports that a scan job ran — every one runs on column
	// batches, so it is false only for answers that read no table data (the
	// aggregate-index rewrite).
	Vectorized bool
	// ShufflePairs and ShuffleBytes are the intermediate pairs (and their
	// key+value bytes) the scan job's map tasks handed to its reducers: one
	// per group per split for an aggregate, zero for a projection (map-only).
	ShufflePairs int64
	ShuffleBytes int64
	RowsOut      int
	Wall         time.Duration
}

// SimTotalSec is the simulated end-to-end query time.
func (s QueryStats) SimTotalSec() float64 { return s.IndexSimSec + s.DataSimSec }

// Result is the outcome of one statement.
type Result struct {
	Columns []string
	Rows    []storage.Row
	Stats   QueryStats
	Message string
}

// ExecOptions tunes query execution (ablations); the zero value is the
// paper's behaviour, and the only value the serving layer's result cache
// keys represent.
type ExecOptions struct {
	// DisableIndexes forces full table scans.
	DisableIndexes bool
	// DisablePrecompute and DisableSliceSkip are the DGFIndex planner
	// ablations of the same names in dgf.PlanOptions.
	DisablePrecompute bool
	DisableSliceSkip  bool
}

// ExecContext parses and executes one HiveQL statement under ctx. A ctx that
// expires mid-scan aborts the MapReduce job within one split boundary and
// returns an error wrapping ctx.Err() — never a partial result.
func (w *Warehouse) ExecContext(ctx context.Context, sql string, opts ExecOptions) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return w.ExecParsedContext(ctx, stmt, opts)
}

// ExecParsedContext executes an already-parsed statement under ctx. Callers
// that execute the same statement repeatedly (the serving layer's plan
// cache) parse once and reuse the Stmt; execution never mutates it, so one
// parsed statement is safe to run from many goroutines. SELECT scans honour
// ctx at split granularity; DDL and LOAD statements only check it on entry
// (index builds are not interruptible mid-build — aborting one would leave a
// half-reorganised table).
func (w *Warehouse) ExecParsedContext(ctx context.Context, stmt Stmt, opts ExecOptions) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hive: statement not started: %w", err)
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		return w.selectContext(ctx, s, opts)
	case *ExplainStmt:
		plan, err := w.Explain(s.Select, opts)
		if err != nil {
			return nil, err
		}
		return plan.Render(), nil
	case *TraceStmt:
		return w.traceSelect(ctx, s, opts)
	case *ShowTablesStmt:
		w.mu.RLock()
		defer w.mu.RUnlock()
		res := &Result{Columns: []string{"tab_name"}}
		for _, n := range w.tableNamesLocked() {
			res.Rows = append(res.Rows, storage.Row{storage.Str(n)})
		}
		return res, nil
	case *DescribeStmt:
		w.mu.RLock()
		defer w.mu.RUnlock()
		t, err := w.tableLocked(s.Table)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"col_name", "data_type"}}
		for _, c := range t.Schema.Cols {
			res.Rows = append(res.Rows, storage.Row{storage.Str(c.Name), storage.Str(c.Kind.String())})
		}
		return res, nil
	case *CreateTableStmt:
		w.mu.Lock()
		defer w.mu.Unlock()
		format := hiveindex.TextFile
		if s.Stored == "RCFILE" {
			format = hiveindex.RCFile
		}
		schema := storage.NewSchema(s.Cols...)
		if s.PartitionBy != "" && schema.ColIndex(s.PartitionBy) < 0 {
			return nil, fmt.Errorf("hive: partition column %q not in column list", s.PartitionBy)
		}
		t, err := w.createTableLocked(s.Name, schema, format)
		if err != nil {
			return nil, err
		}
		t.PartitionBy = s.PartitionBy
		msg := fmt.Sprintf("created table %s (%d columns, %s)", s.Name, len(s.Cols), s.Stored)
		if s.PartitionBy != "" {
			msg += ", partitioned by " + s.PartitionBy
		}
		return &Result{Message: msg}, nil
	case *DropTableStmt:
		w.mu.Lock()
		defer w.mu.Unlock()
		if err := w.dropTableLocked(s.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "dropped table " + s.Name}, nil
	case *CreateIndexStmt:
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.execCreateIndexLocked(s)
	default:
		return nil, fmt.Errorf("hive: unsupported statement %T", stmt)
	}
}

// execCreateIndexLocked dispatches on the handler class name, like Hive's
// pluggable index handlers (Listing 3 names the DGF handler class).
func (w *Warehouse) execCreateIndexLocked(s *CreateIndexStmt) (*Result, error) {
	t, err := w.tableLocked(s.Table)
	if err != nil {
		return nil, err
	}
	handler := strings.ToLower(s.Handler)
	switch {
	case strings.Contains(handler, "dgf"):
		spec, err := dgf.ParseIdxProperties(s.Name, s.Cols, t.Schema, s.Props)
		if err != nil {
			return nil, err
		}
		stats, err := w.buildDgfIndexLocked(t, spec)
		if err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("built DGFIndex %s: %d GFU pairs, %d bytes, %.1f sim-seconds",
			s.Name, stats.Entries, stats.IndexBytes, stats.SimTotalSec())}, nil
	case strings.Contains(handler, "bitmap"):
		return w.createHiveIndexLocked(t, s, hiveindex.Bitmap)
	case strings.Contains(handler, "aggregate"):
		return w.createHiveIndexLocked(t, s, hiveindex.Aggregate)
	case strings.Contains(handler, "compact"):
		return w.createHiveIndexLocked(t, s, hiveindex.Compact)
	default:
		return nil, fmt.Errorf("hive: unknown index handler %q", s.Handler)
	}
}

func (w *Warehouse) createHiveIndexLocked(t *Table, s *CreateIndexStmt, kind hiveindex.Kind) (*Result, error) {
	format := t.Format
	if f, ok := s.Props["format"]; ok {
		pf, err := storage.ParseFormat(f)
		if err != nil {
			return nil, fmt.Errorf("hive: IDXPROPERTIES 'format'=%q: %w", f, err)
		}
		format = pf
	}
	ix, sec, err := w.buildHiveIndexStatsLocked(t, s.Name, kind, s.Cols, format)
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("built %s index %s: %d bytes, %.1f sim-seconds",
		kind, s.Name, ix.SizeBytes(w.FS), sec)}, nil
}

// selectContext plans and executes a SELECT under ctx: a ctx that ends
// mid-scan aborts the job within one split boundary and returns the
// (wrapped) ctx error. Plain SELECTs share the catalog read lock so any
// number run in parallel; a SELECT with an INSERT OVERWRITE DIRECTORY sink
// writes to the filesystem and is serialized as a writer.
func (w *Warehouse) selectContext(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	if stmt.InsertDir != "" {
		w.mu.Lock()
		defer w.mu.Unlock()
	} else {
		w.mu.RLock()
		defer w.mu.RUnlock()
	}
	return w.selectLocked(ctx, stmt, opts)
}

// SelectPartialContext plans and executes a SELECT under ctx, returning its
// result in mergeable partial form — the scatter phase of the shard router's
// cancellable scatter-gather: the router cancels the shared ctx on the first
// shard error, and every sibling shard's scan stops at its next split
// boundary. Aggregates come back as per-group accumulator state, so any
// number of shards' partials Merge before one Finalize. INSERT OVERWRITE
// DIRECTORY sinks cannot be executed partially.
func (w *Warehouse) SelectPartialContext(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (*PartialResult, error) {
	if stmt.InsertDir != "" {
		return nil, fmt.Errorf("hive: INSERT OVERWRITE DIRECTORY cannot be executed partially")
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	pr, err := w.selectPartialLocked(ctx, stmt, opts, nil)
	if err != nil {
		return nil, err
	}
	return pr, nil
}

// rowStream is the streaming half of a cursor-driven SELECT: columns fires
// once after compilation (before any input is read), row receives each
// output row of a plain projection as its batch is projected and stops the
// scan by returning false. Calls to row are serialized.
type rowStream struct {
	columns func(cols []string)
	row     func(r storage.Row) bool
}

// pathKind enumerates the access paths the planner can choose.
type pathKind uint8

const (
	pathDgf pathKind = iota
	pathHiveIndex
	pathScan
)

// pathChoice is the planner's access-path decision plus the inputs the
// chosen path needs. Execution and EXPLAIN both consume this one decision,
// which is what keeps the announced plan truthful: they cannot diverge on
// which path runs.
type pathChoice struct {
	kind pathKind
	// want/planOpts parameterize the DGF plan (pathDgf).
	want     []dgf.AggSpec
	planOpts dgf.PlanOptions
	// ix is the chosen Compact/Aggregate/Bitmap index (pathHiveIndex);
	// aggRewrite marks the "index as data" rewrite.
	ix         *hiveindex.Index
	aggRewrite bool
	// prune has the zone maps consulted so whole row groups are dropped
	// before they are fetched.
	prune bool
}

// choosePath decides the access path for a compiled query, and whether its
// row groups are pruned. Every path runs the same executor; pruning is the
// one thing that differs. It applies to join-free queries over RCFile data on
// the DGF and full-scan paths. TextFile has no row groups; a pruned group
// costs a simulated seek, which the cost model of a join or of the hive-index
// path (Hive's own indexes filter splits, groups and rows, nothing finer) has
// never been charged; and the slice-skip ablation reads whole splits, which
// the plan's skip set does not describe.
func (q *compiledQuery) choosePath(opts ExecOptions) pathChoice {
	pruneOK := !opts.DisableSliceSkip && q.right == nil
	switch {
	case !opts.DisableIndexes && q.left.Dgf != nil:
		want := q.dgfWantSpecs()
		if q.right != nil || len(q.groupBy) > 0 {
			// Join and GROUP BY queries cannot be answered from headers
			// (the paper's "non-aggregation" cases): scan all related GFUs.
			want = nil
		}
		if !q.rangesExact {
			// The range map is a superset of the WHERE conjunction (!= or a
			// multi-value IN): headers would aggregate rows the residual
			// predicate rejects, so inner cells must be scanned and filtered.
			want = nil
		}
		// Push the SELECT's referenced-column set into the planner so
		// columnar slice reads fetch only those payloads.
		planOpts := dgf.PlanOptions{
			DisablePrecompute: opts.DisablePrecompute,
			DisableSliceSkip:  opts.DisableSliceSkip,
			Project:           q.projection(),
			ZoneSkip:          pruneOK && q.left.Dgf.Format == storage.RCFile,
		}
		return pathChoice{kind: pathDgf, want: want, planOpts: planOpts, prune: planOpts.ZoneSkip}
	case !opts.DisableIndexes && len(q.left.HiveIndexes) > 0:
		if ix := q.pickHiveIndex(); ix != nil {
			return pathChoice{kind: pathHiveIndex, ix: ix, aggRewrite: q.canAggRewrite(ix)}
		}
	}
	return pathChoice{kind: pathScan, prune: pruneOK && q.left.Format == hiveindex.RCFile}
}

func (w *Warehouse) selectLocked(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	start := time.Now()
	pr, err := w.selectPartialLocked(ctx, stmt, opts, nil)
	if err != nil {
		return nil, err
	}
	res := pr.Finalize(stmt.Limit)

	// INSERT OVERWRITE DIRECTORY sink (Listing 6).
	if stmt.InsertDir != "" {
		w.FS.RemoveAll(stmt.InsertDir)
		if err := storage.WriteTextRows(w.FS, path.Join(stmt.InsertDir, "000000_0"), res.Rows); err != nil {
			return nil, err
		}
	}
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// selectPartialLocked plans and runs one SELECT under the catalog lock.
// stream, when non-nil and the query is a plain projection (no aggregates),
// receives each output row as its batch is projected instead of the rows being
// materialized into the PartialResult; a false return stops the scan at the
// next split boundary (LIMIT cursors). On a mid-scan abort the returned
// error wraps ctx.Err() and the PartialResult still carries the stats of
// the work done so far — callers that want all-or-nothing semantics must
// check the error first.
func (w *Warehouse) selectPartialLocked(ctx context.Context, stmt *SelectStmt, opts ExecOptions, stream *rowStream) (*PartialResult, error) {
	p, err := w.prepareSelectLocked(stmt, opts, stream)
	if err != nil {
		return nil, err
	}
	return w.runPreparedSelect(ctx, p, stream)
}

// preparedSelect is a SELECT planned under the catalog lock — compiled,
// access path chosen, index planning and filtering done — ready to run its
// main query job. Cursors run that job after releasing the lock, so a
// consumer pacing a stream never blocks writers; the job reads a snapshot
// of the file layout (the model filesystem is internally synchronized), and
// a concurrent DROP surfaces as a read error, not a hang.
type preparedSelect struct {
	q     *compiledQuery
	pr    *PartialResult
	input mapreduce.InputFormat
	plan  *dgf.Plan
	start time.Time
	// done marks a query answered entirely during preparation (the
	// aggregate-index rewrite): pr is complete, no job runs.
	done bool
	// sideBytes is the broadcast join side's volume and joinMap its loaded
	// hash map (the rows the right-side predicates keep), both resolved
	// under the lock so the job itself touches no catalog state.
	sideBytes int64
	joinMap   map[string][]storage.Row
}

// prepareSelectLocked compiles the statement, decides the access path via
// choosePath (the same decision EXPLAIN reports), and performs every step
// that must see a consistent catalog: DGF planning, hive-index filtering,
// the aggregate-index rewrite, partition pruning. Caller holds w.mu.
func (w *Warehouse) prepareSelectLocked(stmt *SelectStmt, opts ExecOptions, stream *rowStream) (*preparedSelect, error) {
	start := time.Now()
	q, err := w.compileLocked(stmt)
	if err != nil {
		return nil, err
	}
	pr := &PartialResult{}
	for _, it := range q.items {
		pr.Columns = append(pr.Columns, it.name)
	}
	if stream != nil && stream.columns != nil {
		stream.columns(pr.Columns)
	}
	p := &preparedSelect{q: q, pr: pr, start: start}
	stats := &pr.Stats

	choice := q.choosePath(opts)
	switch choice.kind {
	case pathDgf:
		plan, err := q.left.Dgf.Plan(w.Cluster, q.leftRanges, choice.want, choice.planOpts)
		if err != nil {
			return nil, err
		}
		p.plan = plan
		p.input = &dgf.SliceInput{
			FS: w.FS, Plan: plan, Format: q.left.Dgf.Format,
			Schema: q.left.Schema,
		}
		stats.IndexSimSec += plan.KVSimSeconds
		stats.AccessPath = "dgfindex"
		if plan.Aggregation {
			stats.AccessPath = "dgfindex(precompute)"
		}
	case pathHiveIndex:
		ix := choice.ix
		// Aggregate Index rewrite: covered GROUP BY count queries read the
		// index table only. The per-group counts become partial COUNT state
		// so the rewrite also merges across shards.
		if choice.aggRewrite {
			if counts, st, ok := w.tryAggRewrite(q, ix); ok {
				pr.Agg = q.layout().NewPartial()
				for key, n := range counts {
					accs := pr.Agg.Layout.newAccs()
					for _, a := range q.aggs {
						accs[a.slots[0]].Value = float64(n)
						accs[a.slots[0]].N = n
					}
					pr.Agg.fold(key, accs)
				}
				stats.AccessPath = "aggindex-rewrite:" + ix.Name
				stats.IndexSimSec = st.SimTotalSec()
				stats.RecordsRead = st.InputRecords
				stats.BytesRead = st.InputBytes
				stats.Wall = time.Since(start)
				p.done = true
				return p, nil
			}
		}
		fr, err := ix.Filter(w.Cluster, w.FS, q.leftRanges)
		if err != nil {
			return nil, err
		}
		stats.IndexSimSec += fr.ScanStats.SimTotalSec()
		base := ix.BaseInput(w.FS, fr)
		base.Project = q.projection()
		p.input = base
		stats.AccessPath = "index:" + ix.Name
	default:
		var scan *mapreduce.FileInput
		scan, stats.AccessPath, err = q.scanInputLocked(w)
		if err != nil {
			return nil, err
		}
		p.input = scan
		if choice.prune {
			// Full-scan double pruning: consult the zone maps under the lock
			// (the same consultation EXPLAIN performs) and hand the readers
			// the resulting skip set. choosePath prunes RCFile scans only.
			skips, _, err := scanGroupSkips(w.FS, scan.Paths, q.left.Schema, q.leftRanges)
			if err != nil {
				return nil, err
			}
			if len(skips) > 0 {
				scan.SkipGroup = func(path string, off int64) bool { return skips[path][off] }
			}
		}
	}
	stats.Vectorized = true
	if q.right != nil {
		p.sideBytes = w.tableSizeBytesLocked(q.right)
		// Broadcast hash join: load the small side once (Hive's map-side
		// join) while the catalog is stable — the join table's directory
		// must not move under us.
		p.joinMap, err = w.readJoinMap(q)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runPreparedSelect executes the prepared query's main job. It touches no
// catalog state, so callers may invoke it with or without the lock held.
func (w *Warehouse) runPreparedSelect(ctx context.Context, p *preparedSelect, stream *rowStream) (*PartialResult, error) {
	q, pr := p.q, p.pr
	stats := &pr.Stats
	// The warehouse span opens at the prepare timestamp so planning time is
	// attributed here, not lost between the parent span and this one.
	sp := trace.FromContext(ctx).ChildAt("warehouse", p.start)
	defer func() {
		sp.Set("records_read", stats.RecordsRead)
		sp.Set("bytes_read", stats.BytesRead)
		sp.Set("splits", stats.Splits)
		sp.Set("sim_sec", stats.IndexSimSec+stats.DataSimSec)
		if stats.GroupsSkipped > 0 {
			sp.Set("groups_skipped", stats.GroupsSkipped)
		}
		if stats.DictProbes > 0 {
			sp.Set("dict_probes", stats.DictProbes)
		}
		if stats.RunsSkipped > 0 {
			sp.Set("runs_skipped", stats.RunsSkipped)
		}
		if stats.ShufflePairs > 0 {
			sp.Set("shuffle_pairs", stats.ShufflePairs)
		}
		sp.Finish()
	}()
	sp.Set("table", q.stmt.From.Table)
	sp.Set("access_path", stats.AccessPath)
	if p.plan != nil {
		sp.Set("gfu_slices", len(p.plan.Slices))
		sp.Set("gfu_cells", p.plan.InnerCells+p.plan.BoundaryCells+p.plan.MissingCells)
		sp.Set("projected_bytes", p.plan.ProjectedBytes)
	}
	if p.done {
		return pr, nil
	}
	ctx = trace.NewContext(ctx, sp)
	var rowSink func(storage.Row) bool
	if stream != nil {
		rowSink = stream.row
	}
	jobStats, rows, agg, err := w.runQueryJob(ctx, p, rowSink)
	if err != nil {
		// A cancelled scan still reports how far it got (cursors surface
		// this as partial stats); the result itself is the error.
		if jobStats != nil {
			stats.RecordsRead = jobStats.InputRecords
			stats.BytesRead = jobStats.InputBytes
			stats.Splits = jobStats.Splits
			stats.Seeks = jobStats.Seeks
			stats.GroupsSkipped = jobStats.GroupsSkipped
			stats.Wall = time.Since(p.start)
		}
		stats.DictProbes = q.vecStats.dictProbes.Load()
		stats.RunsSkipped = q.vecStats.runsSkipped.Load()
		return pr, err
	}
	pr.Rows, pr.Agg = rows, agg
	stats.RecordsRead = jobStats.InputRecords
	stats.BytesRead = jobStats.InputBytes
	stats.Splits = jobStats.Splits
	stats.Seeks = jobStats.Seeks
	stats.GroupsSkipped = jobStats.GroupsSkipped
	stats.ShufflePairs = jobStats.ShufflePairs
	stats.ShuffleBytes = jobStats.ShuffleBytes
	stats.DictProbes = q.vecStats.dictProbes.Load()
	stats.RunsSkipped = q.vecStats.runsSkipped.Load()
	// The paper's stacked bars: job startup counts as "index and other".
	stats.IndexSimSec += jobStats.SimStartupSec
	stats.DataSimSec += jobStats.SimTotalSec() - jobStats.SimStartupSec

	// Broadcast side-table read for the map-side join.
	if q.right != nil {
		stats.DataSimSec += float64(p.sideBytes) / (w.Cluster.MapperMBps() * (1 << 20))
		stats.BytesRead += p.sideBytes
	}
	stats.Wall = time.Since(p.start)
	return pr, nil
}

// scanInputLocked builds the table-scan input (caller holds w.mu), pruning
// partitions by the predicate on the partition column (Hive's
// "coarse-grained index", Section 2.2 of the paper). The input names its
// files: a cursor runs the job after releasing the lock, and must read the
// files the plan saw, not one a concurrent load is still writing.
func (q *compiledQuery) scanInputLocked(w *Warehouse) (*mapreduce.FileInput, string, error) {
	in := &mapreduce.FileInput{FS: w.FS, Format: q.left.Format, Schema: q.left.Schema, Project: q.projection()}
	if q.left.PartitionBy == "" {
		var err error
		in.Paths, err = listFilePaths(w, q.left.Dir)
		return in, "scan", err
	}
	var keep func(storage.Value) bool
	if r, ok := q.leftRanges[strings.ToLower(q.left.PartitionBy)]; ok {
		keep = r.Contains
	}
	files, kept, total, err := w.partitionFilesLocked(q.left, keep)
	if err != nil {
		return nil, "", err
	}
	in.Paths = files
	return in, fmt.Sprintf("scan(partitions %d/%d)", kept, total), nil
}

// pickHiveIndex returns the first index whose dimensions intersect the
// constrained columns, preferring more matching dimensions.
func (q *compiledQuery) pickHiveIndex() *hiveindex.Index {
	var best *hiveindex.Index
	bestScore := 0
	names := make([]string, 0, len(q.left.HiveIndexes))
	for n := range q.left.HiveIndexes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ix := q.left.HiveIndexes[n]
		score := 0
		for _, c := range ix.Cols {
			if _, ok := q.leftRanges[strings.ToLower(c)]; ok {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = ix, score
		}
	}
	return best
}

// canAggRewrite reports whether the Aggregate Index "index as data" rewrite
// applies: a join-free covered GROUP BY whose every aggregate is COUNT. The
// predicate is shared with EXPLAIN so the announced access path matches the
// executed one.
func (q *compiledQuery) canAggRewrite(ix *hiveindex.Index) bool {
	if ix.Kind != hiveindex.Aggregate || len(q.groupBy) == 0 || q.right != nil {
		return false
	}
	if !q.rangesExact {
		// The rewrite answers counts from the index by range alone; a != or
		// multi-value IN predicate would never be applied to them.
		return false
	}
	// Every aggregate must be COUNT and every GROUP BY column indexed.
	for _, a := range q.aggs {
		if a.kind != aggCount {
			return false
		}
	}
	for _, g := range q.stmt.GroupBy {
		covered := false
		for _, c := range ix.Cols {
			if strings.EqualFold(c, g.Name) {
				covered = true
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// tryAggRewrite applies the Aggregate Index "index as data" rewrite when
// the query is a covered GROUP BY count, returning raw per-group counts for
// the caller to fold into partial state.
func (w *Warehouse) tryAggRewrite(q *compiledQuery, ix *hiveindex.Index) (map[string]int64, *mapreduce.Stats, bool) {
	if !q.canAggRewrite(ix) {
		return nil, nil, false
	}
	var groupCols []string
	for _, g := range q.stmt.GroupBy {
		groupCols = append(groupCols, g.Name)
	}
	counts, stats, err := ix.AggregateCounts(w.Cluster, w.FS, q.leftRanges, groupCols)
	if err != nil {
		return nil, nil, false
	}
	return counts, stats, true
}

// runQueryJob executes the main MapReduce job of the query and returns its
// output in mergeable form: plain rows for projections, partial accumulator
// state for aggregations. Both arrive typed — the projector hands over rows,
// the reducers fold accumulators — so nothing is printed to be parsed back.
// A non-nil stream (plain projections only) receives each output row as its
// batch is projected instead of the rows being collected, and a false return
// stops split consumption early. On a cancelled ctx the returned stats are
// non-nil partial progress alongside the error.
func (w *Warehouse) runQueryJob(ctx context.Context, p *preparedSelect, stream func(storage.Row) bool) (*mapreduce.Stats, []storage.Row, *PartialAgg, error) {
	q, joinMap := p.q, p.joinMap
	job := &mapreduce.Job{Name: "query-" + q.left.Name, Input: p.input}
	// The one map task shape: the left-side kernels shrink the batch's
	// selection vector, the join (if any) expands it to pairs, and the task's
	// mapper projects the pairs or folds them (fold.go).
	var agg *PartialAgg
	var out *projection
	if q.isAgg {
		// Map-side aggregation, Hive style: each map task folds its split
		// into one partial per group, reducers merge them per group.
		agg = q.layout().NewPartial()
		job.NewMapper = func() mapreduce.TaskMapper { return q.newSplitFold(joinMap) }
		job.Reduce = q.reduceInto(agg)
		job.NumReducers = 1
		if len(q.groupBy) > 0 {
			job.NumReducers = 4
		}
	} else {
		out = &projection{stream: stream}
		job.NewMapper = func() mapreduce.TaskMapper { return q.newProjector(joinMap, out) }
		job.StopEarly = out.stop.Load
	}

	jobStats, err := mapreduce.RunContext(ctx, w.Cluster, job)
	if err != nil {
		// jobStats are non-nil partial progress on a mid-scan abort.
		return jobStats, nil, nil, err
	}
	switch {
	case agg != nil:
		// Fold in the pre-computed inner result (scalar aggregation only: the
		// planner never uses precompute with GROUP BY). Finalization (group
		// sort, AVG division, scalar empty-input row) happens later through
		// PartialAgg.Finalize, shared with the shard router's merge path.
		if p.plan != nil && p.plan.Aggregation {
			agg.fold("", p.plan.PreHeader)
		}
		return jobStats, nil, agg, nil
	case stream != nil:
		// Streamed rows were delivered as their batches were projected.
		return jobStats, nil, nil, nil
	}
	return jobStats, out.sorted(), nil, nil
}

// readJoinMap loads the join's (small) right table into a hash map keyed by
// the join column, the broadcast side of Hive's map-side join. The table is
// read through the same batch reader as any scan, the right-side kernels run
// once over each batch, and only the rows they keep enter the map.
func (w *Warehouse) readJoinMap(q *compiledQuery) (map[string][]storage.Row, error) {
	t := q.right
	in := &mapreduce.FileInput{FS: w.FS, Dir: t.Dir, Format: t.Format, Schema: t.Schema}
	splits, err := in.Splits()
	if err != nil {
		return nil, err
	}
	out := map[string][]storage.Row{}
	for _, split := range splits {
		r, err := in.Open(split)
		if err != nil {
			return nil, err
		}
		for {
			rec, ok, err := r.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			b := rec.Batch
			for _, ri := range survivors(b, q.rightPreds) {
				row := b.MaterialiseRow(ri).Clone()
				key := row[q.joinRight].String()
				out[key] = append(out[key], row)
			}
		}
	}
	return out, nil
}

// --- aggregation pipeline ---

// appendPartials renders one accumulator vector as a shuffle value: one
// value:count cell per slot, "-" for an empty one, joined by commas. The
// shuffle is the one place partials are text: its bytes are what the cost
// model charges.
func appendPartials(dst []byte, accs []dgf.Accumulator) []byte {
	for i, a := range accs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if a.N == 0 {
			dst = append(dst, '-')
			continue
		}
		dst = strconv.AppendFloat(dst, a.Value, 'g', -1, 64)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, a.N, 10)
	}
	return dst
}

func decodePartials(funcs []dgf.AggFunc, data []byte) ([]dgf.Accumulator, error) {
	parts := strings.Split(string(data), ",")
	if len(parts) != len(funcs) {
		return nil, fmt.Errorf("hive: partial has %d slots, want %d", len(parts), len(funcs))
	}
	accs := make([]dgf.Accumulator, len(funcs))
	for i, p := range parts {
		accs[i].Func = funcs[i]
		if p == "-" {
			continue
		}
		j := strings.IndexByte(p, ':')
		if j < 0 {
			return nil, fmt.Errorf("hive: bad partial %q", p)
		}
		v, err1 := strconv.ParseFloat(p[:j], 64)
		n, err2 := strconv.ParseInt(p[j+1:], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("hive: bad partial %q", p)
		}
		accs[i].Value, accs[i].N = v, n
	}
	return accs, nil
}

// reduceInto returns the aggregate job's reducer: it merges one group's
// shuffled partials and folds the result into agg. Reduce tasks run
// concurrently, hence the mutex; each key reaches exactly one of them, so
// every group's floats sum in the order the shuffle hands them over.
func (q *compiledQuery) reduceInto(agg *PartialAgg) mapreduce.ReduceFunc {
	var mu sync.Mutex
	return func(key string, values [][]byte, _ mapreduce.Emit) error {
		merged, err := q.mergeValues(values)
		if err != nil {
			return err
		}
		mu.Lock()
		agg.fold(key, merged)
		mu.Unlock()
		return nil
	}
}

func (q *compiledQuery) mergeValues(values [][]byte) ([]dgf.Accumulator, error) {
	merged := make([]dgf.Accumulator, len(q.slotFuncs))
	for i, f := range q.slotFuncs {
		merged[i].Func = f
	}
	for _, v := range values {
		accs, err := decodePartials(q.slotFuncs, v)
		if err != nil {
			return nil, err
		}
		for i := range merged {
			merged[i].Merge(accs[i])
		}
	}
	return merged, nil
}
