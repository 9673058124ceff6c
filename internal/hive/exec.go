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

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
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
	// planSelectLocked).
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
		return TraceSelect(ctx, func(ctx context.Context) (*Result, error) {
			return w.selectContext(ctx, s.Select, opts)
		})
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
	pr, err := w.selectPartialLocked(ctx, stmt, opts)
	if err != nil {
		return nil, err
	}
	return pr, nil
}

// pathKind enumerates the access paths the planner can choose.
type pathKind uint8

const (
	pathDgf pathKind = iota
	pathHiveIndex
	pathScan
)

// selectPlan is one SELECT planned under the catalog lock without reading
// table data: compiled, access path chosen, the DGF plan made or the scan's
// files listed, the read set known. EXPLAIN renders it and execution binds
// it; both consume this one value, so the announced plan cannot diverge from
// the executed one.
type selectPlan struct {
	q     *compiledQuery
	start time.Time
	path  pathKind
	// accessPath is the label QueryStats and EXPLAIN report.
	accessPath string
	// plan is the DGF plan (pathDgf).
	plan *dgf.Plan
	// ix is the chosen Compact/Aggregate/Bitmap index (pathHiveIndex);
	// aggRewrite marks the "index as data" rewrite.
	ix         *hiveindex.Index
	aggRewrite bool
	// scan is the full-scan input (pathScan). It names its files: a cursor
	// runs the job after releasing the lock, and must read the files the
	// plan saw, not one a concurrent load is still writing.
	scan *mapreduce.FileInput
	// prune has the zone maps consulted so whole row groups are dropped
	// before they are fetched, and reads is the resulting read set. On the
	// hive-index path reads.Bytes is -1: the base read set only exists once
	// the index scan has run.
	prune bool
	reads dgf.ReadSet
	// sideBytes is the broadcast join side's volume.
	sideBytes int64
}

// planSelectLocked compiles the statement and decides its access path, and
// whether its row groups are pruned. Every path runs the same executor;
// pruning is the one thing that differs. It applies to join-free queries over
// RCFile data on the DGF and full-scan paths. TextFile has no row groups; a
// pruned group costs a simulated seek, which the cost model of a join or of
// the hive-index path (Hive's own indexes filter splits, groups and rows,
// nothing finer) has never been charged; and the slice-skip ablation reads
// whole splits, which the plan's skip set does not describe. Planning reads
// the index's key-value pairs and the data files' side statistics, never
// table data. Caller holds w.mu.
func (w *Warehouse) planSelectLocked(stmt *SelectStmt, opts ExecOptions) (*selectPlan, error) {
	start := time.Now()
	q, err := w.compileLocked(stmt)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{q: q, start: start}
	if q.right != nil {
		p.sideBytes = w.tableSizeBytesLocked(q.right)
	}
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
		p.path = pathDgf
		p.prune = pruneOK && q.left.Dgf.Format == storage.RCFile
		// Push the SELECT's referenced-column set into the planner so
		// columnar slice reads fetch only those payloads.
		p.plan, err = q.left.Dgf.Plan(w.Cluster, q.leftRanges, want, dgf.PlanOptions{
			DisablePrecompute: opts.DisablePrecompute,
			DisableSliceSkip:  opts.DisableSliceSkip,
			Project:           q.projection(),
			ZoneSkip:          p.prune,
		})
		if err != nil {
			return nil, err
		}
		p.accessPath = "dgfindex"
		if p.plan.Aggregation {
			p.accessPath = "dgfindex(precompute)"
		}
		p.reads = dgf.ReadSet{Bytes: p.plan.ProjectedBytes, GroupsSkipped: p.plan.GroupsSkipped, SkipGroups: p.plan.SkipGroups}
		return p, nil
	case !opts.DisableIndexes && len(q.left.HiveIndexes) > 0:
		if ix := q.pickHiveIndex(); ix != nil {
			p.path, p.ix, p.aggRewrite = pathHiveIndex, ix, q.canAggRewrite(ix)
			p.accessPath = "index:" + ix.Name
			if p.aggRewrite {
				p.accessPath = "aggindex-rewrite:" + ix.Name
			}
			p.reads.Bytes = -1
			return p, nil
		}
	}
	p.path = pathScan
	p.prune = pruneOK && q.left.Format == hiveindex.RCFile
	var files []dfs.FileInfo
	if files, p.accessPath, err = q.scanFilesLocked(w); err != nil {
		return nil, err
	}
	p.scan = &mapreduce.FileInput{FS: w.FS, Format: q.left.Format, Schema: q.left.Schema, Project: q.projection(),
		Paths: make([]string, len(files))}
	whole := make([]dgf.SliceLoc, len(files))
	for i, f := range files {
		p.scan.Paths[i] = f.Path
		whole[i] = dgf.SliceLoc{File: f.Path, End: f.Size}
	}
	p.reads, err = dgf.PlanReads(w.FS, q.left.Format, q.left.Schema, whole, p.scan.Project, q.leftRanges, p.prune)
	if err != nil {
		return nil, err
	}
	if skips := p.reads.SkipGroups; len(skips) > 0 {
		p.scan.SkipGroup = func(path string, off int64) bool { return skips[path][off] }
	}
	return p, nil
}

// preparedSelect is a plan bound under the query's ctx, ready to run its
// main query job: the hive-index filter or aggregate rewrite has run and the
// join map is loaded, so the job touches no catalog state. Cursors run that
// job after releasing the lock, so a consumer pacing a stream never blocks
// writers; the job reads the files the plan named (the model filesystem is
// internally synchronized), and a concurrent DROP surfaces as a read error,
// not a hang.
type preparedSelect struct {
	*selectPlan
	pr    *PartialResult
	input mapreduce.InputFormat
	// done marks a query answered entirely while binding (the aggregate-index
	// rewrite): pr is complete, no job runs.
	done bool
	// joinMap is the broadcast join side's hash map: the rows the
	// right-side predicates keep.
	joinMap map[string][]storage.Row
	// span is the query's warehouse span. It opens at the plan's start, so
	// planning and binding are attributed to it, and the index scans binding
	// runs are its children.
	span *trace.Span
}

// prepareSelectLocked plans and binds one SELECT. Caller holds w.mu.
func (w *Warehouse) prepareSelectLocked(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (*preparedSelect, error) {
	p, err := w.planSelectLocked(stmt, opts)
	if err != nil {
		return nil, err
	}
	return w.bindSelectLocked(ctx, p)
}

// bindSelectLocked performs, under ctx, the steps of a plan that read index
// tables or the join side: the hive-index Filter or the aggregate-index
// rewrite, and the broadcast join map. Caller holds w.mu: the join table's
// directory must not move under the read.
func (w *Warehouse) bindSelectLocked(ctx context.Context, p *selectPlan) (_ *preparedSelect, err error) {
	q := p.q
	b := &preparedSelect{selectPlan: p, pr: &PartialResult{Columns: q.columns()}}
	stats := &b.pr.Stats
	stats.AccessPath = p.accessPath
	b.span = trace.FromContext(ctx).ChildAt("warehouse", p.start)
	b.span.Set("table", q.stmt.From.Table)
	b.span.Set("access_path", p.accessPath)
	defer func() {
		if err != nil {
			b.span.Finish()
		}
	}()
	ctx = trace.NewContext(ctx, b.span)
	switch p.path {
	case pathDgf:
		b.span.Set("gfu_slices", len(p.plan.Slices))
		b.span.Set("gfu_cells", p.plan.InnerCells+p.plan.BoundaryCells+p.plan.MissingCells)
		b.span.Set("projected_bytes", p.plan.ProjectedBytes)
		stats.IndexSimSec = p.plan.KVSimSeconds
		b.input = &dgf.SliceInput{FS: w.FS, Plan: p.plan, Format: q.left.Dgf.Format, Schema: q.left.Schema}
	case pathHiveIndex:
		if p.aggRewrite {
			// Aggregate Index rewrite: covered GROUP BY count queries read
			// the index table only. The per-group counts become partial
			// COUNT state so the rewrite also merges across shards.
			counts, st, err := p.ix.AggregateCounts(ctx, w.Cluster, w.FS, q.leftRanges, q.groupByNames())
			if err != nil {
				return nil, err
			}
			b.pr.Agg = q.layout().NewPartial()
			for key, n := range counts {
				accs := b.pr.Agg.Layout.newAccs()
				for _, a := range q.aggs {
					accs[a.slots[0]].Value = float64(n)
					accs[a.slots[0]].N = n
				}
				b.pr.Agg.fold(key, accs)
			}
			stats.IndexSimSec = st.SimTotalSec()
			stats.RecordsRead = st.InputRecords
			stats.BytesRead = st.InputBytes
			b.done = true
			return b, nil
		}
		fr, err := p.ix.Filter(ctx, w.Cluster, w.FS, q.leftRanges)
		if err != nil {
			return nil, err
		}
		stats.IndexSimSec = fr.ScanStats.SimTotalSec()
		base := p.ix.BaseInput(w.FS, fr)
		base.Project = q.projection()
		b.input = base
	default:
		b.input = p.scan
	}
	stats.Vectorized = true
	if q.right != nil {
		// Broadcast hash join: load the small side once (Hive's map-side
		// join).
		if b.joinMap, err = w.readJoinMap(ctx, q); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// selectLocked plans, binds and runs one SELECT under the catalog lock.
func (w *Warehouse) selectLocked(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	start := time.Now()
	pr, err := w.selectPartialLocked(ctx, stmt, opts)
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

// selectPartialLocked plans, binds and runs one SELECT under the catalog
// lock, returning its result in mergeable partial form.
func (w *Warehouse) selectPartialLocked(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (*PartialResult, error) {
	p, err := w.prepareSelectLocked(ctx, stmt, opts)
	if err != nil {
		return nil, err
	}
	return w.runPreparedSelect(ctx, p, nil)
}

// runPreparedSelect executes the prepared query's main job and finishes its
// warehouse span. It touches no catalog state, so callers may invoke it with
// or without the lock held. stream, when non-nil and the query is a plain
// projection (no aggregates), receives each output row as its batch is
// projected instead of the rows being materialized into the PartialResult; a
// false return stops the scan at the next split boundary (LIMIT cursors).
// Calls to stream are serialized. On a mid-scan abort the returned error
// wraps ctx.Err() and the PartialResult still carries the stats of the work
// done so far — callers that want all-or-nothing semantics must check the
// error first.
func (w *Warehouse) runPreparedSelect(ctx context.Context, p *preparedSelect, stream func(storage.Row) bool) (*PartialResult, error) {
	q, pr, sp := p.q, p.pr, p.span
	stats := &pr.Stats
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
	if p.done {
		stats.Wall = time.Since(p.start)
		return pr, nil
	}
	ctx = trace.NewContext(ctx, sp)
	jobStats, rows, agg, err := w.runQueryJob(ctx, p, stream)
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

// scanFilesLocked lists the files a table scan reads (caller holds w.mu),
// pruning partitions by the predicate on the partition column (Hive's
// "coarse-grained index", Section 2.2 of the paper), and the access-path
// label that reports the pruning.
func (q *compiledQuery) scanFilesLocked(w *Warehouse) ([]dfs.FileInfo, string, error) {
	if q.left.PartitionBy == "" {
		files, err := w.FS.ListFiles(q.left.Dir)
		return files, "scan", err
	}
	var keep func(storage.Value) bool
	if r, ok := q.leftRanges[strings.ToLower(q.left.PartitionBy)]; ok {
		keep = r.Contains
	}
	files, kept, total, err := w.partitionFilesLocked(q.left, keep)
	if err != nil {
		return nil, "", err
	}
	return files, fmt.Sprintf("scan(partitions %d/%d)", kept, total), nil
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

// groupByNames lists the GROUP BY column names, the dimensions the
// aggregate-index rewrite groups by.
func (q *compiledQuery) groupByNames() []string {
	names := make([]string, len(q.stmt.GroupBy))
	for i, g := range q.stmt.GroupBy {
		names[i] = g.Name
	}
	return names
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
// once over each batch, and only the rows they keep enter the map. A ctx that
// ends stops the read at the next split.
func (w *Warehouse) readJoinMap(ctx context.Context, q *compiledQuery) (map[string][]storage.Row, error) {
	t := q.right
	in := &mapreduce.FileInput{FS: w.FS, Dir: t.Dir, Format: t.Format, Schema: t.Schema}
	splits, err := in.Splits()
	if err != nil {
		return nil, err
	}
	out := map[string][]storage.Row{}
	for _, split := range splits {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("hive: join side not read: %w", err)
		}
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
	if len(funcs) == 0 && len(data) == 0 {
		// A GROUP BY without aggregates: the shuffle key is the whole partial.
		return nil, nil
	}
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
