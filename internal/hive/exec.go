package hive

import (
	"context"
	"fmt"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
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
	// planSelect).
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
	// key+value bytes) of the shuffle Hive would run after the scan job's
	// map tasks, priced from their group tables: one per group per split for
	// an aggregate, zero for a projection.
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
		return w.execSelect(ctx, s, opts)
	case *ExplainStmt:
		plan, err := w.Explain(s.Select, opts)
		if err != nil {
			return nil, err
		}
		return plan.Render(), nil
	case *TraceStmt:
		return TraceSelect(ctx, func(ctx context.Context) (*Result, error) {
			return w.execSelect(ctx, s.Select, opts)
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
	default:
		return w.execDDL(stmt)
	}
}

// ApplyDDL runs a logged DDL statement's text (DDL) as ExecParsedContext
// would and returns its message: a shard's applier calls it (wal.DDLStore).
func (w *Warehouse) ApplyDDL(text string) (string, error) {
	stmt, err := Parse(text)
	if err != nil {
		return "", err
	}
	res, err := w.execDDL(stmt)
	if err != nil {
		return "", err
	}
	return res.Message, nil
}

// execDDL runs one CREATE TABLE, DROP TABLE or CREATE INDEX under the
// catalog write lock (the parser refuses a partition column not listed).
func (w *Warehouse) execDDL(stmt Stmt) (*Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch s := stmt.(type) {
	case *CreateTableStmt:
		format := hiveindex.TextFile
		if s.Stored == "RCFILE" {
			format = hiveindex.RCFile
		}
		t, err := w.createTableLocked(s.Name, storage.NewSchema(s.Cols...), format)
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
		if err := w.dropTableLocked(s.Name); err != nil {
			return nil, err
		}
		return &Result{Message: "dropped table " + s.Name}, nil
	case *CreateIndexStmt:
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

// execSelect runs one SELECT and finalizes its rows. An INSERT OVERWRITE
// DIRECTORY sink (Listing 6) is the one step of a SELECT that writes: it
// takes the catalog write lock around the sink write alone. The sink
// replaces its directory's files, so a directory that is the warehouse
// root, lies inside it or holds it is refused before the query runs: its
// files are tables'.
func (w *Warehouse) execSelect(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	start := time.Now()
	if stmt.InsertDir != "" {
		dir, root := path.Clean("/"+stmt.InsertDir), path.Clean("/"+w.Root)
		if within(dir, root) || within(root, dir) {
			return nil, fmt.Errorf("hive: INSERT OVERWRITE DIRECTORY %q overlaps the warehouse %s", stmt.InsertDir, root)
		}
	}
	pr, err := w.runSelect(ctx, stmt, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	res := pr.Finalize(stmt.Limit)
	if stmt.InsertDir != "" {
		w.mu.Lock()
		w.FS.RemoveAll(stmt.InsertDir)
		err := storage.WriteTextRows(w.FS, path.Join(stmt.InsertDir, "000000_0"), res.Rows)
		w.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// within reports whether the clean absolute path p is dir or lies under it.
func within(p, dir string) bool {
	return p == dir || dir == "/" || strings.HasPrefix(p, dir+"/")
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
	pr, err := w.runSelect(ctx, stmt, opts, nil, nil)
	if err != nil {
		return nil, err
	}
	return pr, nil
}

// runSelect is every SELECT's one lifecycle: planSelect holds the catalog
// read lock, then the plan is bound and run with no lock held. The plan
// names every file the query reads, so no writer waits for a scan, and a
// DROP that removes a planned file surfaces as a read error naming it,
// never as a partial answer. cols, when non-nil, receives the output
// columns once bound; stream is runPreparedSelect's. A nil PartialResult
// means the statement did not plan or bind.
func (w *Warehouse) runSelect(ctx context.Context, stmt *SelectStmt, opts ExecOptions, cols func([]string), stream func(storage.Row) bool) (*PartialResult, error) {
	p, err := w.planSelect(stmt, opts)
	if err != nil {
		return nil, err
	}
	if err := w.bindSelect(ctx, p); err != nil {
		return nil, err
	}
	if cols != nil {
		cols(p.pr.Columns)
	}
	return w.runPreparedSelect(ctx, p, stream)
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
// or the hive index table's files listed, the read set known, the join
// side's files listed. EXPLAIN renders it and execution binds it; both
// consume this one value, so the announced plan cannot diverge from the
// executed one. Nothing after planning reads a mutable Table field.
type selectPlan struct {
	q     *compiledQuery
	start time.Time
	path  pathKind
	// accessPath is the label QueryStats and EXPLAIN report.
	accessPath string
	// plan is the DGF plan (pathDgf).
	plan *dgf.Plan
	// ix is the chosen Compact/Aggregate/Bitmap index (pathHiveIndex) and
	// indexFiles its index table's files, the input of its Filter or
	// AggregateCounts scan; aggRewrite marks the "index as data" rewrite.
	ix         *hiveindex.Index
	indexFiles []string
	aggRewrite bool
	// input is the main job's input: the DGF slices or the scan's files,
	// named at plan time so the job reads the files the plan saw, not one a
	// concurrent load is still writing. The hive-index path's is bound from
	// the index scan (hiveindex.BaseInput).
	input mapreduce.InputFormat
	// prune has the zone maps consulted so whole row groups are dropped
	// before they are fetched, and reads is the resulting read set. On the
	// hive-index path reads.Bytes is -1: the base read set only exists once
	// the index scan has run.
	prune bool
	reads dgf.ReadSet
	// sideFiles are the broadcast join side's data files, every partition's,
	// and sideBytes their volume.
	sideFiles []string
	sideBytes int64

	// Binding fills in the rest under the query's ctx. pr receives the
	// answer; done marks one answered while binding (the aggregate-index
	// rewrite: no job runs). joinMap holds the join-side rows the right-side
	// predicates keep. span is the query's warehouse span: it opens at the
	// plan's start, and the index scans binding runs are its children.
	pr      *PartialResult
	done    bool
	joinMap map[string][]storage.Row
	span    *trace.Span
	// bill is the query's ledger priced, once its job has run.
	bill cluster.Bill
}

// planSelect compiles the statement under the catalog read lock and decides
// its access path, and whether its row groups are pruned. Every path runs
// the same executor; pruning is the one thing that differs. It applies to
// join-free queries over RCFile data on the DGF and full-scan paths.
// TextFile has no row groups; a pruned group costs a simulated seek, which
// the cost model of a join or of the hive-index path (Hive's own indexes
// filter splits, groups and rows, nothing finer) has never been charged; and
// the slice-skip ablation reads whole splits, which the plan's skip set does
// not describe. Planning reads the index's key-value pairs and the data
// files' side statistics, never table data.
func (w *Warehouse) planSelect(stmt *SelectStmt, opts ExecOptions) (*selectPlan, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	start := time.Now()
	q, err := w.compileLocked(stmt)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{q: q, start: start}
	if q.right != nil {
		var files []dfs.FileInfo
		if files, p.sideBytes, err = w.tableFilesLocked(q.right); err != nil {
			return nil, err
		}
		for _, f := range files {
			p.sideFiles = append(p.sideFiles, f.Path)
		}
	}
	pruneOK := !opts.DisableSliceSkip && q.right == nil
	switch {
	case !opts.DisableIndexes && q.left.Dgf != nil:
		// Headers answer the inner region only of a join-free aggregate whose
		// every aggregate is pre-computed and whose range map is the WHERE
		// conjunction exactly: a join's rows exist only after the join, and
		// a != or multi-value IN leaves ranges a superset, whose headers would
		// count rows the residual predicate rejects. dgf.Plan decides the
		// rest: every range must be on a grid dimension (a filter on another
		// column is one headers never apply), and headers serve a GROUP BY
		// when each column is a unit-interval grid dimension, so every inner
		// cell holds one group.
		var want []dgf.AggSpec
		if q.right == nil && q.rangesExact {
			want = q.dgfWantSpecs()
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
			GroupBy:           q.groupByNames(),
		})
		if err != nil {
			return nil, err
		}
		p.accessPath = "dgfindex"
		if p.plan.Aggregation {
			p.accessPath = "dgfindex(precompute)"
		}
		p.input = &dgf.SliceInput{FS: w.FS, Plan: p.plan, Format: q.left.Dgf.Format, Schema: q.left.Schema}
		p.reads = dgf.ReadSet{Bytes: p.plan.ProjectedBytes, GroupsSkipped: p.plan.GroupsSkipped, SkipGroups: p.plan.SkipGroups}
		return p, nil
	case !opts.DisableIndexes && len(q.left.HiveIndexes) > 0:
		if ix := q.pickHiveIndex(); ix != nil {
			p.path, p.ix, p.aggRewrite = pathHiveIndex, ix, q.canAggRewrite(ix)
			p.accessPath = "index:" + ix.Name
			if p.aggRewrite {
				p.accessPath = "aggindex-rewrite:" + ix.Name
			}
			if p.indexFiles, err = ix.Files(w.FS); err != nil {
				return nil, err
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
	scan := &mapreduce.FileInput{FS: w.FS, Format: q.left.Format, Schema: q.left.Schema, Project: q.projection(),
		Paths: make([]string, len(files))}
	whole := make([]dgf.SliceLoc, len(files))
	for i, f := range files {
		scan.Paths[i] = f.Path
		size, err := storage.DataSize(w.FS, f.Path, q.left.Format)
		if err != nil {
			return nil, err
		}
		whole[i] = dgf.SliceLoc{File: f.Path, End: size}
	}
	p.reads, err = dgf.PlanReads(w.FS, q.left.Format, q.left.Schema, whole, scan.Project, q.leftRanges, p.prune)
	if err != nil {
		return nil, err
	}
	if skips := p.reads.SkipGroups; len(skips) > 0 {
		scan.SkipGroup = func(path string, off int64) bool { return skips[path][off] }
	}
	p.input = scan
	return p, nil
}

// bindSelect performs, under ctx and with no lock held, the steps of a plan
// that read index tables or the join side: the hive-index Filter or the
// aggregate-index rewrite over the index table's planned files, and the
// broadcast join map over the join side's planned files. The bound plan's
// job touches no catalog state.
func (w *Warehouse) bindSelect(ctx context.Context, p *selectPlan) (err error) {
	q := p.q
	p.pr = &PartialResult{Columns: q.columns()}
	stats := &p.pr.Stats
	stats.AccessPath = p.accessPath
	p.span = trace.FromContext(ctx).ChildAt("warehouse", p.start)
	p.span.Set("table", q.stmt.From.Table)
	p.span.Set("access_path", p.accessPath)
	defer func() {
		if err != nil {
			p.span.Finish()
		}
	}()
	ctx = trace.NewContext(ctx, p.span)
	switch p.path {
	case pathDgf:
		p.span.Set("gfu_slices", len(p.plan.Slices))
		p.span.Set("gfu_cells", p.plan.InnerCells+p.plan.BoundaryCells+p.plan.MissingCells)
		p.span.Set("projected_bytes", p.plan.ProjectedBytes)
	case pathHiveIndex:
		if p.aggRewrite {
			// Aggregate Index rewrite: covered GROUP BY count queries read
			// the index table only. The per-group counts become partial
			// COUNT state so the rewrite also merges across shards.
			counts, st, err := p.ix.AggregateCounts(ctx, w.Cluster, w.FS, p.indexFiles, q.leftRanges, q.groupByNames())
			if err != nil {
				return err
			}
			p.pr.Agg = q.layout().NewPartial()
			for key, n := range counts {
				accs := p.pr.Agg.Layout.newAccs()
				for _, a := range q.aggs {
					accs[a.slots[0]].Value = float64(n)
					accs[a.slots[0]].N = n
				}
				p.pr.Agg.fold(key, accs)
			}
			stats.IndexSimSec = st.SimTotalSec()
			stats.RecordsRead = st.InputRecords
			stats.BytesRead = st.InputBytes
			p.done = true
			return nil
		}
		fr, err := p.ix.Filter(ctx, w.Cluster, w.FS, p.indexFiles, q.leftRanges)
		if err != nil {
			return err
		}
		stats.IndexSimSec = fr.ScanStats.SimTotalSec()
		base := p.ix.BaseInput(w.FS, fr)
		base.Project = q.projection()
		p.input = base
	}
	stats.Vectorized = true
	if q.right != nil {
		// Broadcast hash join: load the small side once (Hive's map-side
		// join).
		if p.joinMap, err = w.readJoinMap(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// runPreparedSelect executes the bound plan's main job and finishes its
// warehouse span. It touches no catalog state. stream, when non-nil and the query is a plain
// projection (no aggregates), receives each output row as its batch is
// projected instead of the rows being materialized into the PartialResult; a
// false return stops the scan at the next split boundary (LIMIT cursors).
// Calls to stream are serialized. On a mid-scan abort the returned error
// wraps ctx.Err() and the PartialResult still carries the stats of the work
// done so far — callers that want all-or-nothing semantics must check the
// error first.
func (w *Warehouse) runPreparedSelect(ctx context.Context, p *selectPlan, stream func(storage.Row) bool) (*PartialResult, error) {
	q, pr, sp := p.q, p.pr, p.span
	stats := &pr.Stats
	defer func() {
		stats.Wall = time.Since(p.start)
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
		return pr, nil
	}
	ctx = trace.NewContext(ctx, sp)
	jobStats, rows, agg, err := w.runQueryJob(ctx, p, stream)
	// A cancelled scan still reports how far it got (cursors surface this as
	// partial stats); the result itself is then the error.
	if jobStats != nil {
		stats.RecordsRead = jobStats.InputRecords
		stats.BytesRead = jobStats.InputBytes
		stats.Splits = jobStats.Splits
		stats.Seeks = jobStats.Seeks
		stats.GroupsSkipped = jobStats.GroupsSkipped
	}
	stats.DictProbes = q.vecStats.dictProbes.Load()
	stats.RunsSkipped = q.vecStats.runsSkipped.Load()
	if err != nil {
		return pr, err
	}
	pr.Rows, pr.Agg = rows, agg
	stats.ShufflePairs = jobStats.ShufflePairs
	stats.ShuffleBytes = jobStats.ShuffleBytes
	// The paper's stacked bars: planning's key-value reads and the job's
	// startup count as "index and other" (after the index scan a hive index
	// ran), the job's other phases and the broadcast side's read as "read
	// data and process".
	stats.IndexSimSec += p.bill.KV + p.bill.Startup
	stats.DataSimSec = jobStats.SimTotalSec() - p.bill.Startup + p.bill.Side
	stats.BytesRead += p.sideBytes
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

// pickHiveIndex returns the first fresh index whose dimensions intersect
// the constrained columns, preferring more matching dimensions. An index a
// load has made stale is never picked: it does not cover the new files.
// Caller holds w.mu.
func (q *compiledQuery) pickHiveIndex() *hiveindex.Index {
	var best *hiveindex.Index
	bestScore := 0
	names := make([]string, 0, len(q.left.HiveIndexes))
	for n := range q.left.HiveIndexes {
		if q.left.indexedAt[n] == q.left.fileSeq {
			names = append(names, n)
		}
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
	// Every aggregate must be COUNT, and every GROUP BY and WHERE column
	// indexed: the index rows carry no other column to filter on.
	for _, a := range q.aggs {
		if a.kind != aggCount {
			return false
		}
	}
	indexed := func(name string) bool {
		return slices.ContainsFunc(ix.Cols, func(c string) bool { return strings.EqualFold(c, name) })
	}
	for _, g := range q.stmt.GroupBy {
		if !indexed(g.Name) {
			return false
		}
	}
	for name := range q.leftRanges {
		if !indexed(name) {
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
// state for aggregations. The job is map-only and both arrive typed — the
// projector hands over rows, the split folds their group tables — so nothing
// is printed to be parsed back. A non-nil stream (plain projections only)
// receives each output row as its batch is projected instead of the rows
// being collected, and a false return stops split consumption early. On a
// cancelled ctx the returned stats are non-nil partial progress alongside
// the error. Once the job has run, the query's ledger — the job's work, the
// shuffle the query declares, its plan's key-value reads and its join
// side's bytes — is priced into the returned stats and p.bill, and dropped.
func (w *Warehouse) runQueryJob(ctx context.Context, p *selectPlan, stream func(storage.Row) bool) (*mapreduce.Stats, []storage.Row, *PartialAgg, error) {
	q, joinMap := p.q, p.joinMap
	led := &cluster.Ledger{SideBytes: p.sideBytes}
	if p.plan != nil {
		led.KV = p.plan.KV
	}
	job := &mapreduce.Job{Name: "query-" + q.left.Name, Input: p.input, Ledger: led}
	// The one map task shape: the left-side kernels shrink the batch's
	// selection vector, the join (if any) expands it to pairs, and the task's
	// mapper projects the pairs or folds them (fold.go).
	var tables *groupTables
	var out *projection
	if q.isAgg {
		tables = &groupTables{}
		job.NewMapper = func() mapreduce.TaskMapper { return q.newSplitFold(joinMap, tables) }
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
	var agg *PartialAgg
	if tables != nil {
		// Merge the splits' tables and declare the shuffle Hive would run
		// over them: one reducer for a scalar aggregate, four for a GROUP BY.
		// Then fold in the pre-computed inner result, one entry per group.
		// Finalization (group sort, AVG division, scalar empty-input row)
		// happens later through PartialAgg.Finalize, shared with the shard
		// router's merge path.
		agg = q.layout().NewPartial()
		reducers := 1
		if len(q.groupBy) > 0 {
			reducers = 4
		}
		led.Reduces = tables.merge(agg, reducers)
		agg.foldPrecomputed(p.plan)
	}
	p.bill = jobStats.Charge(w.Cluster, led)
	switch {
	case agg != nil:
		return jobStats, nil, agg, nil
	case stream != nil:
		// Streamed rows were delivered as their batches were projected.
		return jobStats, nil, nil, nil
	}
	return jobStats, out.sorted(), nil, nil
}

// foldPrecomputed folds a DGF plan's pre-computed inner result into agg, one
// entry per group. An entry's key is its cells' lower bounds, each rendered
// as the split fold renders that value of the column and joined in GROUP BY
// order, so a group answered partly from headers and partly by a scan
// merges into one entry. A plan that scanned its inner cells, or none,
// contributes nothing.
func (agg *PartialAgg) foldPrecomputed(plan *dgf.Plan) {
	if plan == nil || !plan.Aggregation {
		return
	}
	var key []byte
	for _, g := range plan.PreGroups {
		key = key[:0]
		for i, v := range g.Key {
			if i > 0 {
				key = append(key, '\x01')
			}
			key = v.AppendText(key)
		}
		agg.fold(string(key), g.Header)
	}
}

// readJoinMap loads the join's (small) right table into a hash map keyed by
// the join column, the broadcast side of Hive's map-side join. It reads the
// side's files the plan named, every partition's, through the same batch
// reader as any scan; the right-side kernels run once over each batch, and
// only the rows they keep enter the map. A ctx that ends stops the read at
// the next split.
func (w *Warehouse) readJoinMap(ctx context.Context, p *selectPlan) (map[string][]storage.Row, error) {
	q := p.q
	in := &mapreduce.FileInput{FS: w.FS, Paths: p.sideFiles, Format: q.right.Format, Schema: q.right.Schema}
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

// appendPartials renders one accumulator vector as the shuffle value Hive
// would move for it: one value:count cell per slot, "-" for an empty one,
// joined by commas. Nothing is shuffled: the length of this rendering, with
// its key's, is what the cost model charges per pair (groupTables.merge).
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
