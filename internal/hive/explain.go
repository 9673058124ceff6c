package hive

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// ExplainPlan is the structured outcome of EXPLAIN SELECT: the access path
// the executor will choose, the exact data volume the chosen path will
// fetch, and — when produced by a shard router — the shard target set. Every
// field is rendered from the plan the executor binds, so a plan followed
// immediately by the real execution reports matching numbers (AccessPath
// equals QueryStats.AccessPath; ProjectedBytes, where known, equals
// QueryStats.BytesRead).
type ExplainPlan struct {
	// Table is the FROM table; JoinTable the broadcast side, if any.
	Table     string `json:"table"`
	JoinTable string `json:"join_table,omitempty"`
	// Format is the FROM table's storage format.
	Format string `json:"format"`
	// AccessPath is the label execution will report: "dgfindex",
	// "dgfindex(precompute)", "index:<name>", "aggindex-rewrite:<name>",
	// "scan", "scan(partitions k/t)" — or, from a router,
	// "sharded(k/n):<shard path>".
	AccessPath string `json:"access_path"`
	// ProjectedColumns names the columns the query references (and therefore
	// the columns columnar readers will fetch); all columns when the query
	// touches every one.
	ProjectedColumns []string `json:"projected_columns"`
	// ProjectedBytes is the exact byte volume the scan will read: the DGF
	// planner's per-group attribution for index slices, the (projected)
	// row-group stats for RCFile scans, file sizes for TextFile scans, plus
	// the broadcast side of a join. It is -1 when the path cannot predict
	// the volume without executing (Compact/Aggregate/Bitmap index paths,
	// whose base read set only exists after the index scan runs).
	ProjectedBytes int64 `json:"projected_bytes"`
	// GFUSlices is the number of index slices the DGF plan will scan
	// (boundary slices only under a precompute hit).
	GFUSlices int `json:"gfu_slices,omitempty"`
	// InnerCells/BoundaryCells/MissingCells decompose the DGF query region.
	InnerCells    int64 `json:"inner_cells,omitempty"`
	BoundaryCells int64 `json:"boundary_cells,omitempty"`
	MissingCells  int64 `json:"missing_cells,omitempty"`
	// PrecomputeHit marks a DGF plan whose inner region is answered from
	// pre-computed GFU headers alone.
	PrecomputeHit bool `json:"precompute_hit,omitempty"`
	// GroupPruning reports whether execution will consult zone maps to drop
	// row groups before fetching them: join-free RCFile scans and DGF plans
	// without the DisableSliceSkip option. Joins, TextFile data and
	// hive-index paths read every group their plan selects.
	GroupPruning bool `json:"group_pruning,omitempty"`
	// GroupsSkipped is the number of row groups the scan will prune without
	// fetching; their bytes are excluded from ProjectedBytes. Execution
	// reports the same number in QueryStats.GroupsSkipped.
	GroupsSkipped int64 `json:"groups_skipped,omitempty"`
	// EncodedColumns lists the table columns stored encoded in at least one
	// row group of the files the plan reads (the scan's files, or the DGF
	// slices'), with the encodings seen ("regionId(dict)", "ts(rle)");
	// kernels over them compare dictionary codes or whole runs instead of
	// cells. RCFile paths only.
	EncodedColumns []string `json:"encoded_columns,omitempty"`
	// ShardsTotal/ShardsTargeted/TargetShards describe a router plan: how
	// many shards exist, how many the routing-key predicate left in the
	// fan-out, and which. Zero ShardsTotal means the plan came from a bare
	// warehouse (or a single-shard router, which is pass-through).
	ShardsTotal    int   `json:"shards_total,omitempty"`
	ShardsTargeted int   `json:"shards_targeted,omitempty"`
	TargetShards   []int `json:"target_shards,omitempty"`
	// ReplicasPerShard is the router's copies per shard (1 = unreplicated);
	// ChosenReplicas names, per target shard, the replica the router's
	// least-loaded selection would currently read from (the execution that
	// follows picks again, and may fail over past the choice).
	ReplicasPerShard int   `json:"replicas_per_shard,omitempty"`
	ChosenReplicas   []int `json:"chosen_replicas,omitempty"`
	// Limit echoes the statement's LIMIT (0 = none); a cursor over the
	// statement stops consuming splits once it is satisfied.
	Limit int `json:"limit,omitempty"`
}

// Render lays the plan out as a two-column result (plan_item, value), the
// form the SQL layer and /query serialize like any other rows.
func (p *ExplainPlan) Render() *Result {
	res := &Result{Columns: []string{"plan_item", "value"}}
	add := func(k, v string) {
		res.Rows = append(res.Rows, storage.Row{storage.Str(k), storage.Str(v)})
	}
	add("access_path", p.AccessPath)
	add("table", p.Table)
	if p.JoinTable != "" {
		add("join_table", p.JoinTable)
	}
	add("format", p.Format)
	add("projected_columns", strings.Join(p.ProjectedColumns, ","))
	if p.ProjectedBytes >= 0 {
		add("projected_bytes", strconv.FormatInt(p.ProjectedBytes, 10))
	} else {
		add("projected_bytes", "unknown (index scan decides the read set)")
	}
	if p.GroupPruning {
		add("groups_skipped", strconv.FormatInt(p.GroupsSkipped, 10))
	}
	if len(p.EncodedColumns) > 0 {
		add("encoded_columns", strings.Join(p.EncodedColumns, ","))
	}
	if strings.HasPrefix(p.AccessPath, "dgfindex") || strings.Contains(p.AccessPath, ":dgfindex") {
		add("gfu_slices", strconv.Itoa(p.GFUSlices))
		add("inner_cells", strconv.FormatInt(p.InnerCells, 10))
		add("boundary_cells", strconv.FormatInt(p.BoundaryCells, 10))
		add("missing_cells", strconv.FormatInt(p.MissingCells, 10))
		add("precompute_hit", strconv.FormatBool(p.PrecomputeHit))
	}
	if p.ShardsTotal > 0 {
		targets := make([]string, len(p.TargetShards))
		for i, s := range p.TargetShards {
			targets[i] = strconv.Itoa(s)
		}
		add("shards", fmt.Sprintf("%d/%d targeted: %s", p.ShardsTargeted, p.ShardsTotal, strings.Join(targets, ",")))
		// Replication detail only when the fleet is actually replicated, so
		// an unreplicated router's EXPLAIN output is unchanged.
		if p.ReplicasPerShard > 1 {
			chosen := make([]string, len(p.ChosenReplicas))
			for i, rep := range p.ChosenReplicas {
				chosen[i] = strconv.Itoa(rep)
			}
			add("replicas", fmt.Sprintf("%d per shard; chosen: %s", p.ReplicasPerShard, strings.Join(chosen, ",")))
		}
	}
	if p.Limit > 0 {
		add("limit", strconv.Itoa(p.Limit))
	}
	res.Stats.RowsOut = len(res.Rows)
	return res
}

// Explain plans the SELECT without executing it and renders the plan: the
// same plan value the executor binds, so the access path and read volume it
// reports are those of the immediately following execution. Planning reads
// index key-value pairs and side statistics; EXPLAIN reads no table data and
// runs no index-table scan.
func (w *Warehouse) Explain(stmt *SelectStmt, opts ExecOptions) (*ExplainPlan, error) {
	p, err := w.planSelect(stmt, opts)
	if err != nil {
		return nil, err
	}
	return w.explain(p)
}

// explain renders a plan. The broadcast join side is read in full alongside
// any access path whose volume is known.
func (w *Warehouse) explain(p *selectPlan) (*ExplainPlan, error) {
	q := p.q
	ep := &ExplainPlan{
		Table:            q.left.Name,
		Format:           q.left.Format.String(),
		AccessPath:       p.accessPath,
		ProjectedColumns: projectedColumnNames(q),
		ProjectedBytes:   p.reads.Bytes,
		GroupPruning:     p.prune,
		GroupsSkipped:    p.reads.GroupsSkipped,
		Limit:            q.stmt.Limit,
	}
	if q.right != nil {
		ep.JoinTable = q.right.Name
		if ep.ProjectedBytes >= 0 {
			ep.ProjectedBytes += p.sideBytes
		}
	}
	// Encodings are a property of the files the path reads: the scan's, or
	// the ones the DGF plan's slices name.
	var files []string
	switch in := p.input.(type) {
	case *mapreduce.FileInput:
		if in.Format == storage.RCFile {
			files = in.Paths
		}
	case *dgf.SliceInput:
		pl := p.plan
		ep.PrecomputeHit = pl.Aggregation
		ep.GFUSlices = len(pl.Slices)
		ep.InnerCells, ep.BoundaryCells, ep.MissingCells = pl.InnerCells, pl.BoundaryCells, pl.MissingCells
		if in.Format == storage.RCFile {
			for i, s := range pl.Slices {
				if i == 0 || s.File != pl.Slices[i-1].File {
					files = append(files, s.File)
				}
			}
		}
	}
	var err error
	ep.EncodedColumns, err = encodedColumnNames(w, files, q.left.Schema)
	return ep, err
}

// encodedColumnNames unions the per-column encodings recorded in the files'
// row-group stats and renders, in schema order, every column stored non-plain
// in at least one group — "regionId(dict)", "ts(rle)", or "city(dict,rle)"
// when groups disagree.
func encodedColumnNames(w *Warehouse, files []string, schema *storage.Schema) ([]string, error) {
	nCols := len(schema.Cols)
	seen := make(map[int]map[byte]bool)
	for _, f := range files {
		_, stats, err := storage.ReadGroups(w.FS, f)
		if err != nil {
			return nil, err
		}
		for _, g := range stats {
			for c := 0; c < nCols; c++ {
				if enc := g.Enc(c); enc != storage.EncPlain {
					if seen[c] == nil {
						seen[c] = map[byte]bool{}
					}
					seen[c][enc] = true
				}
			}
		}
	}
	var out []string
	for c := 0; c < nCols; c++ {
		encs := seen[c]
		if len(encs) == 0 {
			continue
		}
		var names []string
		// Fixed dict, rle, packed order keeps the rendering deterministic.
		for _, enc := range []byte{storage.EncDict, storage.EncRLE, storage.EncPacked, storage.EncPackedDecimal} {
			if encs[enc] {
				names = append(names, storage.EncodingName(enc))
			}
		}
		out = append(out, schema.Cols[c].Name+"("+strings.Join(names, ",")+")")
	}
	return out, nil
}

// projectedColumnNames renders the referenced-column set in schema order.
func projectedColumnNames(q *compiledQuery) []string {
	proj := q.projection()
	var out []string
	for i, c := range q.left.Schema.Cols {
		if proj == nil || (i < len(proj) && proj[i]) {
			out = append(out, c.Name)
		}
	}
	return out
}
