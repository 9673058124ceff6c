package dgf

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// PlanOptions describe the query to the planner beyond its ranges and
// aggregations; the zero value plans a scalar query the paper's way. The
// Disable flags exist for the ablation experiments.
type PlanOptions struct {
	// GroupBy names the query's GROUP BY columns, in order. Headers answer the
	// inner region of a grouped aggregation only when every one is a grid
	// dimension of unit interval (see groupDims); the plan then holds one
	// merged header per group instead of one in all.
	GroupBy []string
	// DisablePrecompute forces the planner to scan inner GFUs instead of
	// answering them from headers (the "DGF-noprecompute" bar of Fig. 17).
	DisablePrecompute bool
	// DisableSliceSkip keeps split filtering but removes sub-split slice
	// skipping: chosen splits are read in full, Compact-Index style.
	DisableSliceSkip bool
	// Project flags the table columns the query references, indexed by
	// schema position. Over columnar data the slice readers then fetch
	// only those columns' payloads; ProjectedBytes reports the resulting
	// exact read volume. Nil (or all-true) reads full records.
	Project []bool
	// ZoneSkip consults per-row-group zone maps to drop whole row groups
	// inside selected slices — double pruning: cells first, groups within
	// their slices second. RCFile data only (the warehouse asks for it on
	// join-free plans); the pruned groups are recorded in Plan.SkipGroups so
	// executed skips match the plan exactly.
	ZoneSkip bool
}

// Plan is the outcome of Algorithm 3: the pre-aggregated inner result (for
// aggregation queries), per group, the Slices that must be scanned and their
// read set.
// Making it reads GFU pairs and the data files' side statistics, never table
// data, so a warehouse's EXPLAIN renders the same Plan its execution then
// binds to a SliceInput and runs.
type Plan struct {
	// Aggregation is true when the query was planned as a pre-computable
	// aggregation: PreGroups then carries the inner region's result and
	// only boundary slices appear in Slices.
	Aggregation bool
	// PreSpecs aligns every PreGroups header with the requested aggregations.
	PreSpecs []AggSpec
	// PreGroups holds the inner region's result, one entry per group that
	// has at least one inner GFU, in the order the cells were enumerated. A
	// scalar aggregation is the case of zero group dimensions: at most one
	// entry, with an empty Key.
	PreGroups []PreGroup
	// Slices lists the byte ranges to scan, sorted by file then offset.
	Slices []SliceLoc
	// InnerCells, BoundaryCells and MissingCells count the decomposed
	// region (missing = enumerated grid cells with no GFU pair, which still
	// cost a key-value lookup; the paper observes this cost growing as the
	// interval size shrinks).
	InnerCells, BoundaryCells, MissingCells int64
	// SliceBytes is the total byte volume of Slices.
	SliceBytes int64
	// ProjectedBytes is the byte volume a slice read with the plan's
	// projection pushed down will actually fetch. Equal to SliceBytes for
	// TextFile data (no pushdown) and for full-width projections; strictly
	// lower over RCFile data when the query references a column subset.
	// Computed exactly by PlanReads from the reorganised files' per-group
	// column statistics, so cost attribution matches the readers byte for
	// byte.
	ProjectedBytes int64
	// KV counts the key-value operations planning made: the query's ledger
	// entry for the "read index" part of the paper's stacked bars.
	KV cluster.KVOps
	// DisableSliceSkip propagates the ablation flag to the input format.
	DisableSliceSkip bool
	// Project propagates the referenced-column set to the input format.
	Project []bool
	// GroupsSkipped counts the row groups inside selected slices that zone
	// maps pruned (ZoneSkip planning only). Their bytes are excluded from
	// ProjectedBytes.
	GroupsSkipped int64
	// SkipGroups records the pruned groups as file → group-offset set; the
	// slice readers consult it so executed skips match the plan.
	SkipGroups map[string]map[int64]bool
}

// PreGroup is the pre-computed result of one group's inner GFUs.
type PreGroup struct {
	// Key holds, per GROUP BY column in order, the lower bound of the
	// group's cells on that dimension. A unit interval holds one value, so
	// it is the value every row of the group has.
	Key []storage.Value
	// Header is the merged header of the group's inner GFUs, aligned with
	// Plan.PreSpecs.
	Header Header
}

// CanPrecompute reports whether every requested aggregation is derivable
// from the index's pre-computed header (the paper's condition for the
// header-only inner path). avg(col) derives from sum(col)+count(*).
func (ix *Index) CanPrecompute(wanted []AggSpec) bool {
	if len(wanted) == 0 {
		return false
	}
	for _, w := range wanted {
		if ix.findSpec(w) < 0 {
			return false
		}
	}
	return true
}

func (ix *Index) findSpec(w AggSpec) int {
	for i, have := range ix.Spec.Precompute {
		if have.Key() == w.Key() {
			return i
		}
	}
	return -1
}

// Plan runs Algorithm 3 for the given per-column ranges. Columns absent from
// ranges are completed with the stored per-dimension data bounds (the
// partially-specified-query rule of Section 5.3.4). wantAggs describes the
// query's aggregations; pass nil for non-aggregation queries. Pre-computation
// (Section 4.3) is grouping by zero or more grid dimensions: when every
// aggregation is pre-computed, every opts.GroupBy column is a unit-interval
// dimension, every range is on a dimension (the caller passes nil wantAggs
// when ranges do not carry its whole predicate) and the region has inner
// cells, each inner cell belongs to one
// group, its header is merged into that group's PreGroups entry, and only
// boundary cells are scanned. Any other query scans every cell it reads. The
// read set comes from PlanReads over the plan's slices, the same planner a
// full scan uses over whole files. Plan reads no table data. It prices
// nothing either: the cluster model is not consulted, and Plan.KV counts
// this plan's own store operations (not a delta of the store's counters,
// which several queries planning at once would share) for the query's
// ledger.
func (ix *Index) Plan(_ *cluster.Config, ranges map[string]gridfile.Range, wantAggs []AggSpec, opts PlanOptions) (*Plan, error) {
	plan := &Plan{DisableSliceSkip: opts.DisableSliceSkip}
	// Step 1: complete the predicate to all index dimensions.
	full := make([]gridfile.Range, len(ix.Spec.Policy.Dims))
	for i, d := range ix.Spec.Policy.Dims {
		if r, ok := lookupRange(ranges, d.Name); ok {
			full[i] = r
		} else {
			// Missing dimension: fetch min/max standardised values from the
			// store, as the paper does. (The build keeps them in ix too; the
			// lookups here model the HBase round trip.)
			ix.KV.Get(metaMinPrefix + fmt.Sprint(i))
			ix.KV.Get(metaMaxPrefix + fmt.Sprint(i))
			plan.KV.Gets += 2
			full[i] = gridfile.Range{
				Lo:     d.CellStart(ix.minCell[i]),
				Hi:     d.CellStart(ix.maxCell[i] + 1),
				HiOpen: true,
			}
		}
	}
	dec, err := ix.Spec.Policy.Decompose(full)
	if err != nil {
		return nil, err
	}
	dec.ClampRead(ix.minCell, ix.maxCell)

	groupDims, unit := ix.groupDims(opts.GroupBy)
	aggregation := !opts.DisablePrecompute && unit && ix.rangesOnDims(ranges) && ix.CanPrecompute(wantAggs) && dec.HasInner()
	plan.Aggregation = aggregation

	// Step 2: enumerate the query-related GFUs. For aggregation queries the
	// inner region is answered from headers; otherwise every read cell's
	// slices are fetched. Values are decoded in place: an inner cell folds its
	// header into its group's and its locations are never read, a scanned cell
	// contributes only its SliceLocs.
	scanCells := dec.EachReadCell
	header := NewHeader(ix.Spec.Precompute) // scratch, one cell at a time
	if aggregation {
		scanCells = dec.EachBoundaryCell
		innerKeys := ix.cellKeys(dec.EachInnerCell)
		plan.InnerCells = int64(len(innerKeys))
		plan.PreSpecs = wantAggs
		specOf := make([]int, len(wantAggs))
		for wi, w := range wantAggs {
			specOf[wi] = ix.findSpec(w)
		}
		// The inner region is a box, so a group's coordinates index a dense
		// table of the box's extent on the group dimensions (a column named
		// twice adds no coordinate): slot holds each group's position in
		// PreGroups, -1 until one of its cells is found.
		strides := make([]int64, len(groupDims))
		extent := int64(1)
		for k := len(groupDims) - 1; k >= 0; k-- {
			if !slices.Contains(groupDims[:k], groupDims[k]) {
				strides[k] = extent
				extent *= dec.Inner[groupDims[k]].Count()
			}
		}
		slot := make([]int32, extent)
		for g := range slot {
			slot[g] = -1
		}
		plan.KV.Gets += int64(len(innerKeys))
		values := ix.KV.MultiGet(innerKeys)
		i := 0
		// EachInnerCell enumerates the cells in the order cellKeys rendered
		// their keys, so the i-th cell's value is values[i].
		dec.EachInnerCell(func(cells []int64) {
			data, key := values[i], innerKeys[i]
			i++
			if err != nil {
				return
			}
			if data == nil {
				plan.MissingCells++
				return
			}
			if _, err = readHeader(header, data); err != nil {
				err = ix.badGFU(key, err)
				return
			}
			var g int64
			for k, di := range groupDims {
				g += (cells[di] - dec.Inner[di].Lo) * strides[k]
			}
			if slot[g] < 0 {
				slot[g] = int32(len(plan.PreGroups))
				pg := PreGroup{Key: make([]storage.Value, len(groupDims)), Header: NewHeader(wantAggs)}
				for k, di := range groupDims {
					pg.Key[k] = ix.Spec.Policy.Dims[di].CellStart(cells[di])
				}
				plan.PreGroups = append(plan.PreGroups, pg)
			}
			pre := plan.PreGroups[slot[g]].Header
			for wi, si := range specOf {
				pre[wi].Merge(header[si])
			}
		})
		if err != nil {
			return nil, err
		}
	}
	scanKeys := ix.cellKeys(scanCells)
	plan.BoundaryCells = int64(len(scanKeys))
	plan.KV.Gets += int64(len(scanKeys))
	for i, data := range ix.KV.MultiGet(scanKeys) {
		if data == nil {
			plan.MissingCells++
			continue
		}
		locs, err := readHeader(header, data)
		if err == nil {
			plan.Slices, err = ix.readSlices(plan.Slices, locs)
		}
		if err != nil {
			return nil, ix.badGFU(scanKeys[i], err)
		}
	}
	slices.SortFunc(plan.Slices, func(a, b SliceLoc) int {
		if c := strings.Compare(a.File, b.File); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
	for _, s := range plan.Slices {
		plan.SliceBytes += s.Len()
	}
	if !fullProjection(opts.Project, ix.Schema.Len()) {
		plan.Project = opts.Project
	}
	rs, err := PlanReads(ix.FS, ix.Format, ix.Schema, plan.Slices, plan.Project, ranges, opts.ZoneSkip)
	if err != nil {
		return nil, err
	}
	plan.ProjectedBytes, plan.GroupsSkipped, plan.SkipGroups = rs.Bytes, rs.GroupsSkipped, rs.SkipGroups
	return plan, nil
}

// groupDims resolves GROUP BY column names to grid dimensions, and reports
// whether every one is a dimension whose interval holds exactly one value: a
// bigint dimension of interval 1, or a timestamp one of 1 s. Only then does
// each cell lie in one group. A float dimension never qualifies. No columns
// is the scalar case, which always does.
func (ix *Index) groupDims(names []string) ([]int, bool) {
	dims := make([]int, len(names))
	for k, name := range names {
		di := ix.Spec.Policy.DimIndex(name)
		if di < 0 {
			return nil, false
		}
		if d := ix.Spec.Policy.Dims[di]; d.Kind == storage.KindFloat64 || d.IntervalI != 1 {
			return nil, false
		}
		dims[k] = di
	}
	return dims, true
}

// rangesOnDims reports whether every range constrains a grid dimension. A
// header counts every row of its cell, and the cells are chosen by the
// dimension ranges alone, so a range on any other column is a filter the
// headers never apply.
func (ix *Index) rangesOnDims(ranges map[string]gridfile.Range) bool {
	for name := range ranges {
		if ix.Spec.Policy.DimIndex(name) < 0 {
			return false
		}
	}
	return true
}

// cellKeys renders the store key of every cell `each` enumerates. The keys of
// one plan are substrings of a single string.
func (ix *Index) cellKeys(each func(func(cells []int64))) []string {
	var buf []byte
	var ends []int
	each(func(cells []int64) {
		buf = ix.Spec.Policy.AppendKey(append(buf, gfuPrefix...), cells)
		ends = append(ends, len(buf))
	})
	all, keys, start := string(buf), make([]string, len(ends)), 0
	for i, end := range ends {
		keys[i], start = all[start:end], end
	}
	return keys
}

// fullProjection reports whether project keeps every one of n columns (a
// nil projection does).
func fullProjection(project []bool, n int) bool {
	if project == nil {
		return true
	}
	for i := 0; i < n; i++ {
		if i >= len(project) || !project[i] {
			return false
		}
	}
	return true
}

// zoneDisjoint reports whether the zone [minV, maxV] cannot intersect r.
func zoneDisjoint(minV, maxV storage.Value, r gridfile.Range) bool {
	if !r.LoUnbounded {
		if c := storage.Compare(maxV, r.Lo); c < 0 || (c == 0 && r.LoOpen) {
			return true
		}
	}
	if !r.HiUnbounded {
		if c := storage.Compare(minV, r.Hi); c > 0 || (c == 0 && r.HiOpen) {
			return true
		}
	}
	return false
}

// zoneRange is a predicate range resolved to a schema column: what row-group
// pruning checks a group's zone map against.
type zoneRange struct {
	col int
	r   gridfile.Range
}

// zoneRanges resolves per-column predicate ranges against schema, dropping
// ranges on names the schema does not have.
func zoneRanges(schema *storage.Schema, ranges map[string]gridfile.Range) []zoneRange {
	var out []zoneRange
	for name, r := range ranges {
		if c := schema.ColIndex(name); c >= 0 {
			out = append(out, zoneRange{col: c, r: r})
		}
	}
	return out
}

// groupDisjoint is the row-group pruning predicate: it reports whether some
// range misses its column's zone [min, max] in the group, so no row of the
// group can match. A group without a zone map, or a column without a zone,
// rules nothing out.
func groupDisjoint(stat storage.GroupStat, zones []zoneRange) bool {
	for _, z := range zones {
		if minV, maxV, ok := stat.Zone(z.col); ok && zoneDisjoint(minV, maxV, z.r) {
			return true
		}
	}
	return false
}

// ReadSet is what a scan of a list of slices will fetch: the exact byte
// volume and the row groups zone maps prune before their payloads are read.
type ReadSet struct {
	// Bytes is the volume the readers will report having fetched.
	Bytes int64
	// GroupsSkipped counts the pruned row groups; their bytes are not in
	// Bytes. SkipGroups records them as file → group-offset set, the form
	// the readers consult.
	GroupsSkipped int64
	SkipGroups    map[string]map[int64]bool
}

// PlanReads is the one read-set planner, for the slices of a DGF plan and
// for a full scan alike (one whole-file slice per file). For TextFile data
// the volume is the slices' length. For RCFile data it is derived, exactly,
// from the per-group column statistics written next to each data file, with
// project (nil keeps every column) pushed down — the same numbers the readers
// will report; with zoneSkip set, every row group whose zone map is disjoint
// from a range is pruned. Only side files are read, never table data.
func PlanReads(fs *dfs.FS, format storage.Format, schema *storage.Schema, slices []SliceLoc, project []bool, ranges map[string]gridfile.Range, zoneSkip bool) (ReadSet, error) {
	var rs ReadSet
	if format != storage.RCFile || (project == nil && !zoneSkip) {
		// Full-width reads fetch the slices whole; the build's Cut invariant
		// aligns every slice on row-group boundaries (and a whole file is a
		// run of groups), so the slice volume already is the exact read
		// volume — no need to touch the side statistics.
		for _, sl := range slices {
			rs.Bytes += sl.Len()
		}
		return rs, nil
	}
	var zones []zoneRange
	if zoneSkip {
		zones = zoneRanges(schema, ranges)
	}
	// Slices come grouped by file (a Plan's are sorted), so each file's row
	// groups are looked up once per run of its slices.
	var file string
	var offsets []int64
	var groups []storage.GroupStat
	for _, sl := range slices {
		if sl.File != file {
			var err error
			if offsets, groups, err = storage.ReadGroups(fs, sl.File); err != nil {
				return ReadSet{}, fmt.Errorf("dgf: plan: row groups of %s: %w", sl.File, err)
			}
			file = sl.File
		}
		lo := sort.Search(len(offsets), func(i int) bool { return offsets[i] >= sl.Start })
		hi := sort.Search(len(offsets), func(i int) bool { return offsets[i] >= sl.End })
		for g := lo; g < hi; g++ {
			if !groupDisjoint(groups[g], zones) {
				rs.Bytes += groups[g].ProjectedSize(project)
				continue
			}
			rs.GroupsSkipped++
			if rs.SkipGroups == nil {
				rs.SkipGroups = map[string]map[int64]bool{}
			}
			fileSkips := rs.SkipGroups[sl.File]
			if fileSkips == nil {
				fileSkips = map[int64]bool{}
				rs.SkipGroups[sl.File] = fileSkips
			}
			fileSkips[offsets[g]] = true
		}
	}
	return rs, nil
}

func lookupRange(ranges map[string]gridfile.Range, name string) (gridfile.Range, bool) {
	if r, ok := ranges[name]; ok {
		return r, true
	}
	for k, r := range ranges {
		if strings.EqualFold(k, name) {
			return r, true
		}
	}
	return gridfile.Range{}, false
}

// Ranges converts value bounds into a gridfile.Range map (test helper and
// public-API convenience).
func Ranges(pairs map[string][2]storage.Value) map[string]gridfile.Range {
	out := make(map[string]gridfile.Range, len(pairs))
	for k, v := range pairs {
		out[k] = gridfile.Range{Lo: v[0], Hi: v[1]}
	}
	return out
}
