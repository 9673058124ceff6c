package hive

import (
	"errors"
	"fmt"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// side distinguishes which input row an expression reads from.
type side uint8

const (
	sideLeft side = iota
	sideRight
)

// cexpr is a compiled scalar expression over a (left, right) row pair.
type cexpr func(l, r storage.Row) storage.Value

// aggKind enumerates the SQL aggregates.
type aggKind uint8

const (
	aggSum aggKind = iota
	aggCount
	aggMin
	aggMax
	aggAvg
)

// compiledAgg is one aggregate call bound to accumulator slots.
type compiledAgg struct {
	kind aggKind
	arg  cexpr // nil for count
	// argCol is the left-schema column the argument reads when it is a bare
	// numeric column of the scanned table (-1 otherwise): the fold then takes
	// the values from the batch's vector instead of evaluating arg per row.
	argCol int
	// slots into the shared accumulator vector: one for sum/count/min/max,
	// two (sum, count) for avg.
	slots []int
	// dgfSpecs is the pre-computable form (nil when not derivable, e.g.
	// the argument touches the join side).
	dgfSpecs []dgf.AggSpec
	name     string
}

// compiledItem is one SELECT item.
type compiledItem struct {
	name string
	// groupIdx >= 0: the item is the groupIdx-th GROUP BY column.
	groupIdx int
	// agg != nil: the item is an aggregate.
	agg *compiledAgg
	// expr: plain scalar projection (non-aggregate queries).
	expr cexpr
	kind storage.Kind
}

// compiledQuery is a fully planned SELECT.
type compiledQuery struct {
	stmt      *SelectStmt
	left      *Table
	right     *Table // nil unless joined
	leftRef   TableRef
	rightRef  TableRef
	joinLeft  int // join column index in left schema
	joinRight int // join column index in right schema
	// leftPreds and rightPreds hold the WHERE conjunction, one kernel per
	// comparison in statement order, each bound to its own side's schema:
	// left kernels run on the scanned batches, right kernels once over the
	// broadcast table. vecStats collects their encoding-aware work counters
	// across the job's concurrent map tasks.
	leftPreds, rightPreds []vecPred
	vecStats              vecStats
	leftRanges            map[string]gridfile.Range
	// rangesExact reports that leftRanges carries the WHERE conjunction
	// exactly. A != predicate (never folded) or a multi-value IN (folded to
	// its bounding box, a superset) clears it; header-precompute and
	// aggregate-index rewrites must then not trust ranges alone.
	rangesExact bool
	// leftRefCols flags every left-schema column the query references
	// (filters, projections, group keys, aggregate arguments, join key) —
	// the set pushed down into columnar readers.
	leftRefCols map[int]bool
	items       []compiledItem
	groupBy     []cexpr
	groupKinds  []storage.Kind
	// groupCols holds, per GROUP BY column, its left-schema position, or -1
	// for a column of the join side.
	groupCols []int
	aggs      []*compiledAgg
	slotFuncs []dgf.AggFunc // accumulator vector layout
	isAgg     bool
}

// projection renders the referenced-column set as a schema-aligned flag
// slice for columnar readers, or nil when the query touches every column
// (projection pushdown would then buy nothing).
func (q *compiledQuery) projection() []bool {
	if len(q.leftRefCols) >= q.left.Schema.Len() {
		return nil
	}
	out := make([]bool, q.left.Schema.Len())
	for i := range out {
		out[i] = q.leftRefCols[i]
	}
	return out
}

// columns lists the output column names.
func (q *compiledQuery) columns() []string {
	cols := make([]string, len(q.items))
	for i, it := range q.items {
		cols[i] = it.name
	}
	return cols
}

// IsAggregate reports whether a SELECT aggregates: it has an aggregate call
// or a GROUP BY. A GROUP BY without an aggregate answers its distinct
// groups. The compiler and the shard router both classify with it, so a
// warehouse and a fleet agree on which statements fold.
func IsAggregate(s *SelectStmt) bool {
	if len(s.GroupBy) > 0 {
		return true
	}
	for _, item := range s.Select {
		if _, ok := item.Expr.(AggCall); ok {
			return true
		}
	}
	return false
}

// compileLocked resolves names, folds the WHERE conjunction into per-column
// ranges (WhereRanges), and binds aggregates to accumulator slots. Caller
// holds w.mu.
func (w *Warehouse) compileLocked(stmt *SelectStmt) (*compiledQuery, error) {
	left, err := w.tableLocked(stmt.From.Table)
	if err != nil {
		return nil, err
	}
	q := &compiledQuery{
		stmt:        stmt,
		left:        left,
		leftRef:     stmt.From,
		leftRanges:  WhereRanges(stmt, left.Schema),
		rangesExact: true,
		leftRefCols: map[int]bool{},
		isAgg:       IsAggregate(stmt),
	}
	if stmt.Join != nil {
		right, err := w.tableLocked(stmt.Join.Table.Table)
		if err != nil {
			return nil, err
		}
		q.right = right
		q.rightRef = stmt.Join.Table
		// Resolve the ON columns to their sides, in either order.
		lSide, lIdx, _, err1 := q.resolveCol(stmt.Join.Left)
		rSide, rIdx, _, err2 := q.resolveCol(stmt.Join.Right)
		if err1 != nil || err2 != nil {
			// Either error may be nil here; Join drops the nil one.
			return nil, fmt.Errorf("hive: cannot resolve join columns: %w", errors.Join(err1, err2))
		}
		if lSide == rSide {
			return nil, fmt.Errorf("hive: join ON must reference both tables")
		}
		if lSide == sideLeft {
			q.joinLeft, q.joinRight = lIdx, rIdx
		} else {
			q.joinLeft, q.joinRight = rIdx, lIdx
		}
	}

	// WHERE: one kernel per comparison.
	for _, cmp := range stmt.Where {
		if err := q.compileComparison(cmp); err != nil {
			return nil, err
		}
	}

	// GROUP BY.
	for _, g := range stmt.GroupBy {
		s, idx, kind, err := q.resolveCol(g)
		if err != nil {
			return nil, err
		}
		q.groupBy = append(q.groupBy, colExpr(s, idx))
		q.groupKinds = append(q.groupKinds, kind)
		if s == sideRight {
			idx = -1
		}
		q.groupCols = append(q.groupCols, idx)
	}

	// SELECT items.
	for _, item := range stmt.Select {
		if err := q.compileItem(item); err != nil {
			return nil, err
		}
	}
	if q.isAgg {
		for _, it := range q.items {
			if it.agg == nil && it.groupIdx < 0 {
				return nil, fmt.Errorf("hive: %q must appear in GROUP BY or an aggregate", it.name)
			}
		}
	}
	return q, nil
}

// resolveCol binds a column reference to a side and schema position.
func (q *compiledQuery) resolveCol(c ColRef) (side, int, storage.Kind, error) {
	if c.Name == "*" {
		return sideLeft, -1, storage.KindString, fmt.Errorf("hive: * not valid here")
	}
	tryLeft := q.leftRef.Matches(c.Qualifier)
	tryRight := q.right != nil && q.rightRef.Matches(c.Qualifier)
	if tryLeft {
		if i := q.left.Schema.ColIndex(c.Name); i >= 0 {
			if q.leftRefCols != nil {
				q.leftRefCols[i] = true
			}
			return sideLeft, i, q.left.Schema.Col(i).Kind, nil
		}
	}
	if tryRight {
		if i := q.right.Schema.ColIndex(c.Name); i >= 0 {
			return sideRight, i, q.right.Schema.Col(i).Kind, nil
		}
	}
	return sideLeft, 0, 0, fmt.Errorf("hive: unknown column %q", c.String())
}

func colExpr(s side, idx int) cexpr {
	if s == sideLeft {
		return func(l, r storage.Row) storage.Value { return l[idx] }
	}
	return func(l, r storage.Row) storage.Value { return r[idx] }
}

// compileExpr compiles a scalar (non-aggregate) expression. The second
// return value is the canonical lower-case rendering when the expression
// touches only left-table columns ("" otherwise) — the form matched against
// DGFIndex pre-compute specs.
func (q *compiledQuery) compileExpr(e Expr) (cexpr, string, storage.Kind, error) {
	switch t := e.(type) {
	case Lit:
		v := t.Value
		return func(l, r storage.Row) storage.Value { return v }, v.String(), v.Kind, nil
	case ColRef:
		s, idx, kind, err := q.resolveCol(t)
		if err != nil {
			return nil, "", 0, err
		}
		canon := ""
		if s == sideLeft {
			canon = strings.ToLower(q.left.Schema.Col(idx).Name)
		}
		return colExpr(s, idx), canon, kind, nil
	case Mul:
		le, lc, _, err := q.compileExpr(t.L)
		if err != nil {
			return nil, "", 0, err
		}
		re, rc, _, err := q.compileExpr(t.R)
		if err != nil {
			return nil, "", 0, err
		}
		canon := ""
		if lc != "" && rc != "" {
			canon = lc + "*" + rc
		}
		return func(l, r storage.Row) storage.Value {
			return storage.Float64(le(l, r).AsFloat() * re(l, r).AsFloat())
		}, canon, storage.KindFloat64, nil
	case AggCall:
		return nil, "", 0, fmt.Errorf("hive: aggregate %s not allowed here", t.Func)
	default:
		return nil, "", 0, fmt.Errorf("hive: unsupported expression %T", e)
	}
}

// compileComparison lowers one WHERE comparison: its literals coerce to the
// column kind once and the kernel joins its side's predicate list. The
// comparison's range is WhereRanges' to fold; what is recorded here is
// whether that fold stays exact.
func (q *compiledQuery) compileComparison(cmp Comparison) error {
	s, idx, kind, err := q.resolveCol(cmp.Col)
	if err != nil {
		return err
	}
	in := cmp.Op == "IN"
	raws := cmp.Vals
	if !in {
		raws = []storage.Value{cmp.Val}
	} else if len(raws) == 0 {
		return fmt.Errorf("hive: IN on %s needs at least one value", cmp.Col.String())
	}
	vals, err := coerceAll(raws, kind)
	if err != nil {
		return fmt.Errorf("hive: predicate on %s: %w", cmp.Col.String(), err)
	}
	pred := compileVecIn(idx, kind, vals, &q.vecStats)
	if !in {
		pred = compileVecComparison(idx, kind, cmp.Op, vals[0], &q.vecStats)
	}
	if s == sideRight {
		q.rightPreds = append(q.rightPreds, pred)
	} else {
		q.leftPreds = append(q.leftPreds, pred)
	}
	if cmp.Op == "!=" || len(vals) > 1 {
		// != never folds into a range, and a bounding box admits values
		// between the set's members: leftRanges describes a superset of the
		// conjunction.
		q.rangesExact = false
	}
	return nil
}

func rangeFromOp(op string, val storage.Value) gridfile.Range {
	switch op {
	case "<":
		return gridfile.Range{LoUnbounded: true, Hi: val, HiOpen: true}
	case "<=":
		return gridfile.Range{LoUnbounded: true, Hi: val}
	case ">":
		return gridfile.Range{Lo: val, LoOpen: true, HiUnbounded: true}
	case ">=":
		return gridfile.Range{Lo: val, HiUnbounded: true}
	default: // "="
		return gridfile.Range{Lo: val, Hi: val}
	}
}

// coerce converts a parsed literal to the column kind (date strings become
// timestamps, ints widen to floats, and so on).
func coerce(v storage.Value, kind storage.Kind) (storage.Value, error) {
	if v.Kind == kind {
		return v, nil
	}
	switch kind {
	case storage.KindTime:
		if v.Kind == storage.KindString {
			return storage.ParseTime(v.S)
		}
		return storage.TimeUnix(v.AsInt()), nil
	case storage.KindFloat64:
		return storage.Float64(v.AsFloat()), nil
	case storage.KindInt64:
		if v.Kind == storage.KindFloat64 {
			return v, nil // compare as float, Hive-style lenient
		}
		return storage.Int64(v.AsInt()), nil
	default:
		return storage.Str(v.String()), nil
	}
}

// compileItem classifies one SELECT item.
func (q *compiledQuery) compileItem(item SelectItem) error {
	// SELECT * expands to all columns.
	if c, ok := item.Expr.(ColRef); ok && c.Name == "*" {
		for i, col := range q.left.Schema.Cols {
			q.leftRefCols[i] = true
			q.items = append(q.items, compiledItem{
				name: col.Name, groupIdx: -1, expr: colExpr(sideLeft, i), kind: col.Kind,
			})
		}
		if q.right != nil {
			for i, col := range q.right.Schema.Cols {
				q.items = append(q.items, compiledItem{
					name: col.Name, groupIdx: -1, expr: colExpr(sideRight, i), kind: col.Kind,
				})
			}
		}
		return nil
	}
	if call, ok := item.Expr.(AggCall); ok {
		agg, err := q.compileAgg(call)
		if err != nil {
			return err
		}
		name := item.Alias
		if name == "" {
			name = agg.name
		}
		q.aggs = append(q.aggs, agg)
		q.items = append(q.items, compiledItem{name: name, groupIdx: -1, agg: agg, kind: storage.KindFloat64})
		return nil
	}
	// Group column or plain projection.
	ce, _, kind, err := q.compileExpr(item.Expr)
	if err != nil {
		return err
	}
	name := item.Alias
	if name == "" {
		name = exprName(item.Expr)
	}
	gi := -1
	if c, ok := item.Expr.(ColRef); ok {
		for i, g := range q.stmt.GroupBy {
			if strings.EqualFold(g.Name, c.Name) && (g.Qualifier == c.Qualifier || g.Qualifier == "" || c.Qualifier == "") {
				gi = i
			}
		}
	}
	q.items = append(q.items, compiledItem{name: name, groupIdx: gi, expr: ce, kind: kind})
	return nil
}

func exprName(e Expr) string {
	switch t := e.(type) {
	case ColRef:
		return t.Name
	case Mul:
		return exprName(t.L) + "*" + exprName(t.R)
	case Lit:
		return t.Value.String()
	case AggCall:
		if t.Star {
			return strings.ToLower(t.Func) + "(*)"
		}
		return strings.ToLower(t.Func) + "(" + exprName(t.Arg) + ")"
	default:
		return "expr"
	}
}

// compileAgg binds an aggregate call to accumulator slots and derives its
// DGFIndex pre-compute form when possible.
func (q *compiledQuery) compileAgg(call AggCall) (*compiledAgg, error) {
	agg := &compiledAgg{name: exprName(call), argCol: -1}
	var canon string
	if !call.Star && call.Arg != nil {
		ce, c, kind, err := q.compileExpr(call.Arg)
		if err != nil {
			return nil, err
		}
		agg.arg = ce
		canon = c
		if ref, ok := call.Arg.(ColRef); ok && c != "" && kind != storage.KindString {
			agg.argCol = q.left.Schema.ColIndex(ref.Name)
		}
	}
	newSlot := func(f dgf.AggFunc) int {
		q.slotFuncs = append(q.slotFuncs, f)
		return len(q.slotFuncs) - 1
	}
	switch call.Func {
	case "SUM":
		if agg.arg == nil {
			return nil, fmt.Errorf("hive: SUM needs an argument")
		}
		agg.kind = aggSum
		agg.slots = []int{newSlot(dgf.AggSum)}
		if canon != "" {
			agg.dgfSpecs = []dgf.AggSpec{{Func: dgf.AggSum, Col: canon}}
		}
	case "COUNT":
		agg.kind = aggCount
		agg.slots = []int{newSlot(dgf.AggCount)}
		agg.dgfSpecs = []dgf.AggSpec{{Func: dgf.AggCount}}
	case "MIN", "MAX":
		if agg.arg == nil {
			return nil, fmt.Errorf("hive: %s needs an argument", call.Func)
		}
		f := dgf.AggMin
		agg.kind = aggMin
		if call.Func == "MAX" {
			f = dgf.AggMax
			agg.kind = aggMax
		}
		agg.slots = []int{newSlot(f)}
		if canon != "" {
			agg.dgfSpecs = []dgf.AggSpec{{Func: f, Col: canon}}
		}
	case "AVG":
		if agg.arg == nil {
			return nil, fmt.Errorf("hive: AVG needs an argument")
		}
		agg.kind = aggAvg
		agg.slots = []int{newSlot(dgf.AggSum), newSlot(dgf.AggCount)}
		if canon != "" {
			// avg derives from the additive pair sum + count.
			agg.dgfSpecs = []dgf.AggSpec{{Func: dgf.AggSum, Col: canon}, {Func: dgf.AggCount}}
		}
	default:
		return nil, fmt.Errorf("hive: unsupported aggregate %s", call.Func)
	}
	return agg, nil
}

// layout renders the compiled aggregation as its explicit combine/finalize
// description: the accumulator-vector slot functions plus the binding of
// each output column. Identical statements compiled against identical
// schemas yield identical layouts on every shard.
func (q *compiledQuery) layout() AggLayout {
	l := AggLayout{
		SlotFuncs:  q.slotFuncs,
		GroupKinds: q.groupKinds,
		Scalar:     len(q.groupBy) == 0,
	}
	for _, it := range q.items {
		out := AggOut{GroupIdx: it.groupIdx}
		if it.agg != nil {
			out.GroupIdx = -1
			out.Avg = it.agg.kind == aggAvg
			out.Slots = it.agg.slots
		}
		l.Outs = append(l.Outs, out)
	}
	return l
}

// WhereRanges folds the WHERE conjunction of stmt into per-column ranges
// over the FROM table's schema; literals coerce to the column kind and an IN
// set folds to its bounding box (exact for one value, a sound superset
// otherwise). Predicates on the join side, on unknown columns, or using !=
// are skipped (they never narrow a range). It is the one range fold: the
// compiler takes the index ranges from it, and the shard router prunes shards
// with it without compiling the full query.
func WhereRanges(stmt *SelectStmt, schema *storage.Schema) map[string]gridfile.Range {
	out := map[string]gridfile.Range{}
	for _, cmp := range stmt.Where {
		if cmp.Op == "!=" {
			continue
		}
		if cmp.Col.Qualifier != "" && !stmt.From.Matches(cmp.Col.Qualifier) {
			continue
		}
		idx := schema.ColIndex(cmp.Col.Name)
		if idx < 0 {
			continue
		}
		kind := schema.Col(idx).Kind
		name := strings.ToLower(schema.Col(idx).Name)
		var r gridfile.Range
		if cmp.Op == "IN" {
			// Fold the value set to its bounding box — a superset, which only
			// ever keeps extra shards in the scatter.
			vals, err := coerceAll(cmp.Vals, kind)
			if err != nil || len(vals) == 0 {
				continue
			}
			r = boundingBox(vals)
		} else {
			val, err := coerce(cmp.Val, kind)
			if err != nil {
				continue
			}
			r = rangeFromOp(cmp.Op, val)
		}
		if prev, ok := out[name]; ok {
			r = prev.Intersect(r)
		}
		out[name] = r
	}
	return out
}

// coerceAll converts a list of parsed literals to the column kind.
func coerceAll(raws []storage.Value, kind storage.Kind) ([]storage.Value, error) {
	vals := make([]storage.Value, len(raws))
	for i, raw := range raws {
		v, err := coerce(raw, kind)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// boundingBox folds a non-empty value list to its [min, max] range.
func boundingBox(vals []storage.Value) gridfile.Range {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if storage.Compare(v, lo) < 0 {
			lo = v
		}
		if storage.Compare(v, hi) > 0 {
			hi = v
		}
	}
	return gridfile.Range{Lo: lo, Hi: hi}
}

// dgfWantSpecs returns the pre-compute specs covering every aggregate, or
// nil when at least one aggregate is not derivable from headers.
func (q *compiledQuery) dgfWantSpecs() []dgf.AggSpec {
	if !q.isAgg || len(q.aggs) == 0 {
		return nil
	}
	var out []dgf.AggSpec
	for _, a := range q.aggs {
		if a.dgfSpecs == nil {
			return nil
		}
		out = append(out, a.dgfSpecs...)
	}
	return out
}
