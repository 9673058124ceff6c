package hive

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// This file is the tests' oracle: the row-at-a-time evaluator the executor
// used to carry beside its kernels, kept here so the equivalence suites still
// have an independent answer to compare with. It takes the production plan —
// same access path, same splits, so float aggregates fold in the same order —
// but reads it unpruned, decodes every row in full with its own decoder,
// evaluates WHERE with storage.Compare per cell (its own compilation of the
// statement, no kernels), probes an unfiltered join map, renders a group key
// and folds a string-keyed accumulator map per qualifying row, projects each
// qualifying pair into a row of its own and orders the rows itself. Its
// aggregates still run the shuffle the production job only prices: each split
// emits its partials as appendPartials prints them, the engine groups and
// sorts them, and reducers parse them back and merge them (refReduceInto). It
// shares only the compiled SELECT-list expressions and appendPartials with
// production.

// refRowFilter is one WHERE comparison over a (left, right) row pair.
type refRowFilter func(l, r storage.Row) bool

func refCompile(q *compiledQuery) ([]refRowFilter, error) {
	var out []refRowFilter
	for _, cmp := range q.stmt.Where {
		s, idx, kind, err := q.resolveCol(cmp.Col)
		if err != nil {
			return nil, err
		}
		raws := cmp.Vals
		if cmp.Op != "IN" {
			raws = []storage.Value{cmp.Val}
		}
		vals := make([]storage.Value, len(raws))
		for i, raw := range raws {
			if vals[i], err = coerce(raw, kind); err != nil {
				return nil, err
			}
		}
		op := cmp.Op
		out = append(out, func(l, r storage.Row) bool {
			cell := l[idx]
			if s == sideRight {
				cell = r[idx]
			}
			if op == "IN" {
				for _, v := range vals {
					if storage.Compare(cell, v) == 0 {
						return true
					}
				}
				return false
			}
			return refKeep(op, storage.Compare(cell, vals[0]))
		})
	}
	return out, nil
}

// refRows decodes in full, without the batch decoder it checks, every row
// rec's batch selects: a TextFile row from its stored line with
// DecodeTextRow, an RCFile row by re-reading its row group (at rec.Offset)
// with ReadGroupProjected and RowGroup.DecodeRows.
func refRows(fs *dfs.FS, format storage.Format, schema *storage.Schema, rec mapreduce.Record) ([]storage.Row, error) {
	b := rec.Batch
	var out []storage.Row
	if format == storage.RCFile {
		r, err := fs.Open(rec.Path)
		if err != nil {
			return nil, err
		}
		g, _, err := storage.ReadGroupProjected(r, rec.Offset, nil)
		if err != nil {
			return nil, err
		}
		all, err := g.DecodeRows(schema)
		if err != nil {
			return nil, err
		}
		for _, ri := range b.Sel() {
			out = append(out, all[ri])
		}
		return out, nil
	}
	for _, ri := range b.Sel() {
		row, err := storage.DecodeTextRow(schema, string(b.Line(ri)))
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// refUnprunedInput turns a prepared query's input into its unpruned twin —
// same files, same splits, no skip set — and names the files' format.
func refUnprunedInput(in mapreduce.InputFormat) (mapreduce.InputFormat, storage.Format) {
	switch in := in.(type) {
	case *mapreduce.FileInput:
		c := *in
		c.SkipGroup = nil
		return &c, c.Format
	case *dgf.SliceInput:
		c, plan := *in, *in.Plan
		plan.SkipGroups = nil
		c.Plan = &plan
		return &c, c.Format
	}
	panic(fmt.Sprintf("reference: unknown input %T", in))
}

// refExec answers a SELECT through the reference evaluator. Its stats carry
// the access path and the volumes of the unpruned read.
func refExec(t *testing.T, w *Warehouse, sql string, opts ExecOptions) *Result {
	t.Helper()
	res, _, err := refSelect(w, mustParseSelect(t, sql), opts)
	if err != nil {
		t.Fatalf("reference %q: %v", sql, err)
	}
	return res
}

// refSelect answers a SELECT through the reference evaluator and returns the
// stats of its job too (nil when the plan answered without one).
func refSelect(w *Warehouse, stmt *SelectStmt, opts ExecOptions) (*Result, *mapreduce.Stats, error) {
	p, err := prepareSelect(w, stmt, opts)
	if err != nil {
		return nil, nil, err
	}
	if p.done {
		return p.pr.Finalize(stmt.Limit), nil, nil
	}
	q := p.q
	filters, err := refCompile(q)
	if err != nil {
		return nil, nil, err
	}

	joinMap := map[string][]storage.Row{}
	if q.right != nil {
		// Read serially, outside the engine, so the map needs no lock.
		side := &mapreduce.FileInput{FS: w.FS, Paths: p.sideFiles, Format: q.right.Format, Schema: q.right.Schema}
		splits, err := side.Splits()
		if err != nil {
			return nil, nil, err
		}
		for _, split := range splits {
			r, err := side.Open(split)
			if err != nil {
				return nil, nil, err
			}
			for {
				rec, ok, err := r.Next()
				if err != nil {
					return nil, nil, err
				}
				if !ok {
					break
				}
				rows, err := refRows(w.FS, q.right.Format, q.right.Schema, rec)
				if err != nil {
					return nil, nil, err
				}
				for _, row := range rows {
					key := row[q.joinRight].String()
					joinMap[key] = append(joinMap[key], row)
				}
			}
		}
	}

	var mu sync.Mutex
	var rows []refOut
	agg := q.layout().NewPartial()
	input, format := refUnprunedInput(p.input)
	job := &mapreduce.Job{
		Name:  "reference-" + q.left.Name,
		Input: input,
		NewMapper: func() mapreduce.TaskMapper {
			return &refMapper{q: q, fs: w.FS, format: format, filters: filters, joinMap: joinMap, groups: map[string][]dgf.Accumulator{},
				out: func(r refOut) {
					mu.Lock()
					rows = append(rows, r)
					mu.Unlock()
				}}
		},
	}
	if q.isAgg {
		job.Reduce = refReduceInto(q, agg)
		job.NumReducers = 1
		if len(q.groupBy) > 0 {
			job.NumReducers = 4
		}
	}
	jobStats, err := mapreduce.RunContext(context.Background(), w.Cluster, job)
	if err != nil {
		return nil, nil, err
	}
	pr := &PartialResult{Columns: p.pr.Columns}
	if q.isAgg {
		agg.foldPrecomputed(p.plan)
		pr.Agg = agg
	} else {
		// Source order: a TextFile row's offset is its line's, an RCFile
		// row's its row group's with the row in the group after it; one
		// row's joined rows keep the order they were projected in.
		slices.SortStableFunc(rows, func(a, b refOut) int {
			return cmp.Or(strings.Compare(a.path, b.path), cmp.Compare(a.off, b.off), cmp.Compare(a.pos, b.pos))
		})
		for _, r := range rows {
			pr.Rows = append(pr.Rows, r.row)
		}
	}
	res := pr.Finalize(stmt.Limit)
	res.Stats.AccessPath = p.pr.Stats.AccessPath
	res.Stats.RecordsRead = jobStats.InputRecords
	res.Stats.BytesRead = jobStats.InputBytes
	res.Stats.GroupsSkipped = jobStats.GroupsSkipped
	return res, jobStats, nil
}

// refOut is one projected row of the reference and the row it came from.
type refOut struct {
	path string
	off  int64
	pos  int
	row  storage.Row
}

// refMapper is the reference's map task: one row, one joined pair, one
// accumulator fold at a time, groups keyed by their rendered key. Like the
// production fold it hands over one partial per group when its split ends, so
// both sum a split's floats in row order.
type refMapper struct {
	q       *compiledQuery
	fs      *dfs.FS
	format  storage.Format // of the files the input reads
	filters []refRowFilter
	joinMap map[string][]storage.Row
	out     func(refOut)
	groups  map[string][]dgf.Accumulator
	order   []string
}

func (m *refMapper) Map(rec mapreduce.Record, emit mapreduce.Emit) error {
	lefts, err := refRows(m.fs, m.format, m.q.left.Schema, rec)
	if err != nil {
		return err
	}
	for i, ri := range rec.Batch.Sel() {
		m.row(rec.Path, rec.Batch.RowOffset(ri), ri, lefts[i])
	}
	return nil
}

// row joins, filters and folds or projects one decoded left row.
func (m *refMapper) row(path string, off int64, pos int, left storage.Row) {
	q := m.q
	rights := []storage.Row{nil}
	if q.right != nil {
		rights = m.joinMap[left[q.joinLeft].String()]
	}
pairs:
	for _, right := range rights {
		for _, f := range m.filters {
			if !f(left, right) {
				continue pairs
			}
		}
		if !q.isAgg {
			row := make(storage.Row, len(q.items))
			for i, it := range q.items {
				row[i] = it.expr(left, right)
			}
			m.out(refOut{path: path, off: off, pos: pos, row: row})
			continue
		}
		var key strings.Builder
		for i, g := range q.groupBy {
			if i > 0 {
				key.WriteByte('\x01')
			}
			key.WriteString(g(left, right).String())
		}
		accs, ok := m.groups[key.String()]
		if !ok {
			accs = q.layout().newAccs()
			m.groups[key.String()] = accs
			m.order = append(m.order, key.String())
		}
		for _, a := range q.aggs {
			switch a.kind {
			case aggCount:
				accs[a.slots[0]].Fold(0)
			case aggAvg:
				accs[a.slots[0]].Fold(a.arg(left, right).AsFloat())
				accs[a.slots[1]].Fold(0)
			default:
				accs[a.slots[0]].Fold(a.arg(left, right).AsFloat())
			}
		}
	}
}

func (m *refMapper) Close(emit mapreduce.Emit) error {
	for _, key := range m.order {
		emit(key, appendPartials(nil, m.groups[key]))
	}
	return nil
}

// refReduceInto is the reference's reducer: it parses one group's shuffled
// partials back, merges them in the order the shuffle hands them over (by
// bytes) and folds the result into agg. Reduce tasks run concurrently, hence
// the mutex; each key reaches exactly one of them.
func refReduceInto(q *compiledQuery, agg *PartialAgg) mapreduce.ReduceFunc {
	var mu sync.Mutex
	return func(key string, values [][]byte, _ mapreduce.Emit) error {
		merged := q.layout().newAccs()
		for _, v := range values {
			accs, err := refDecodePartials(q.slotFuncs, v)
			if err != nil {
				return err
			}
			for i := range merged {
				merged[i].Merge(accs[i])
			}
		}
		mu.Lock()
		agg.fold(key, merged)
		mu.Unlock()
		return nil
	}
}

// refDecodePartials parses what appendPartials printed.
func refDecodePartials(funcs []dgf.AggFunc, data []byte) ([]dgf.Accumulator, error) {
	if len(funcs) == 0 && len(data) == 0 {
		// A GROUP BY without aggregates: the shuffle key is the whole partial.
		return nil, nil
	}
	parts := strings.Split(string(data), ",")
	if len(parts) != len(funcs) {
		return nil, fmt.Errorf("reference: partial has %d slots, want %d", len(parts), len(funcs))
	}
	accs := make([]dgf.Accumulator, len(funcs))
	for i, p := range parts {
		accs[i].Func = funcs[i]
		if p == "-" {
			continue
		}
		j := strings.IndexByte(p, ':')
		if j < 0 {
			return nil, fmt.Errorf("reference: bad partial %q", p)
		}
		v, err1 := strconv.ParseFloat(p[:j], 64)
		n, err2 := strconv.ParseInt(p[j+1:], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("reference: bad partial %q", p)
		}
		accs[i].Value, accs[i].N = v, n
	}
	return accs, nil
}
