package hive

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// This file is the tests' oracle: the row-at-a-time evaluator the executor
// used to carry beside its kernels, kept here so the equivalence suites still
// have an independent answer to compare with. It takes the production plan —
// same access path, same splits, so float aggregates fold in the same order —
// but reads it unpruned and record by record, decodes every row in full,
// evaluates WHERE with storage.Compare per cell (its own compilation of the
// statement, no kernels), probes an unfiltered join map, renders a group key
// and folds a string-keyed accumulator map per qualifying row, and shares only
// the projection's emitRow, the reducer and gather with production.

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

// refRow decodes one record-mode record in full.
func refRow(schema *storage.Schema, rec mapreduce.Record) (storage.Row, error) {
	if rec.Row != nil {
		return rec.Row, nil
	}
	return storage.DecodeTextRow(schema, string(rec.Data))
}

// refRecordInput turns a prepared query's input into its unpruned
// record-delivery twin: same files, same splits, no skip set.
func refRecordInput(in mapreduce.InputFormat) mapreduce.InputFormat {
	switch in := in.(type) {
	case *mapreduce.FileInput:
		c := *in
		c.Vector, c.SkipGroup = false, nil
		return &c
	case *dgf.SliceInput:
		c, plan := *in, *in.Plan
		plan.SkipGroups = nil
		c.Vector, c.Plan = false, &plan
		return &c
	}
	panic(fmt.Sprintf("reference: unknown input %T", in))
}

// refExec answers a SELECT through the reference evaluator. Its stats carry
// the access path and the volumes of the unpruned record-mode read.
func refExec(t *testing.T, w *Warehouse, sql string, opts ExecOptions) *Result {
	t.Helper()
	res, err := refSelect(w, mustParseSelect(t, sql), opts)
	if err != nil {
		t.Fatalf("reference %q: %v", sql, err)
	}
	return res
}

func refSelect(w *Warehouse, stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p, err := w.prepareSelectLocked(stmt, opts, nil)
	if err != nil {
		return nil, err
	}
	if p.done {
		return p.pr.Finalize(stmt.Limit), nil
	}
	q := p.q
	filters, err := refCompile(q)
	if err != nil {
		return nil, err
	}

	joinMap := map[string][]storage.Row{}
	if q.right != nil {
		// Read serially, outside the engine, so the map needs no lock.
		side := &mapreduce.FileInput{FS: w.FS, Dir: q.right.Dir, Format: q.right.Format, Schema: q.right.Schema}
		splits, err := side.Splits()
		if err != nil {
			return nil, err
		}
		for _, split := range splits {
			r, err := side.Open(split)
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
				row, err := refRow(q.right.Schema, rec)
				if err != nil {
					return nil, err
				}
				row = row.Clone()
				key := row[q.joinRight].String()
				joinMap[key] = append(joinMap[key], row)
			}
		}
	}

	collector := mapreduce.NewCollector()
	job := &mapreduce.Job{
		Name:   "reference-" + q.left.Name,
		Input:  refRecordInput(p.input),
		Output: collector.Emit,
		NewMapper: func() mapreduce.TaskMapper {
			return &refMapper{q: q, filters: filters, joinMap: joinMap,
				proj: q.newProjector(nil), groups: map[string][]dgf.Accumulator{}}
		},
	}
	if q.isAgg {
		job.Reduce = q.reducePartials
		job.NumReducers = 4
	}
	jobStats, err := mapreduce.RunContext(context.Background(), w.Cluster, job)
	if err != nil {
		return nil, err
	}
	pr := &PartialResult{Columns: p.pr.Columns}
	if pr.Rows, pr.Agg, err = q.gather(collector.Pairs(), p.plan); err != nil {
		return nil, err
	}
	res := pr.Finalize(stmt.Limit)
	res.Stats.AccessPath = p.pr.Stats.AccessPath
	res.Stats.RecordsRead = jobStats.InputRecords
	res.Stats.BytesRead = jobStats.InputBytes
	res.Stats.GroupsSkipped = jobStats.GroupsSkipped
	return res, nil
}

// refMapper is the reference's map task: one row, one joined pair, one
// accumulator fold at a time, groups keyed by their rendered key. Like the
// production fold it hands over one partial per group when its split ends, so
// both sum a split's floats in row order.
type refMapper struct {
	q       *compiledQuery
	filters []refRowFilter
	joinMap map[string][]storage.Row
	proj    *projector
	groups  map[string][]dgf.Accumulator
	order   []string
}

func (m *refMapper) Map(rec mapreduce.Record, emit mapreduce.Emit) error {
	q := m.q
	left, err := refRow(q.left.Schema, rec)
	if err != nil {
		return err
	}
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
			m.proj.emitRow(left, right, rec, emit)
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
	return nil
}

func (m *refMapper) Close(emit mapreduce.Emit) error {
	for _, key := range m.order {
		emit(key, encodePartials(m.groups[key]))
	}
	return nil
}
