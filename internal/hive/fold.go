package hive

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// This file holds the query job's two map-task mappers. Both start from the
// same thing — the positions of a batch the left-side kernels keep, expanded
// to (position, broadcast row) pairs when the query joins — and differ in
// what they do with it. A projection evaluates each pair into a fresh typed
// row and hands the batch's rows to the query's projection. An aggregate
// never builds a row for a pair it can read from the vectors: it folds the
// pairs into a task-local group table of typed accumulators (Hive's map-side
// hash aggregation) and hands the table over when its split is exhausted.
// Both jobs are map-only, with no text in between: once the job ends, the
// tables merge into the query's PartialAgg, and the shuffle and reduce phase
// Hive would run over them — one pair per group per split — are priced from
// the same tables, not performed.
//
// Inside a split the table is keyed by what the batch already holds: nothing
// for a scalar aggregate, the int64 of a single bigint or timestamp key, the
// dictionary code of a dictionary-encoded string key (the code → group table
// is refreshed per batch, one string lookup per distinct code), one lookup
// per run of a run-length key, and a rendered string only for multi-column
// keys, double keys and keys of the join side. Every group carries its group
// key — its key cells' text joined by \x01 — rendered once, when the group is
// created, so merged output is keyed exactly as rendering the key of every row
// would key it. Within a group, values fold in row order.

// splitTask is the state both mappers share: the query, the broadcast side,
// and scratch reused from batch to batch.
type splitTask struct {
	q       *compiledQuery
	joinMap map[string][]storage.Row
	rows    []int
	rights  []storage.Row
	key     []byte
}

// pairs returns the qualifying pairs of one batch: the positions the left
// kernels keep, each repeated once per broadcast row its join key finds
// (rights is nil, and rows the plain survivors, when the query does not join).
func (t *splitTask) pairs(b *storage.ColumnBatch) (rows []int, rights []storage.Row) {
	sel := survivors(b, t.q.leftPreds)
	if t.q.right == nil {
		return sel, nil
	}
	t.rows, t.rights = t.rows[:0], t.rights[:0]
	v := &b.Cols[t.q.joinLeft]
	for _, ri := range sel {
		t.key = v.Value(ri).AppendText(t.key[:0])
		for _, right := range t.joinMap[string(t.key)] {
			t.rows = append(t.rows, ri)
			t.rights = append(t.rights, right)
		}
	}
	return t.rows, t.rights
}

func rightAt(rights []storage.Row, k int) storage.Row {
	if rights == nil {
		return nil
	}
	return rights[k]
}

// projector is the mapper of a plain projection. It emits nothing: each
// batch's output rows go straight to the query's projection.
type projector struct {
	splitTask
	out *projection
	str []byte
}

func (q *compiledQuery) newProjector(joinMap map[string][]storage.Row, out *projection) *projector {
	return &projector{splitTask: splitTask{q: q, joinMap: joinMap}, out: out}
}

func (p *projector) Map(rec mapreduce.Record, _ mapreduce.Emit) error {
	b := rec.Batch
	rows, rights := p.pairs(b)
	if len(rows) == 0 {
		return nil
	}
	n := len(p.q.items)
	cells := make(storage.Row, len(rows)*n)
	out := make([]storage.Row, len(rows))
	for k, ri := range rows {
		out[k] = p.project(b.MaterialiseRow(ri), rightAt(rights, k), cells[k*n:(k+1)*n:(k+1)*n])
	}
	p.out.add(rec.Path, rec.Offset, rows, out)
	return nil
}

func (p *projector) Close(mapreduce.Emit) error { return nil }

// project evaluates the SELECT list over one pair into row. Its string cells
// are copied out of the batch's buffers into one string per row, so a result
// holds what it shows and not the batches it was read from.
func (p *projector) project(l, r, row storage.Row) storage.Row {
	p.str = p.str[:0]
	for i, it := range p.q.items {
		row[i] = it.expr(l, r)
		if row[i].Kind == storage.KindString {
			p.str = append(p.str, row[i].S...)
		}
	}
	if len(p.str) == 0 {
		return row
	}
	s := string(p.str)
	for i := range row {
		if row[i].Kind == storage.KindString {
			row[i].S, s = s[:len(row[i].S)], s[len(row[i].S):]
		}
	}
	return row
}

// projection is where a projection's map tasks hand over their rows, a batch
// at a time: to a cursor's stream, which may stop the scan, or into a
// collection sorted by source position once the job ends. Map tasks run
// concurrently, so both go through one mutex.
type projection struct {
	mu     sync.Mutex
	stream func(storage.Row) bool // nil: collect
	stop   atomic.Bool            // the stream wants no more rows
	rows   []sourcedRow
}

// sourcedRow is one collected output row and the position of the pair it was
// projected from: the rows of a batch share its offset (the row group's, or
// its first line's), and the row within the batch breaks the tie.
type sourcedRow struct {
	path string
	off  int64
	pos  int
	row  storage.Row
}

// add hands over one batch's output rows; pos holds each one's row in the
// batch.
func (s *projection) add(path string, off int64, pos []int, rows []storage.Row) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream == nil {
		for k, row := range rows {
			s.rows = append(s.rows, sourcedRow{path: path, off: off, pos: pos[k], row: row})
		}
		return
	}
	for _, row := range rows {
		if s.stop.Load() {
			return
		}
		if !s.stream(row) {
			s.stop.Store(true)
		}
	}
}

// sorted returns the collected rows in source order, whichever order the
// splits completed in. Rows from one position — a join matching several
// broadcast rows — keep the order the join emitted them in.
func (s *projection) sorted() []storage.Row {
	slices.SortStableFunc(s.rows, func(a, b sourcedRow) int {
		return cmp.Or(strings.Compare(a.path, b.path), cmp.Compare(a.off, b.off), cmp.Compare(a.pos, b.pos))
	})
	out := make([]storage.Row, len(s.rows))
	for i, r := range s.rows {
		out[i] = r.row
	}
	return out
}

// groupTables is where an aggregate's map tasks hand over their group
// tables, one per split. Map tasks run concurrently, so they hand over under
// mu; merge runs once the job has ended.
type groupTables struct {
	mu     sync.Mutex
	tables []*splitFold
}

// merge folds the tables into agg and returns the shuffle Hive would run
// over them on reducers reduce tasks: one pair per group per split, its key
// the group key and its value the group's partials as appendPartials prints
// them. A group's partials fold in the order that shuffle hands a reducer a
// key's values — ascending by those bytes — so every float sums in one order
// whichever split finished first, and the answer is the one the text
// shuffle gave.
func (c *groupTables) merge(agg *PartialAgg, reducers int) mapreduce.Shuffle {
	type pair struct {
		key, value string
		accs       []dgf.Accumulator
	}
	n := len(agg.Layout.SlotFuncs)
	var pairs []pair
	for _, f := range c.tables {
		for g, key := range f.keys {
			accs := f.accs[g*n : (g+1)*n]
			pairs = append(pairs, pair{key, string(appendPartials(nil, accs)), accs})
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Or(strings.Compare(a.key, b.key), strings.Compare(a.value, b.value)) })
	shuffle := make(mapreduce.Shuffle, reducers)
	for i, p := range pairs {
		shuffle.Add(p.key, len(p.value), i == 0 || p.key != pairs[i-1].key)
		agg.fold(p.key, p.accs)
	}
	return shuffle
}

// splitFold is the mapper of an aggregate: one group table per map task.
type splitFold struct {
	splitTask
	out    *groupTables
	nslots int
	keys   []string          // group → its group key
	accs   []dgf.Accumulator // group g's vector is accs[g*nslots:(g+1)*nslots]
	byInt  map[int64]int32
	byStr  map[string]int32
	// Per-batch scratch: the group of each pair, the dictionary code → group
	// table and one argument vector per aggregate.
	gids  []int32
	codes []int32
	vals  [][]float64
}

func (q *compiledQuery) newSplitFold(joinMap map[string][]storage.Row, out *groupTables) *splitFold {
	return &splitFold{
		splitTask: splitTask{q: q, joinMap: joinMap},
		out:       out,
		nslots:    len(q.slotFuncs),
		byInt:     map[int64]int32{},
		byStr:     map[string]int32{},
		vals:      make([][]float64, len(q.aggs)),
	}
}

func (f *splitFold) addGroup(key string) int32 {
	f.keys = append(f.keys, key)
	for _, fn := range f.q.slotFuncs {
		f.accs = append(f.accs, dgf.Accumulator{Func: fn})
	}
	return int32(len(f.keys) - 1)
}

func (f *splitFold) intGroup(kind storage.Kind, k int64) int32 {
	g, ok := f.byInt[k]
	if !ok {
		g = f.addGroup(storage.Value{Kind: kind, I: k}.String())
		f.byInt[k] = g
	}
	return g
}

// strGroup resolves a key in its rendered form. The bytes are copied only
// when the key is new: a string cell slices into its batch's buffer.
func (f *splitFold) strGroup(k string) int32 {
	g, ok := f.byStr[k]
	if !ok {
		k = strings.Clone(k)
		g = f.addGroup(k)
		f.byStr[k] = g
	}
	return g
}

func (f *splitFold) Map(rec mapreduce.Record, _ mapreduce.Emit) error {
	b := rec.Batch
	rows, rights := f.pairs(b)
	if len(rows) == 0 {
		return nil
	}
	q := f.q

	// Stage 1: resolve each pair's group and gather each aggregate's
	// argument, from the vectors where the batch holds them in typed form.
	gids, rendered := f.typedGroups(b, rows)
	scratchRows := rendered
	for a, agg := range q.aggs {
		if agg.arg == nil {
			continue
		}
		if cap(f.vals[a]) < len(rows) {
			f.vals[a] = make([]float64, len(rows))
		}
		f.vals[a] = f.vals[a][:len(rows)]
		if agg.argCol >= 0 {
			gatherColumn(&b.Cols[agg.argCol], rows, f.vals[a])
		} else {
			scratchRows = true
		}
	}
	if scratchRows {
		// What the vectors do not answer goes through the compiled
		// expressions on a scratch row: multi-column and join-side keys,
		// expression and join-side arguments.
		var l storage.Row
		for k, ri := range rows {
			if k == 0 || ri != rows[k-1] {
				l = b.MaterialiseRow(ri)
			}
			r := rightAt(rights, k)
			if rendered {
				f.key = f.key[:0]
				for i, g := range q.groupBy {
					if i > 0 {
						f.key = append(f.key, '\x01')
					}
					f.key = g(l, r).AppendText(f.key)
				}
				g, ok := f.byStr[string(f.key)] // the lookup does not copy the key
				if !ok {
					g = f.strGroup(string(f.key))
				}
				gids[k] = g
			}
			for a, agg := range q.aggs {
				if agg.arg != nil && agg.argCol < 0 {
					f.vals[a][k] = agg.arg(l, r).AsFloat()
				}
			}
		}
	}

	// Stage 2: fold, one accumulator slot at a time, pairs in row order.
	for a, agg := range q.aggs {
		switch agg.kind {
		case aggCount:
			f.foldSlot(agg.slots[0], gids, nil, len(rows))
		case aggAvg:
			f.foldSlot(agg.slots[0], gids, f.vals[a], len(rows))
			f.foldSlot(agg.slots[1], gids, nil, len(rows))
		default:
			f.foldSlot(agg.slots[0], gids, f.vals[a], len(rows))
		}
	}
	return nil
}

// typedGroups resolves the group of every pair whose key the batch holds in
// typed form. gids is nil for a scalar aggregate (one group); rendered
// reports that the keys still have to be rendered pair by pair.
func (f *splitFold) typedGroups(b *storage.ColumnBatch, rows []int) (gids []int32, rendered bool) {
	q := f.q
	if len(q.groupBy) == 0 {
		if len(f.keys) == 0 {
			f.addGroup("")
		}
		return nil, false
	}
	if cap(f.gids) < len(rows) {
		f.gids = make([]int32, len(rows))
	}
	gids = f.gids[:len(rows)]
	if len(q.groupBy) > 1 || q.groupCols[0] < 0 || q.groupKinds[0] == storage.KindFloat64 {
		return gids, true
	}
	v := &b.Cols[q.groupCols[0]]
	switch {
	case v.Enc == storage.EncDict:
		if cap(f.codes) < len(v.Dict) {
			f.codes = make([]int32, len(v.Dict))
		}
		codes := f.codes[:len(v.Dict)]
		for c := range codes {
			codes[c] = -1
		}
		for k, i := range rows {
			c := v.Codes[i]
			if codes[c] < 0 {
				codes[c] = f.strGroup(v.Dict[c])
			}
			gids[k] = codes[c]
		}
	case v.Enc == storage.EncRLE && len(v.RunEnds) > 0:
		// One lookup per run: the value is constant within it.
		run, g := 0, int32(-1)
		for k, i := range rows {
			for int32(i) >= v.RunEnds[run] {
				run++
				g = -1
			}
			if g < 0 {
				g = f.cellGroup(v, i)
			}
			gids[k] = g
		}
	default:
		// One lookup per change of value: sorted or clustered keys repeat.
		prev, g := -1, int32(0)
		for k, i := range rows {
			if prev < 0 || !sameCell(v, prev, i) {
				g = f.cellGroup(v, i)
			}
			prev, gids[k] = i, g
		}
	}
	return gids, false
}

// cellGroup resolves the group of one cell of a bigint, timestamp or plain
// string key column.
func (f *splitFold) cellGroup(v *storage.ColumnVector, row int) int32 {
	if v.Kind == storage.KindString {
		return f.strGroup(v.Strs[row])
	}
	return f.intGroup(v.Kind, v.Ints[row])
}

func sameCell(v *storage.ColumnVector, i, j int) bool {
	if v.Kind == storage.KindString {
		return v.Strs[i] == v.Strs[j]
	}
	return v.Ints[i] == v.Ints[j]
}

// gatherColumn copies the cells of a numeric column at rows into vals as the
// floats Value.AsFloat would yield. (A column the query names is always among
// the projected ones, so its vector is filled.)
func gatherColumn(v *storage.ColumnVector, rows []int, vals []float64) {
	if v.Kind == storage.KindFloat64 {
		for k, i := range rows {
			vals[k] = v.Floats[i]
		}
		return
	}
	for k, i := range rows {
		vals[k] = float64(v.Ints[i])
	}
}

// foldSlot folds n pairs into one accumulator slot of their groups: vals[k]
// for a value slot, a bare count when vals is nil. gids nil is the scalar
// aggregate's single group.
func (f *splitFold) foldSlot(slot int, gids []int32, vals []float64, n int) {
	if gids == nil {
		a := &f.accs[slot]
		if vals == nil {
			a.Merge(dgf.Accumulator{Func: a.Func, Value: float64(n), N: int64(n)})
			return
		}
		for _, v := range vals {
			a.Fold(v)
		}
		return
	}
	for k := 0; k < n; k++ {
		a := &f.accs[int(gids[k])*f.nslots+slot]
		if vals == nil {
			a.Fold(0)
		} else {
			a.Fold(vals[k])
		}
	}
}

// Close hands the split's group table over; it emits nothing.
func (f *splitFold) Close(mapreduce.Emit) error {
	f.out.mu.Lock()
	defer f.out.mu.Unlock()
	f.out.tables = append(f.out.tables, f)
	return nil
}
