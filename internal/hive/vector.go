package hive

import (
	"sort"
	"strings"
	"sync/atomic"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// This file is the executor's one predicate compiler: every WHERE comparison
// lowers to a kernel that runs over a batch's column vectors and shrinks a
// selection vector, and rows are only materialised for the positions that
// survive every kernel. Each kernel reproduces storage.Compare of the cell
// against the coerced literal(s) exactly (the tests hold every operator and
// vector shape to that per-row reference).
//
// Kernels are encoding-aware. A dictionary column is never expanded to
// per-row strings: the literal is binary-searched in the group's sorted
// dictionary once and every row compares as a code ordinal — an equality or
// IN probe whose value is absent kills the group on that single search. A
// run-length column evaluates the predicate once per run and accepts or
// rejects every selected row of the run wholesale. TextFile batches and
// unencoded columns arrive as plain vectors and compare cell by cell.

// vecPred narrows sel to the rows of b that satisfy one predicate. Kernels
// filter in place (the returned slice aliases sel's backing array).
type vecPred func(b *storage.ColumnBatch, sel []int) []int

// vecStats counts encoding-aware kernel work across a query's map tasks
// (which run concurrently, hence the atomics): dictionary binary searches
// performed and whole runs rejected without per-row compares.
type vecStats struct {
	dictProbes  atomic.Int64
	runsSkipped atomic.Int64
}

// survivors runs the kernels over the batch's selection vector and returns
// the positions every one of them keeps.
func survivors(b *storage.ColumnBatch, preds []vecPred) []int {
	sel := b.Sel()
	for _, k := range preds {
		if sel = k(b, sel); len(sel) == 0 {
			break
		}
	}
	return sel
}

// opKeep returns the predicate over storage.Compare's three-way result for
// one comparison operator (false for every c on an unknown operator).
func opKeep(op string) func(c int) bool {
	switch op {
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	case ">=":
		return func(c int) bool { return c >= 0 }
	case "=":
		return func(c int) bool { return c == 0 }
	case "!=":
		return func(c int) bool { return c != 0 }
	default:
		return func(int) bool { return false }
	}
}

// compareFloats is storage.Compare's numeric branch.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compileVecComparison builds the kernel for one comparison. The typed fast
// paths read the column's vector directly; any combination they do not cover
// falls back to storage.Compare on single materialised cells.
func compileVecComparison(col int, kind storage.Kind, op string, val storage.Value, st *vecStats) vecPred {
	keep := opKeep(op)
	switch {
	case kind == storage.KindString && val.Kind == storage.KindString:
		s := val.S
		return func(b *storage.ColumnBatch, sel []int) []int {
			v := &b.Cols[col]
			if !v.Valid {
				return genericFilter(v, val, keep, sel)
			}
			if v.Enc == storage.EncDict {
				return dictFilter(v, s, op, keep, sel, st)
			}
			if v.Enc == storage.EncRLE && len(v.RunEnds) > 0 {
				return rleFilter(v, sel, st, func(r int) bool {
					return keep(strings.Compare(v.Strs[r], s))
				})
			}
			out := sel[:0]
			for _, i := range sel {
				if keep(strings.Compare(v.Strs[i], s)) {
					out = append(out, i)
				}
			}
			return out
		}
	case kind == storage.KindFloat64 && val.Kind != storage.KindString:
		f := val.AsFloat()
		return func(b *storage.ColumnBatch, sel []int) []int {
			v := &b.Cols[col]
			if !v.Valid {
				return genericFilter(v, val, keep, sel)
			}
			if v.Enc == storage.EncRLE && len(v.RunEnds) > 0 {
				return rleFilter(v, sel, st, func(r int) bool {
					return keep(compareFloats(v.Floats[r], f))
				})
			}
			out := sel[:0]
			for _, i := range sel {
				if keep(compareFloats(v.Floats[i], f)) {
					out = append(out, i)
				}
			}
			return out
		}
	case (kind == storage.KindInt64 || kind == storage.KindTime) && val.Kind != storage.KindString:
		f := val.AsFloat()
		return func(b *storage.ColumnBatch, sel []int) []int {
			v := &b.Cols[col]
			if !v.Valid {
				return genericFilter(v, val, keep, sel)
			}
			if v.Enc == storage.EncRLE && len(v.RunEnds) > 0 {
				return rleFilter(v, sel, st, func(r int) bool {
					return keep(compareFloats(float64(v.Ints[r]), f))
				})
			}
			out := sel[:0]
			for _, i := range sel {
				// Ints vs a float literal compares as floats, exactly like
				// storage.Compare on the materialised values.
				if keep(compareFloats(float64(v.Ints[i]), f)) {
					out = append(out, i)
				}
			}
			return out
		}
	default:
		return func(b *storage.ColumnBatch, sel []int) []int {
			v := &b.Cols[col]
			if v.Valid && v.Enc == storage.EncRLE && len(v.RunEnds) > 0 {
				return rleFilter(v, sel, st, func(r int) bool {
					return keep(storage.Compare(v.Value(r), val))
				})
			}
			return genericFilter(v, val, keep, sel)
		}
	}
}

// compileVecIn builds the kernel for col IN (v1, ..., vn): keep a row when
// its cell equals any of the coerced values. Over a dictionary column the
// value set resolves to a code set with one binary search per value — an IN
// whose values are all absent kills the group without touching a row.
func compileVecIn(col int, kind storage.Kind, vals []storage.Value, st *vecStats) vecPred {
	return func(b *storage.ColumnBatch, sel []int) []int {
		v := &b.Cols[col]
		if !v.Valid {
			return genericInFilter(v, vals, sel)
		}
		if v.Enc == storage.EncDict && kind == storage.KindString {
			st.dictProbes.Add(int64(len(vals)))
			codes := make([]uint32, 0, len(vals))
			for _, val := range vals {
				pos := sort.SearchStrings(v.Dict, val.S)
				if pos < len(v.Dict) && v.Dict[pos] == val.S {
					codes = append(codes, uint32(pos))
				}
			}
			if len(codes) == 0 {
				return sel[:0] // no value present: the group dies on the probes alone
			}
			out := sel[:0]
			for _, i := range sel {
				c := v.Codes[i]
				for _, k := range codes {
					if c == k {
						out = append(out, i)
						break
					}
				}
			}
			return out
		}
		if v.Enc == storage.EncRLE && len(v.RunEnds) > 0 {
			return rleFilter(v, sel, st, func(r int) bool {
				cell := v.Value(r)
				for _, val := range vals {
					if storage.Compare(cell, val) == 0 {
						return true
					}
				}
				return false
			})
		}
		return genericInFilter(v, vals, sel)
	}
}

// dictFilter compares every selected row of a dictionary column against one
// string literal using code ordinals. The dictionary is sorted ascending, so
// one binary search fixes the literal's rank and each row's three-way result
// follows from its code alone — no per-row string compare.
func dictFilter(v *storage.ColumnVector, s, op string, keep func(int) bool, sel []int, st *vecStats) []int {
	st.dictProbes.Add(1)
	pos := sort.SearchStrings(v.Dict, s)
	found := pos < len(v.Dict) && v.Dict[pos] == s
	if !found {
		switch op {
		case "=":
			return sel[:0] // value absent from the group: kill it outright
		case "!=":
			return sel // value absent: every row differs
		}
	}
	out := sel[:0]
	for _, i := range sel {
		c := 1
		if int(v.Codes[i]) < pos {
			c = -1
		} else if found && int(v.Codes[i]) == pos {
			c = 0
		}
		if keep(c) {
			out = append(out, i)
		}
	}
	return out
}

// rleFilter narrows sel over a run-length column by evaluating keepRow once
// per run (at the run's first row — the value is constant within it) and
// applying that verdict to every selected row the run covers. Runs rejected
// wholesale are counted as skipped.
func rleFilter(v *storage.ColumnVector, sel []int, st *vecStats, keepRow func(r int) bool) []int {
	out := sel[:0]
	run, start := 0, 0
	decided, verdict := false, false
	for _, i := range sel {
		for int32(i) >= v.RunEnds[run] {
			start = int(v.RunEnds[run])
			run++
			decided = false
		}
		if !decided {
			verdict = keepRow(start)
			decided = true
			if !verdict {
				st.runsSkipped.Add(1)
			}
		}
		if verdict {
			out = append(out, i)
		}
	}
	return out
}

// genericFilter is the cell-at-a-time fallback: storage.Compare on the
// materialised value (also the !Valid case, where the cell is the kind's zero
// value).
func genericFilter(v *storage.ColumnVector, val storage.Value, keep func(int) bool, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		if keep(storage.Compare(v.Value(i), val)) {
			out = append(out, i)
		}
	}
	return out
}

// genericInFilter is the cell-at-a-time IN fallback: keep a row whose cell
// equals any value.
func genericInFilter(v *storage.ColumnVector, vals []storage.Value, sel []int) []int {
	out := sel[:0]
	for _, i := range sel {
		cell := v.Value(i)
		for _, val := range vals {
			if storage.Compare(cell, val) == 0 {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
