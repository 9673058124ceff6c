package hive

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// kernelSchema has one column per kind; kernelRows fills it so that the RCFile
// writer picks every encoding: sorted low-cardinality cells run-length encode,
// shuffled low-cardinality strings dictionary-encode, wide-range cells stay
// plain.
var kernelSchema = storage.NewSchema(
	storage.Column{Name: "i", Kind: storage.KindInt64},
	storage.Column{Name: "f", Kind: storage.KindFloat64},
	storage.Column{Name: "s", Kind: storage.KindString},
	storage.Column{Name: "t", Kind: storage.KindTime},
)

const kernelDay0 = 1354320000 // 2012-12-01 00:00:00 UTC

func kernelRows(rng *rand.Rand, n int, runs bool) []storage.Row {
	words := []string{"acme", "borealis", "cobalt", "dynamo", "everlight"}
	rows := make([]storage.Row, n)
	for r := range rows {
		k := rng.Intn(5)
		if runs {
			k = r * 5 / n // five long runs per column
		}
		rows[r] = storage.Row{
			storage.Int64(int64(k) - 2),
			storage.Float64(float64(k) / 2),
			storage.Str(words[k]),
			storage.TimeUnix(kernelDay0 + int64(k)*86400),
		}
		if !runs && rng.Intn(3) == 0 {
			// Wide-range cells keep a column plain in some groups.
			rows[r][0] = storage.Int64(rng.Int63n(1e9) - 5e8)
			rows[r][1] = storage.Float64(rng.NormFloat64() * 1e3)
		}
	}
	return rows
}

// kernelLiterals are the raw literals the parser could hand the compiler for
// a column of the given kind, before coercion: each kind's own, and the
// cross-kind ones coerce accepts (a float against a bigint column stays a
// float and compares as one).
func kernelLiterals(kind storage.Kind) []storage.Value {
	switch kind {
	case storage.KindInt64:
		return []storage.Value{storage.Int64(-2), storage.Int64(1), storage.Int64(7e8), storage.Float64(0.5), storage.Float64(1)}
	case storage.KindFloat64:
		return []storage.Value{storage.Float64(1), storage.Float64(0.75), storage.Float64(-2e3), storage.Int64(2)}
	case storage.KindString:
		return []storage.Value{storage.Str("cobalt"), storage.Str("acme"), storage.Str("everlight"), storage.Str("bz"), storage.Str(""), storage.Int64(5)}
	default:
		return []storage.Value{storage.Str("2012-12-03"), storage.Str("2012-12-01 00:00:00"), storage.Str("2012-11-30"), storage.Int64(kernelDay0 + 86400)}
	}
}

var kernelOps = []string{"<", "<=", ">", ">=", "=", "!=", "<>"} // "<>" is not an operator the kernels know: it keeps nothing

// refKeep is the reference reading of an operator over storage.Compare's
// three-way result, shared by the kernel test and the reference evaluator.
func refKeep(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "=":
		return c == 0
	case "!=":
		return c != 0
	}
	return false
}

// kernelCheck accumulates what one run of the property test covered.
type kernelCheck struct {
	t       *testing.T
	batches int
	// seen records, per shape, the vector encodings the batches carried, so
	// the test can insist every kernel arm met its input.
	seen map[string]map[byte]bool
}

// read writes rows in the given shape, reads them back through the production
// decoders and checks every delivered batch. The readers reuse their batch;
// each is checked before the next is asked for, like a mapper would.
func (kc *kernelCheck) read(shape string, text bool, rows []storage.Row, project []bool) {
	t := kc.t
	t.Helper()
	fs := dfs.New(1 << 20)
	const path, groupRows = "/k/data", 64
	if text {
		if err := storage.WriteTextRows(fs, path, rows); err != nil {
			t.Fatal(err)
		}
		r, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sr := storage.NewSegmentReader(r, kernelSchema, storage.TextFile, 0, r.Size(), storage.SegmentOptions{Project: project, Batch: storage.NewColumnBatch(kernelSchema)})
		for at := 0; ; {
			b, ok, err := sr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			kc.check(shape, b, rows[at:at+b.Rows], project)
			at += b.Rows
		}
	}
	offs, err := storage.WriteRCRowsOpts(fs, path, kernelSchema, rows, groupRows, storage.RCWriteOptions{DisableEncoding: shape == "plain"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := storage.NewColumnBatch(kernelSchema)
	for g, off := range offs {
		if _, err := storage.ReadGroupColumns(r, off, kernelSchema, project, b); err != nil {
			t.Fatal(err)
		}
		hi := (g + 1) * groupRows
		if hi > len(rows) {
			hi = len(rows)
		}
		kc.check(shape, b, rows[g*groupRows:hi], project)
	}
}

// check holds every kernel to the per-row reference on one batch: for
// each column, operator and literal — and each IN list — the kernel's
// selection equals the rows whose cell satisfies
// refKeep(op, storage.Compare(cell, coerced literal)), from the full selection
// and from a thinned one. Cells of unprojected columns are the kind's zero
// value.
func (kc *kernelCheck) check(shape string, b *storage.ColumnBatch, rows []storage.Row, project []bool) {
	t := kc.t
	t.Helper()
	kc.batches++
	if b.Rows != len(rows) {
		t.Fatalf("%s: batch has %d rows, source %d", shape, b.Rows, len(rows))
	}
	var st vecStats
	for col := 0; col < kernelSchema.Len(); col++ {
		kind := kernelSchema.Col(col).Kind
		v := &b.Cols[col]
		if kc.seen[shape] == nil {
			kc.seen[shape] = map[byte]bool{}
		}
		if v.Valid {
			kc.seen[shape][v.Enc] = true
		}
		cell := func(ri int) storage.Value {
			if project != nil && !project[col] {
				return storage.ZeroValue(kind)
			}
			return rows[ri][col]
		}
		run := func(name string, k vecPred, keep func(c storage.Value) bool) {
			for _, stride := range []int{1, 3} {
				var sel, want []int
				for ri := 0; ri < b.Rows; ri += stride {
					sel = append(sel, ri)
					if keep(cell(ri)) {
						want = append(want, ri)
					}
				}
				if got := k(b, sel); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s col %s (enc %d, valid %v) %s stride %d:\n got %v\nwant %v",
						shape, kernelSchema.Col(col).Name, v.Enc, v.Valid, name, stride, got, want)
				}
			}
		}
		var coerced []storage.Value
		for _, raw := range kernelLiterals(kind) {
			lit, err := coerce(raw, kind)
			if err != nil {
				t.Fatal(err)
			}
			coerced = append(coerced, lit)
			for _, op := range kernelOps {
				run(fmt.Sprintf("%s %v", op, lit), compileVecComparison(col, kind, op, lit, &st),
					func(c storage.Value) bool { return refKeep(op, storage.Compare(c, lit)) })
			}
		}
		for n := 1; n <= len(coerced); n++ {
			vals := coerced[:n]
			run(fmt.Sprintf("IN %v", vals), compileVecIn(col, kind, vals, &st), func(c storage.Value) bool {
				for _, lit := range vals {
					if storage.Compare(c, lit) == 0 {
						return true
					}
				}
				return false
			})
		}
	}
}

// TestKernelsMatchCompare: the predicate kernels are the executor's only
// WHERE evaluation, so each is held to storage.Compare row by row over every
// vector shape a reader can deliver — plain, dictionary and run-length RCFile
// columns, unprojected (!Valid) columns, and the plain vectors decoded from
// TextFile lines.
func TestKernelsMatchCompare(t *testing.T) {
	kc := &kernelCheck{t: t, seen: map[string]map[byte]bool{}}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mixed, runs := kernelRows(rng, 300, false), kernelRows(rng, 300, true)
		kc.read("plain", false, mixed, nil)
		kc.read("encoded", false, mixed, nil)
		kc.read("encoded-runs", false, runs, nil)
		kc.read("unprojected", false, runs, []bool{true, false, false, true})
		kc.read("text", true, mixed, nil)
		kc.read("text-unprojected", true, mixed, []bool{false, true, true, false})
	}
	if kc.batches < 3*(4*5+2) {
		t.Errorf("only %d batches checked", kc.batches)
	}
	for shape, want := range map[string][]byte{
		"plain":        {storage.EncPlain},
		"encoded":      {storage.EncDict},
		"encoded-runs": {storage.EncRLE},
		"text":         {storage.EncPlain},
	} {
		for _, enc := range want {
			if !kc.seen[shape][enc] {
				t.Errorf("shape %q never delivered a %s vector", shape, storage.EncodingName(enc))
			}
		}
	}
}
