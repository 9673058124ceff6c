package gridfile

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// paperPolicy reproduces the example of the paper's Figures 5-7:
// dimension A divided with min 1 interval 3, dimension B min 11 interval 2.
func paperPolicy() *Policy {
	return &Policy{Dims: []Dimension{
		{Name: "A", Kind: storage.KindInt64, Min: storage.Int64(1), IntervalI: 3},
		{Name: "B", Kind: storage.KindInt64, Min: storage.Int64(11), IntervalI: 2},
	}}
}

func TestCellOfPaperExample(t *testing.T) {
	p := paperPolicy()
	// Record <1,14,0.1> lands in {1<=A<4, 13<=B<15} per Section 4.1.
	cells := p.CellsOf([]storage.Value{storage.Int64(1), storage.Int64(14)})
	if cells[0] != 0 || cells[1] != 1 {
		t.Fatalf("cells = %v, want [0 1]", cells)
	}
	if key := p.Key(cells); key != "1_13" {
		t.Errorf("key = %q, want 1_13 (paper figure 6 first pair)", key)
	}
	// Record <9,14,...> and <8,13,...> share GFU 7_13 (the highlighted one).
	k1 := p.Key(p.CellsOf([]storage.Value{storage.Int64(9), storage.Int64(14)}))
	k2 := p.Key(p.CellsOf([]storage.Value{storage.Int64(8), storage.Int64(13)}))
	if k1 != "7_13" || k2 != "7_13" {
		t.Errorf("keys = %q, %q, want both 7_13", k1, k2)
	}
}

func TestAllPaperFigure6Keys(t *testing.T) {
	p := paperPolicy()
	// Original data of Figure 6 with its expected GFUKeys.
	cases := []struct {
		a, b int64
		key  string
	}{
		{1, 14, "1_13"}, {5, 18, "4_17"}, {7, 12, "7_11"}, {2, 11, "1_11"},
		{9, 14, "7_13"}, {11, 16, "10_15"}, {3, 18, "1_17"}, {12, 12, "10_11"},
		{8, 13, "7_13"},
	}
	for _, c := range cases {
		key := p.Key(p.CellsOf([]storage.Value{storage.Int64(c.a), storage.Int64(c.b)}))
		if key != c.key {
			t.Errorf("record (%d,%d): key %q, want %q", c.a, c.b, key, c.key)
		}
	}
}

func TestDecomposePaperQuery(t *testing.T) {
	p := paperPolicy()
	// Listing 2: WHERE A>=5 AND A<12 AND B>=12 AND B<16.
	dec, err := p.Decompose([]Range{
		{Lo: storage.Int64(5), Hi: storage.Int64(12), HiOpen: true},
		{Lo: storage.Int64(12), Hi: storage.Int64(16), HiOpen: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: read region R = {4<=A<13, 11<=B<17} -> A cells 1..3, B cells 0..2.
	if dec.Read[0] != (CellRange{1, 3}) || dec.Read[1] != (CellRange{0, 2}) {
		t.Errorf("Read = %+v, want A[1,3] B[0,2]", dec.Read)
	}
	// Paper: inner region I = {7<=A<10, 13<=B<15} -> A cell 2, B cell 1.
	if dec.Inner[0] != (CellRange{2, 2}) || dec.Inner[1] != (CellRange{1, 1}) {
		t.Errorf("Inner = %+v, want A[2,2] B[1,1]", dec.Inner)
	}
	if !dec.HasInner() {
		t.Error("HasInner = false")
	}
	if dec.CountRead() != 9 || dec.CountInner() != 1 {
		t.Errorf("counts = %d read, %d inner; want 9, 1", dec.CountRead(), dec.CountInner())
	}
	var boundary []string
	dec.EachBoundaryCell(func(c []int64) { boundary = append(boundary, p.Key(c)) })
	if len(boundary) != 8 {
		t.Errorf("boundary cells = %v, want 8", boundary)
	}
	for _, k := range boundary {
		if k == "7_13" {
			t.Error("inner cell 7_13 appeared in boundary")
		}
	}
}

func TestDecomposePointQuery(t *testing.T) {
	p := paperPolicy()
	dec, err := p.Decompose([]Range{
		{Lo: storage.Int64(8), Hi: storage.Int64(8)},
		{Lo: storage.Int64(13), Hi: storage.Int64(13)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.CountRead() != 1 {
		t.Errorf("point query reads %d cells, want 1", dec.CountRead())
	}
	// A point query has no inner GFU (Section 5.3.2: "In point query case,
	// there is no inner GFU").
	if dec.HasInner() {
		t.Error("point query should have no inner region")
	}
}

func TestDecomposeExactCellAlignment(t *testing.T) {
	p := paperPolicy()
	// Query exactly one whole cell: A in [7,10), B in [13,15).
	dec, err := p.Decompose([]Range{
		{Lo: storage.Int64(7), Hi: storage.Int64(10), HiOpen: true},
		{Lo: storage.Int64(13), Hi: storage.Int64(15), HiOpen: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.CountRead() != 1 || dec.CountInner() != 1 {
		t.Errorf("aligned cell query: read=%d inner=%d, want 1,1", dec.CountRead(), dec.CountInner())
	}
}

func TestDecomposeOpenLowerBound(t *testing.T) {
	p := paperPolicy()
	// A > 9 AND A <= 10: only values 10 qualify -> cell 3 only.
	dec, err := p.Decompose([]Range{
		{Lo: storage.Int64(9), Hi: storage.Int64(10), LoOpen: true},
		{Lo: storage.Int64(11), Hi: storage.Int64(12)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Read[0] != (CellRange{3, 3}) {
		t.Errorf("Read A = %+v, want [3,3]", dec.Read[0])
	}
}

func TestDecomposeEmptyRange(t *testing.T) {
	p := paperPolicy()
	_, err := p.Decompose([]Range{
		{Lo: storage.Int64(9), Hi: storage.Int64(5)},
		{Lo: storage.Int64(11), Hi: storage.Int64(12)},
	})
	if err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := p.Decompose([]Range{{Lo: storage.Int64(1), Hi: storage.Int64(2)}}); err == nil {
		t.Error("wrong range count accepted")
	}
}

func TestFloatDimension(t *testing.T) {
	d := Dimension{Name: "l_discount", Kind: storage.KindFloat64, Min: storage.Float64(0), IntervalF: 0.01}
	// Boundary values standardise into the cell they open.
	for i := 0; i <= 10; i++ {
		v := storage.Float64(float64(i) * 0.01)
		if got := d.CellOf(v); got != int64(i) {
			t.Errorf("CellOf(%.2f) = %d, want %d", v.F, got, i)
		}
	}
	if got := d.CellOf(storage.Float64(0.057)); got != 5 {
		t.Errorf("CellOf(0.057) = %d, want 5", got)
	}
}

func TestTimeDimension(t *testing.T) {
	min := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	d := DayInterval("ts", min, 1)
	if got := d.CellOf(storage.Time(min.Add(36 * time.Hour))); got != 1 {
		t.Errorf("36h -> cell %d, want 1", got)
	}
	if got := d.CellStart(29); got.String() != "2012-12-30" {
		t.Errorf("CellStart(29) = %s, want 2012-12-30", got)
	}
}

func TestParseDimensionForms(t *testing.T) {
	cases := []struct {
		name string
		kind storage.Kind
		spec string
	}{
		{"A", storage.KindInt64, "1_3"},
		{"discount", storage.KindFloat64, "0_0.01"},
		{"ts", storage.KindTime, "2012-12-01_1d"},
		{"ts2", storage.KindTime, "1992-01-01_100d"},
		{"ts3", storage.KindTime, "2012-12-01_3600"},
	}
	for _, c := range cases {
		d, err := ParseDimension(c.name, c.kind, c.spec)
		if err != nil {
			t.Errorf("ParseDimension(%q): %v", c.spec, err)
			continue
		}
		// Spec round-trips through ParseDimension.
		d2, err := ParseDimension(c.name, c.kind, d.Spec())
		if err != nil {
			t.Errorf("re-parse %q: %v", d.Spec(), err)
			continue
		}
		if d2 != d {
			t.Errorf("spec round trip: %+v != %+v", d2, d)
		}
	}
	for _, bad := range []string{"", "5", "_3", "5_", "a_b"} {
		if _, err := ParseDimension("x", storage.KindInt64, bad); err == nil {
			t.Errorf("ParseDimension(%q) accepted", bad)
		}
	}
	if _, err := ParseDimension("s", storage.KindString, "a_b"); err == nil {
		t.Error("string dimension accepted")
	}
}

func TestClampRead(t *testing.T) {
	p := paperPolicy()
	dec, _ := p.Decompose([]Range{
		{Lo: storage.Int64(-100), Hi: storage.Int64(1000)},
		{Lo: storage.Int64(-100), Hi: storage.Int64(1000)},
	})
	if dec.CountRead() < 300 {
		t.Fatalf("unclamped read = %d", dec.CountRead())
	}
	dec.ClampRead([]int64{0, 0}, []int64{3, 2})
	if dec.Read[0] != (CellRange{0, 3}) || dec.Read[1] != (CellRange{0, 2}) {
		t.Errorf("clamped = %+v", dec.Read)
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Lo: storage.Int64(5), Hi: storage.Int64(10), LoOpen: true, HiOpen: false}
	cases := map[int64]bool{4: false, 5: false, 6: true, 10: true, 11: false}
	for v, want := range cases {
		if got := r.Contains(storage.Int64(v)); got != want {
			t.Errorf("Contains(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	p := paperPolicy()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := &Policy{Dims: []Dimension{p.Dims[0], p.Dims[0]}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate dimension accepted")
	}
	empty := &Policy{}
	if err := empty.Validate(); err == nil {
		t.Error("empty policy accepted")
	}
	bad := &Policy{Dims: []Dimension{{Name: "x", Kind: storage.KindInt64, IntervalI: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero interval accepted")
	}
}

// Property: CellOf(CellStart(i)) == i for every dimension kind.
func TestCellStartRoundTripProperty(t *testing.T) {
	f := func(idxRaw int32, intervalRaw uint8, minRaw int16) bool {
		idx := int64(idxRaw % 100000)
		interval := int64(intervalRaw%50) + 1
		dims := []Dimension{
			{Name: "i", Kind: storage.KindInt64, Min: storage.Int64(int64(minRaw)), IntervalI: interval},
			{Name: "t", Kind: storage.KindTime, Min: storage.TimeUnix(int64(minRaw) * 3600), IntervalI: interval * 3600},
			{Name: "f", Kind: storage.KindFloat64, Min: storage.Float64(float64(minRaw) / 7), IntervalF: float64(interval) / 16},
		}
		for _, d := range dims {
			if d.CellOf(d.CellStart(idx)) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every value satisfying the ranges falls in a read cell, and
// every value in an inner cell satisfies the ranges.
func TestDecomposeSoundnessProperty(t *testing.T) {
	f := func(loRaw, widthRaw uint8, vRaw int16, loOpen, hiOpen bool) bool {
		d := Dimension{Name: "x", Kind: storage.KindInt64, Min: storage.Int64(0), IntervalI: 7}
		p := &Policy{Dims: []Dimension{d}}
		lo := int64(loRaw)
		hi := lo + int64(widthRaw) + 1
		r := Range{Lo: storage.Int64(lo), Hi: storage.Int64(hi), LoOpen: loOpen, HiOpen: hiOpen}
		dec, err := p.Decompose([]Range{r})
		if err != nil {
			return false
		}
		v := storage.Int64(int64(vRaw))
		cell := d.CellOf(v)
		inRead := cell >= dec.Read[0].Lo && cell <= dec.Read[0].Hi
		if r.Contains(v) && !inRead {
			return false // qualifying value outside read region: unsound
		}
		inInner := dec.HasInner() && cell >= dec.Inner[0].Lo && cell <= dec.Inner[0].Hi
		if inInner && !r.Contains(v) {
			// Only unsound if the value really lies in that cell's span;
			// any v with this cell index does, by definition of CellOf.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: boundary + inner == read, disjointly.
func TestDecomposePartitionProperty(t *testing.T) {
	f := func(lo1, w1, lo2, w2 uint8) bool {
		p := paperPolicy()
		r1 := Range{Lo: storage.Int64(int64(lo1)), Hi: storage.Int64(int64(lo1) + int64(w1) + 1), HiOpen: true}
		r2 := Range{Lo: storage.Int64(int64(lo2) + 11), Hi: storage.Int64(int64(lo2) + 11 + int64(w2) + 1), HiOpen: true}
		dec, err := p.Decompose([]Range{r1, r2})
		if err != nil {
			return false
		}
		seen := map[string]int{}
		dec.EachReadCell(func(c []int64) { seen[fmt.Sprint(c)] |= 1 })
		dec.EachInnerCell(func(c []int64) { seen[fmt.Sprint(c)] |= 2 })
		dec.EachBoundaryCell(func(c []int64) { seen[fmt.Sprint(c)] |= 4 })
		var inner, boundary, read int64
		for _, bits := range seen {
			if bits&1 == 0 {
				return false // inner or boundary cell outside read
			}
			read++
			switch bits {
			case 1 | 2:
				inner++
			case 1 | 4:
				boundary++
			case 1:
				return false // read cell neither inner nor boundary
			default:
				return false // cell both inner and boundary
			}
		}
		return read == dec.CountRead() && inner == dec.CountInner()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendCellsMatchesCellOf: standardising a column at a time gives every
// row the cell CellOf gives its value, for integer, time and float
// dimensions over vectors of their own kind, of another kind, and skipped by
// a projection.
func TestAppendCellsMatchesCellOf(t *testing.T) {
	ints := []int64{-1001, -1000, -999, -1, 0, 1, 399, 400, 401, 1354320000, 1354406399, 1 << 40}
	floats := []float64{-2.5, -0.01, 0, 0.01, 0.0299999, 0.03, 1.7, 1e9}
	dims := []Dimension{
		{Name: "u", Kind: storage.KindInt64, Min: storage.Int64(1), IntervalI: 400},
		{Name: "r", Kind: storage.KindInt64, Min: storage.Int64(-3), IntervalI: 1},
		{Name: "ts", Kind: storage.KindTime, Min: storage.TimeUnix(1354320000), IntervalI: 24 * 3600},
		{Name: "f", Kind: storage.KindFloat64, Min: storage.Float64(0), IntervalF: 0.01},
	}
	vectors := []storage.ColumnVector{
		{Kind: storage.KindInt64, Valid: true, Ints: ints},
		{Kind: storage.KindTime, Valid: true, Ints: ints},
		{Kind: storage.KindFloat64, Valid: true, Floats: floats},
		{Kind: storage.KindInt64},
		{Kind: storage.KindFloat64},
	}
	for _, d := range dims {
		for vi := range vectors {
			v := &vectors[vi]
			n := max(len(v.Ints), len(v.Floats), 3)
			rows := make([]int, 0, n)
			for r := n - 1; r >= 0; r -= 2 { // a sparse selection, descending
				rows = append(rows, r)
			}
			got := d.AppendCells([]int64{42}, v, rows)
			if len(got) != len(rows)+1 || got[0] != 42 {
				t.Fatalf("%s over vector %d: appended %v to [42] for %d rows", d.Name, vi, got, len(rows))
			}
			for k, r := range rows {
				if want := d.CellOf(v.Value(r)); got[k+1] != want {
					t.Errorf("%s over vector %d row %d (%v): cell %d, CellOf %d", d.Name, vi, r, v.Value(r), got[k+1], want)
				}
			}
		}
	}
}
