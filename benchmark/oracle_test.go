package main

import (
	"strconv"
	"strings"
	"testing"
)

// The oracle against a hand count on a tiny slice of a real dataset.
func TestOracleAnswersAndCompares(t *testing.T) {
	ds := newDataset(7, 3)
	s := stmt{Table: "meterdata", Select: selCountSum, UserLo: 10, UserHi: 12, TsLo: dayUnix(1), TsHi: dayUnix(2) + 1}
	s.render()
	var count int64
	var cents int64
	for day := 1; day <= 2; day++ {
		for user := 10; user <= 12; user++ {
			count++
			cents += int64(ds.cents[day][user-1])
		}
	}
	want := ds.answer(&s, 3)
	if want.qualifying != count {
		t.Fatalf("qualifying %d, want %d", want.qualifying, count)
	}
	sum := float64(cents) / 100
	if err := want.compare(&s, [][]any{{float64(count), sum}}); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	if err := want.compare(&s, [][]any{{float64(count), sum * (1 + 1e-12)}}); err != nil {
		t.Errorf("sum within tolerance rejected: %v", err)
	}
	if err := want.compare(&s, [][]any{{float64(count), sum * (1 + 1e-6)}}); err == nil {
		t.Error("sum off by 1e-6 accepted")
	}
	if err := want.compare(&s, [][]any{{float64(count + 1), sum}}); err == nil {
		t.Error("count off by one accepted")
	}
}

func TestOracleGroupsAndRows(t *testing.T) {
	ds := newDataset(7, 2)
	g := stmt{Table: "meterdata", Select: selSum, GroupBy: "regionId", UserLo: 1, UserHi: 22}
	g.render()
	want := ds.answer(&g, 2)
	if len(want.groups) != numRegions {
		t.Fatalf("%d groups, want %d", len(want.groups), numRegions)
	}
	var got [][]any
	for key, vals := range want.groups {
		got = append(got, []any{mustFloat(t, key), vals[0]})
	}
	if err := want.compare(&g, got); err != nil {
		t.Errorf("its own groups rejected: %v", err)
	}
	if err := want.compare(&g, got[1:]); err == nil {
		t.Error("a missing group accepted")
	}

	p := stmt{Table: "meterlog", Select: selProject, UserLo: 5, UserHi: 6}
	p.render()
	rows := ds.answer(&p, 2)
	if len(rows.rows) != 4 {
		t.Fatalf("%d projected rows, want 4", len(rows.rows))
	}
	var back [][]any
	for _, r := range rows.rows {
		cells := strings.Split(r, "|")
		back = append(back, []any{mustFloat(t, cells[0]), cells[1], mustFloat(t, cells[2])})
	}
	back[0], back[3] = back[3], back[0] // order must not matter
	if err := rows.compare(&p, back); err != nil {
		t.Errorf("its own rows rejected: %v", err)
	}
	back[0][2] = back[0][2].(float64) + 0.01
	if err := rows.compare(&p, back); err == nil {
		t.Error("a changed cell accepted")
	}
}

func TestFrontierBounds(t *testing.T) {
	ds := newDataset(7, baseDays+1)
	s := stmt{Class: classFrontier, Table: "meterdata", Select: selCountSum, UserLo: 1, UserHi: numUsers, TsLo: dayUnix(baseDays) - 1}
	c3, s3 := ds.batchTotals(&s, 3)
	c5, s5 := ds.batchTotals(&s, 5)
	if c3 != 3*batchRows || c5 != 5*batchRows {
		t.Fatalf("batch totals %d and %d", c3, c5)
	}
	mid := [][]any{{float64(c3 + 100), float64(s3+s5) / 200}}
	if err := ds.checkFrontier(&s, mid, 3, 5); err != nil {
		t.Errorf("answer between the bounds rejected: %v", err)
	}
	if err := ds.checkFrontier(&s, [][]any{{float64(c3 - 1), float64(s3) / 100}}, 3, 5); err == nil {
		t.Error("answer missing a visible row accepted")
	}
	if err := ds.checkFrontier(&s, [][]any{{float64(c5 + 1), float64(s5) / 100}}, 3, 5); err == nil {
		t.Error("answer with a row nobody posted accepted")
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// project and dict write their bound off the cents grid (stmt.SubCent). The
// engine compares a reading, the float64 of whole cents, with that literal;
// the oracle compares integer cents. For every bound the generator can write,
// the two must select the same readings.
func TestOffGridBoundsSelectWhatWholeCentsSelect(t *testing.T) {
	literal := func(s *stmt) float64 {
		t.Helper()
		s.render()
		_, lit, found := strings.Cut(s.SQL, "powerConsumed>=")
		if !found {
			t.Fatalf("no powerConsumed bound in %q", s.SQL)
		}
		lit, _, _ = strings.Cut(lit, " ")
		return mustFloat(t, lit)
	}
	minCents := []int{0} // dict: below every reading
	for c := 99650; c < 99850; c++ {
		minCents = append(minCents, c) // project
	}
	for _, m := range minCents {
		for sub := 1; sub <= 999; sub++ {
			s := stmt{Table: "meterlog", Select: selProject, HasMin: true, MinCents: m, SubCent: sub}
			bound := literal(&s)
			// The two readings the bound must fall between.
			if m > 0 && power(int32(m-1)) >= bound {
				t.Fatalf("%q selects %v, below MinCents %d", s.SQL, power(int32(m-1)), m)
			}
			if power(int32(m)) < bound {
				t.Fatalf("%q leaves out %v, MinCents is %d", s.SQL, power(int32(m)), m)
			}
		}
	}

	ds := newDataset(7, 1)
	for _, s := range []stmt{
		{Table: "meterlog", Select: selProject, HasMin: true, MinCents: 99650, SubCent: 1},
		{Table: "meterlog", Select: selProject, HasMin: true, MinCents: 99849, SubCent: 999},
		{Table: "meterlog", Select: selCountSum, HasMin: true, SubCent: 500, Vendors: []int{3}},
	} {
		bound := literal(&s)
		var want int64
		for user, c := range ds.cents[0] {
			if power(c) >= bound && (len(s.Vendors) == 0 || vendorOf(user+1, 0) == s.Vendors[0]) {
				want++
			}
		}
		if got := ds.answer(&s, 1).qualifying; got != want || want == 0 {
			t.Errorf("%q: the oracle counts %d readings, the literal selects %d", s.SQL, got, want)
		}
	}
}
