package main

// The oracle brute-forces a statement's answer from the generated dataset
// and compares it with what the server returned: counts and projected cells
// exactly, sums and averages to 1e-9 relative.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

const sumTolerance = 1e-9

// group accumulates one output group in exact integer arithmetic.
type group struct {
	count    int64
	sumCents int64
	maxCents int32
}

func (g *group) add(c int32) {
	g.count++
	g.sumCents += int64(c)
	if c > g.maxCents {
		g.maxCents = c
	}
}

// values renders the group as the statement's aggregate columns.
func (g *group) values(sel string) []float64 {
	sum := float64(g.sumCents) / 100
	switch sel {
	case selSum:
		return []float64{sum}
	case selMax:
		return []float64{power(g.maxCents)}
	case selAvg:
		return []float64{sum / float64(g.count)}
	case selCountSum:
		return []float64{float64(g.count), sum}
	case selCountAvg:
		return []float64{float64(g.count), sum / float64(g.count)}
	}
	return nil
}

// match visits every (day, user) reading of days [0, days) that satisfies the
// statement's predicate.
func (d *dataset) match(s *stmt, days int, visit func(day, user int, cents int32)) {
	userLo, userHi := 1, numUsers
	if s.UserLo > 0 {
		userLo, userHi = s.UserLo, s.UserHi
	}
	var vendors [numVendors]bool
	for _, v := range s.Vendors {
		vendors[v] = true
	}
	for day := 0; day < days; day++ {
		ts := dayUnix(day)
		if (s.TsLo != 0 && ts < s.TsLo) || (s.TsHi != 0 && ts >= s.TsHi) {
			continue
		}
		cents := d.cents[day]
		for user := userLo; user <= userHi; user++ {
			if s.RegionLo > 0 {
				if r := regionOf(user); r < s.RegionLo || r > s.RegionHi {
					continue
				}
			}
			c := cents[user-1]
			if s.HasMin && int(c) < s.MinCents {
				continue
			}
			if len(s.Vendors) > 0 && !vendors[vendorOf(user, day)] {
				continue
			}
			visit(day, user, c)
		}
	}
}

// matchBatch is match restricted to one ingest batch.
func (d *dataset) matchBatch(s *stmt, b batch, visit func(cents int32)) {
	if ts := dayUnix(b.day); (s.TsLo != 0 && ts < s.TsLo) || (s.TsHi != 0 && ts >= s.TsHi) {
		return
	}
	for _, u := range d.batchUsers(b) {
		if user := int(u); s.UserLo == 0 || (user >= s.UserLo && user <= s.UserHi) {
			visit(d.cents[b.day][user-1])
		}
	}
}

// expected is a brute-forced answer: either aggregate groups keyed by their
// GROUP BY cell, or exact rows rendered as strings.
type expected struct {
	groups map[string][]float64
	rows   []string
	// qualifying is how many readings satisfied the predicate.
	qualifying int64
}

func tsKey(day int) string { return time.Unix(dayUnix(day), 0).UTC().Format(time.RFC3339) }

func cellKey(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	}
	return fmt.Sprint(v)
}

// answer brute-forces s over days [0, days) of the dataset.
func (d *dataset) answer(s *stmt, days int) expected {
	var e expected
	switch s.Select {
	case selProject:
		d.match(s, days, func(day, user int, c int32) {
			e.qualifying++
			e.rows = append(e.rows, cellKey(float64(user))+"|"+tsKey(day)+"|"+cellKey(power(c)))
		})
	case selJoin:
		d.match(s, days, func(day, user int, c int32) {
			e.qualifying++
			e.rows = append(e.rows, userName(user)+"|"+cellKey(power(c)))
		})
	default:
		groups := map[string]*group{}
		d.match(s, days, func(day, user int, c int32) {
			e.qualifying++
			key := ""
			switch s.GroupBy {
			case "ts":
				key = tsKey(day)
			case "regionId":
				key = strconv.Itoa(regionOf(user))
			}
			g := groups[key]
			if g == nil {
				g = &group{}
				groups[key] = g
			}
			g.add(c)
		})
		e.groups = map[string][]float64{}
		for k, g := range groups {
			e.groups[k] = g.values(s.Select)
		}
	}
	sort.Strings(e.rows)
	return e
}

func closeEnough(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= sumTolerance*math.Max(math.Abs(got), math.Abs(want))
}

// compare checks the server's rows against the expected answer.
func (e *expected) compare(s *stmt, got [][]any) error {
	if e.groups == nil {
		if len(got) != len(e.rows) {
			return fmt.Errorf("%d rows, want %d", len(got), len(e.rows))
		}
		rows := make([]string, len(got))
		for i, r := range got {
			for j, c := range r {
				if j > 0 {
					rows[i] += "|"
				}
				rows[i] += cellKey(c)
			}
		}
		sort.Strings(rows)
		for i := range rows {
			if rows[i] != e.rows[i] {
				return fmt.Errorf("row %d is %q, want %q", i, rows[i], e.rows[i])
			}
		}
		return nil
	}
	if len(got) != len(e.groups) {
		return fmt.Errorf("%d groups, want %d", len(got), len(e.groups))
	}
	for _, r := range got {
		key, vals := "", r
		if s.GroupBy != "" {
			key, vals = cellKey(r[0]), r[1:]
		}
		want, ok := e.groups[key]
		if !ok || len(vals) != len(want) {
			return fmt.Errorf("unexpected group %q with %d values", key, len(vals))
		}
		for i, v := range vals {
			f, isNum := v.(float64)
			if !isNum || !closeEnough(f, want[i]) {
				return fmt.Errorf("group %q value %d is %v, want %v", key, i, v, want[i])
			}
		}
	}
	return nil
}

// sameRows reports whether two decoded responses carry identical rows
// (cache_hot: a hit must return exactly what the fill returned).
func sameRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// batchTotals is the exact (count, sum in cents) a frontier statement sees in
// ingest batches [0, n).
func (d *dataset) batchTotals(s *stmt, n int) (count, sumCents int64) {
	for i := 0; i < n; i++ {
		d.matchBatch(s, ingestBatch(i), func(c int32) {
			count++
			sumCents += int64(c)
		})
	}
	return count, sumCents
}

// checkFrontier verifies a frontier answer (count(*), sum) lies between the
// batches made visible by sync acks before the query was sent and the batches
// posted before its response arrived.
func (d *dataset) checkFrontier(s *stmt, got [][]any, visibleBefore, postedBefore int) error {
	if len(got) != 1 || len(got[0]) != 2 {
		return fmt.Errorf("frontier answer has shape %v", got)
	}
	count, okC := got[0][0].(float64)
	sum, okS := got[0][1].(float64)
	if !okC || !okS {
		return fmt.Errorf("frontier answer is not numeric: %v", got[0])
	}
	loCount, loSum := d.batchTotals(s, visibleBefore)
	hiCount, hiSum := d.batchTotals(s, postedBefore)
	if count < float64(loCount) || count > float64(hiCount) {
		return fmt.Errorf("frontier count %v outside [%d, %d]", count, loCount, hiCount)
	}
	lo, hi := float64(loSum)/100, float64(hiSum)/100
	if sum < lo*(1-sumTolerance) || sum > hi*(1+sumTolerance) {
		return fmt.Errorf("frontier sum %v outside [%v, %v]", sum, lo, hi)
	}
	return nil
}
