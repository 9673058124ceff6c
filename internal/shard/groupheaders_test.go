package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// groupHeaderRows are readings a few seconds apart: a 1 s grid over them has
// cells holding several rows and cells holding none.
func groupHeaderRows(rng *rand.Rand, base time.Time) []storage.Row {
	rows := make([]storage.Row, 2400)
	for i := range rows {
		rows[i] = storage.Row{
			storage.Int64(int64(rng.Intn(1200) + 1)),
			storage.Int64(int64(rng.Intn(6) + 1)),
			storage.TimeUnix(base.Unix() + int64(rng.Intn(90))),
			storage.Float64(float64(rng.Intn(100000)) / 100),
			storage.Float64(200 + float64(rng.Intn(4000))/100),
		}
	}
	return rows
}

// groupHeaderTables creates and indexes the two tables the randomised
// GROUP BY test queries. On "sec" regionId ('1_1') and ts ('..._1s') have
// unit intervals and userId ('1_400') does not; on "day" regionId does, and
// neither ts ('..._1d') nor the double voltage does.
func groupHeaderTables(t *testing.T, l loader, stored string, rows []storage.Row) {
	t.Helper()
	for _, c := range []struct{ table, dims, props string }{
		{"sec", "regionId, userId, ts", `'regionId'='1_1', 'userId'='1_400', 'ts'='2012-12-01_1s'`},
		{"day", "regionId, ts, voltage", `'regionId'='1_1', 'ts'='2012-12-01_1d', 'voltage'='200_5'`},
	} {
		mustExec(t, l, fmt.Sprintf(`CREATE TABLE %s (userId bigint, regionId bigint, ts timestamp, powerConsumed double, voltage double) STORED AS %s`, c.table, stored))
		if err := loadRows(l, c.table, rows); err != nil {
			t.Fatal(err)
		}
		mustExec(t, l, fmt.Sprintf(`CREATE INDEX %s_idx ON TABLE %s(%s) AS 'dgf'
			IDXPROPERTIES (%s, 'precompute'='sum(powerConsumed);count(*)')`, c.table, c.table, c.dims, c.props))
	}
}

// groupHeaderQuery is one randomised statement: unit marks a grouping by
// unit-interval dimensions only, inner a box with inner cells, filtered a
// predicate on powerConsumed, which is no grid dimension. It must read the
// pre-computed headers when unit and inner hold and filtered does not.
type groupHeaderQuery struct {
	sql                   string
	unit, inner, filtered bool
}

// groupHeaderQueries draws GROUP BY statements over both tables: one or two
// group columns, sum, count and avg, a box that has inner cells on every
// dimension or lacks them on one, and in a quarter of them a filter on a
// column the grid does not index.
func groupHeaderQueries(rng *rand.Rand, base time.Time, n int) []groupHeaderQuery {
	groupings := []struct {
		table string
		cols  []string
		unit  bool
	}{
		{"sec", []string{"regionId"}, true},
		{"sec", []string{"ts"}, true},
		{"sec", []string{"regionId", "ts"}, true},
		{"sec", []string{"ts", "regionId"}, true},
		{"sec", []string{"userId"}, false},
		{"sec", []string{"regionId", "userId"}, false},
		{"day", []string{"regionId"}, true},
		{"day", []string{"ts"}, false},
		{"day", []string{"voltage"}, false},
		{"day", []string{"regionId", "voltage"}, false},
	}
	aggs := []string{"sum(powerConsumed)", "count(*)", "avg(powerConsumed)"}
	stamp := func(sec int) string { return base.Add(time.Duration(sec) * time.Second).Format("2006-01-02 15:04:05") }
	var out []groupHeaderQuery
	for len(out) < n {
		g := groupings[rng.Intn(len(groupings))]
		var sel []string
		for _, a := range aggs {
			if rng.Intn(2) == 0 {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			sel = append(sel, aggs[rng.Intn(len(aggs))])
		}
		rLo := rng.Intn(4) + 1
		where := []string{fmt.Sprintf("regionId>=%d AND regionId<=%d", rLo, rLo+rng.Intn(3))}
		if g.table == "sec" {
			tLo := rng.Intn(40)
			where = append(where, fmt.Sprintf("ts>='%s' AND ts<'%s'", stamp(tLo), stamp(tLo+rng.Intn(40)+1)))
		} else {
			where = append(where, "ts>='2012-12-01' AND ts<'2012-12-02'")
		}
		// The box so far covers whole cells on regionId and ts, and the
		// dimensions it leaves out are completed from the data: it has inner
		// cells unless a range lies inside one cell.
		inner := true
		switch rng.Intn(3) {
		case 1:
			if g.table == "sec" {
				lo := rng.Intn(300) + 2 // inside userId's first cell, [1, 401)
				where = append(where, fmt.Sprintf("userId>=%d AND userId<=%d", lo, lo+rng.Intn(98)))
			} else {
				lo := 200.5 + float64(rng.Intn(30)) // inside one voltage cell
				where = append(where, fmt.Sprintf("voltage>=%g AND voltage<=%g", lo, lo+3))
			}
			inner = false
		case 2:
			if g.table == "sec" {
				where = append(where, "userId>=1 AND userId<=800")
			} else {
				where = append(where, "voltage>=205 AND voltage<230")
			}
		}
		filtered := rng.Intn(4) == 0
		if filtered {
			where = append(where, fmt.Sprintf("powerConsumed>=%d", rng.Intn(800)+100))
		}
		cols := strings.Join(g.cols, ", ")
		out = append(out, groupHeaderQuery{
			sql: fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s GROUP BY %s",
				cols, strings.Join(sel, ", "), g.table, strings.Join(where, " AND "), cols),
			unit:     g.unit,
			inner:    inner,
			filtered: filtered,
		})
	}
	return out
}

// TestGroupHeadersEquivalenceRandomised: a GROUP BY whose every column is a
// unit-interval grid dimension answers its inner cells from their headers,
// and every GROUP BY, qualifying or not, answers what it answers without
// pre-computation: the same groups in the same order, values within float
// merge tolerance. Qualifying statements report the precompute path and read
// fewer records; the others report the scan of every cell. The suite runs on
// 1x1 and 4x2 fleets over TextFile and RCFile data, and covers boxes with
// inner cells, without them, and with missing cells, and filters on a column
// that is no grid dimension, which headers cannot apply.
func TestGroupHeadersEquivalenceRandomised(t *testing.T) {
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {4, 2}} {
		for _, stored := range []string{"TEXTFILE", "RCFILE"} {
			t.Run(fmt.Sprintf("%dx%d/%s", shape.shards, shape.replicas, strings.ToLower(stored)), func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				r, err := New(Config{Shards: shape.shards, Replicas: shape.replicas, Key: "userId"}, newShardWarehouse)
				if err != nil {
					t.Fatal(err)
				}
				groupHeaderTables(t, r, stored, groupHeaderRows(rng, base))
				ctx := context.Background()
				var hits, misses, noInner, missing, filtered int
				for _, q := range groupHeaderQueries(rng, base, 60) {
					got, err := r.ExecContext(ctx, q.sql, hive.ExecOptions{})
					if err != nil {
						t.Fatalf("%s: %v", q.sql, err)
					}
					want, err := r.ExecContext(ctx, q.sql, hive.ExecOptions{DisablePrecompute: true})
					if err != nil {
						t.Fatalf("%s without pre-computation: %v", q.sql, err)
					}
					if err := closeRows(want.Rows, got.Rows); err != nil {
						t.Fatalf("%s: %v\nwithout pre-computation: %v\nwith: %v", q.sql, err, want.Rows, got.Rows)
					}
					stmt, err := hive.Parse(q.sql)
					if err != nil {
						t.Fatal(err)
					}
					plan, err := r.ExplainContext(ctx, stmt.(*hive.SelectStmt), hive.ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					hit := strings.HasSuffix(got.Stats.AccessPath, "dgfindex(precompute)")
					qualifies := q.unit && q.inner && !q.filtered
					switch {
					case hit != qualifies || plan.AccessPath != got.Stats.AccessPath || plan.PrecomputeHit != hit:
						t.Errorf("%s: executed %q, EXPLAIN %q (precompute_hit %v); want a precompute hit: %v",
							q.sql, got.Stats.AccessPath, plan.AccessPath, plan.PrecomputeHit, qualifies)
					case hit && got.Stats.RecordsRead >= want.Stats.RecordsRead:
						t.Errorf("%s: read %d records, %d without pre-computation", q.sql, got.Stats.RecordsRead, want.Stats.RecordsRead)
					case !hit && (got.Stats.RecordsRead != want.Stats.RecordsRead || got.Stats.BytesRead != want.Stats.BytesRead):
						t.Errorf("%s: without a precompute hit read %d records and %d bytes, %d and %d without pre-computation",
							q.sql, got.Stats.RecordsRead, got.Stats.BytesRead, want.Stats.RecordsRead, want.Stats.BytesRead)
					}
					switch {
					case hit:
						hits++
						if plan.MissingCells > 0 {
							missing++
						}
					case q.filtered:
						if q.unit && q.inner {
							filtered++
						}
					case q.unit:
						noInner++
					default:
						misses++
					}
				}
				if hits == 0 || misses == 0 || noInner == 0 || missing == 0 || filtered == 0 {
					t.Errorf("the suite had %d precompute hits (%d with missing cells), %d qualifying groupings without inner cells, %d with inner cells and a filter off the grid, and %d non-qualifying statements; each must occur",
						hits, missing, noInner, filtered, misses)
				}
			})
		}
	}
}
