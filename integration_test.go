package dgfindex_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

// TestFullLifecycle drives the complete life of a DGFIndex-backed table
// through the public API only: create, bulk load, advise a policy from a
// query history, build the index with the advised policy, query every
// family (aggregation, group-by, join, partial), append a new collection
// period, register an extra pre-computed aggregation, and re-validate
// everything against a plain-scan warehouse at each step.
func TestFullLifecycle(t *testing.T) {
	const (
		users = 1500
		days  = 12
	)
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = users
	cfg.Days = days
	cfg.OtherMetrics = 2
	ddl := `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double, pate1 double, pate2 double)`
	userDDL := `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`

	newWarehouse := func() *dgfindex.Warehouse {
		w := dgfindex.New()
		if _, err := w.ExecContext(context.Background(), ddl, dgfindex.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.ExecContext(context.Background(), userDDL, dgfindex.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRowsByName("meterdata", cfg.AllRows()); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRowsByName("userInfo", cfg.UserInfoRows()); err != nil {
			t.Fatal(err)
		}
		return w
	}
	indexed := newWarehouse()
	plain := newWarehouse()

	// Phase 1: advise a splitting policy from the data and the intended
	// workload's query history.
	mt, _ := indexed.Table("meterdata")
	q5 := cfg.Selective(0.05)
	q12 := cfg.Selective(0.12)
	history := []map[string]dgfindex.GridRange{q5.Ranges(), q12.Ranges(), cfg.Point().Ranges()}
	// The default 32-rows-per-GFU floor would coarsen the grid past the
	// query extents at this toy scale; lower it so the advised policy keeps
	// an inner region for the 5% query.
	advice, err := dgfindex.SuggestPolicy(mt.Schema, []string{"regionId", "userId", "ts"},
		cfg.AllRows()[:10000], history,
		dgfindex.AdvisorConfig{TotalRows: int64(cfg.Rows()), MinRowsPerCell: 4})
	if err != nil {
		t.Fatal(err)
	}
	create := fmt.Sprintf(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES (%s, 'precompute'='sum(powerConsumed);count(*)')`,
		advice.String())
	if _, err := indexed.ExecContext(context.Background(), create, dgfindex.ExecOptions{}); err != nil {
		t.Fatalf("CREATE INDEX with advised policy %q: %v", advice.String(), err)
	}

	// Phase 2: the four query families agree with the plain warehouse.
	queries := []string{
		"SELECT sum(powerConsumed), count(*) FROM meterdata WHERE " + q5.WhereClause(),
		"SELECT avg(powerConsumed), max(powerConsumed) FROM meterdata WHERE " + q12.WhereClause(),
		"SELECT ts, sum(powerConsumed) FROM meterdata WHERE " + q5.WhereClause() + " GROUP BY ts",
		`SELECT t2.userName, t1.powerConsumed FROM meterdata t1 JOIN userInfo t2
		 ON t1.userId=t2.userId WHERE t1.userId>=40 AND t1.userId<=60
		 AND t1.ts>='2012-12-03' AND t1.ts<'2012-12-05'`,
		`SELECT SUM(powerConsumed) FROM meterdata WHERE regionId=4 AND ts>='2012-12-06' AND ts<'2012-12-07'`,
	}
	// Rows are compared as sorted multisets: the DGFIndex build reorganises
	// the physical layout, so unordered projections legitimately arrive in
	// a different order.
	renderSorted := func(rows []dgfindex.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			var cells []string
			for _, v := range r {
				if v.Kind == dgfindex.KindFloat64 {
					cells = append(cells, fmt.Sprintf("%.6f", v.F))
				} else {
					cells = append(cells, v.String())
				}
			}
			out[i] = strings.Join(cells, "|")
		}
		sort.Strings(out)
		return out
	}
	compare := func(phase string) {
		t.Helper()
		for _, sql := range queries {
			a, err := indexed.ExecContext(context.Background(), sql, dgfindex.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: indexed %q: %v", phase, sql, err)
			}
			b, err := plain.ExecContext(context.Background(), sql, dgfindex.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: plain %q: %v", phase, sql, err)
			}
			as, bs := renderSorted(a.Rows), renderSorted(b.Rows)
			if len(as) != len(bs) {
				t.Fatalf("%s: %q row counts differ: %d vs %d", phase, sql, len(as), len(bs))
			}
			for i := range as {
				if as[i] != bs[i] {
					t.Fatalf("%s: %q row %d: %q vs %q", phase, sql, i, as[i], bs[i])
				}
			}
		}
	}
	compare("initial")

	// Phase 3: a new collection day arrives in both warehouses.
	dayCfg := cfg
	dayCfg.Days = 1
	dayCfg.Start = cfg.Start.AddDate(0, 0, days)
	dayCfg.Seed = cfg.Seed + 1
	newRows := dayCfg.AllRows()
	for _, w := range []*dgfindex.Warehouse{indexed, plain} {
		if err := w.LoadRowsByName("meterdata", newRows); err != nil {
			t.Fatal(err)
		}
	}
	queries = append(queries, fmt.Sprintf(
		`SELECT count(*) FROM meterdata WHERE ts>='%s' AND ts<'%s'`,
		dayCfg.Start.Format("2006-01-02"), dayCfg.Start.AddDate(0, 0, 1).Format("2006-01-02")))
	compare("after append")

	// Phase 4: register a new pre-computed aggregation on the live index
	// and verify the planner can now answer min() from headers.
	tb, _ := indexed.Table("meterdata")
	if _, err := tb.Dgf.AddPrecompute(indexed.Cluster, []dgfindex.DGFAggSpec{{Func: dgfindex.AggMin, Col: "powerconsumed"}}); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT min(powerConsumed) FROM meterdata WHERE " + q5.WhereClause()
	a, err := indexed.ExecContext(context.Background(), sql, dgfindex.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.AccessPath != "dgfindex(precompute)" {
		t.Errorf("min() after AddPrecompute uses %s", a.Stats.AccessPath)
	}
	b, _ := plain.ExecContext(context.Background(), sql, dgfindex.ExecOptions{})
	if math.Abs(a.Rows[0][0].F-b.Rows[0][0].F) > 1e-9 {
		t.Errorf("min = %v, want %v", a.Rows[0][0].F, b.Rows[0][0].F)
	}

	// Phase 5: simulated economics stay sane — the indexed aggregation is
	// far cheaper than the plain scan.
	res, _ := indexed.ExecContext(context.Background(), queries[0], dgfindex.ExecOptions{})
	scan, _ := plain.ExecContext(context.Background(), queries[0], dgfindex.ExecOptions{})
	if res.Stats.SimTotalSec() >= scan.Stats.SimTotalSec() {
		t.Errorf("indexed query %v s not below scan %v s",
			res.Stats.SimTotalSec(), scan.Stats.SimTotalSec())
	}
}
