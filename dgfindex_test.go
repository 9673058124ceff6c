package dgfindex_test

import (
	"context"
	"math"
	"testing"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

// TestPublicAPIEndToEnd exercises the README quick-start path through the
// re-exported API only.
func TestPublicAPIEndToEnd(t *testing.T) {
	w := dgfindex.New()
	if _, err := w.ExecContext(context.Background(), `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, dgfindex.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	var rows []dgfindex.Row
	var want float64
	for day := 0; day < 10; day++ {
		for u := int64(1); u <= 200; u++ {
			p := float64(u%7) + float64(day)
			rows = append(rows, dgfindex.Row{
				dgfindex.Int64(u),
				dgfindex.Int64(u%5 + 1),
				dgfindex.Time(base.AddDate(0, 0, day)),
				dgfindex.Float64(p),
			})
			if u >= 20 && u <= 120 && u%5+1 == 2 && day >= 2 && day < 6 {
				want += p
			}
		}
	}
	if err := w.LoadRowsByName("meterdata", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExecContext(context.Background(), `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_20',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, dgfindex.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := w.ExecContext(context.Background(), `SELECT sum(powerConsumed) FROM meterdata
		WHERE userId>=20 AND userId<=120 AND regionId=2
		AND ts>='2012-12-03' AND ts<'2012-12-07'`, dgfindex.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].F; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if res.Stats.AccessPath != "dgfindex(precompute)" {
		t.Errorf("access path = %s", res.Stats.AccessPath)
	}
	if res.Stats.SimTotalSec() <= 0 {
		t.Error("missing simulated cost")
	}
}

func TestWorkloadReexports(t *testing.T) {
	mc := dgfindex.DefaultMeterConfig()
	mc.Users, mc.Days = 50, 3
	if got := mc.Rows(); got != 150 {
		t.Errorf("Rows = %d", got)
	}
	if dgfindex.MeterSchema(2).Len() != 6 {
		t.Error("meter schema width wrong")
	}
	tc := dgfindex.DefaultTPCHConfig()
	if tc.Rows <= 0 {
		t.Error("tpch config empty")
	}
	if dgfindex.LineitemSchema().ColIndex("l_discount") < 0 {
		t.Error("lineitem schema missing l_discount")
	}
}

func TestNewWithConfig(t *testing.T) {
	cfg := dgfindex.DefaultCluster()
	cfg.Workers = 2
	w := dgfindex.NewWithConfig(cfg, 1<<16)
	if _, err := w.ExecContext(context.Background(), `CREATE TABLE t (x bigint)`, dgfindex.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := w.ExecContext(context.Background(), `SHOW TABLES`, dgfindex.ExecOptions{})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("SHOW TABLES: %v %v", res, err)
	}
}
