// Command streamingload demonstrates the property Section 4.2 of the paper
// highlights: because the collection timestamp is a default index dimension,
// newly collected meter data only EXTENDS the grid — the index is never
// rebuilt, so write throughput is unaffected by its existence.
//
// The program loads a base week of readings, builds the DGFIndex, then
// appends day after day through the warehouse (which routes loads through
// the index's append pipeline), querying across old and new days as it goes.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

func main() {
	ctx := context.Background()
	w := dgfindex.New()
	must(w.ExecContext(ctx, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double, pate1 double, pate2 double)`, dgfindex.ExecOptions{}))

	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = 2000
	cfg.OtherMetrics = 2

	// Base load: the first 7 days.
	base := cfg
	base.Days = 7
	fmt.Printf("loading base week: %d readings\n", base.Rows())
	if err := w.LoadRowsByName("meterdata", base.AllRows()); err != nil {
		log.Fatal(err)
	}
	res := must(w.ExecContext(ctx, `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_50',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, dgfindex.ExecOptions{}))
	fmt.Println(res.Message)

	countSQL := `SELECT count(*) FROM meterdata`
	fmt.Printf("records indexed: %v\n\n", must(w.ExecContext(ctx, countSQL, dgfindex.ExecOptions{})).Rows[0][0].AsInt())

	// Streaming phase: each new day arrives, is verified, and is appended.
	// Loading through the warehouse runs the DGFIndex construction job on
	// just the new files; existing GFU pairs are untouched because the new
	// day occupies new time cells.
	for day := 7; day < 14; day++ {
		dayCfg := cfg
		dayCfg.Days = 1
		dayCfg.Start = cfg.Start.AddDate(0, 0, day)
		dayCfg.Seed = cfg.Seed + int64(day)
		rows := dayCfg.AllRows()
		start := time.Now()
		if err := w.LoadRowsByName("meterdata", rows); err != nil {
			log.Fatal(err)
		}
		date := dayCfg.Start.Format("2006-01-02")
		fmt.Printf("appended %s: %5d readings in %v (no rebuild)\n",
			date, len(rows), time.Since(start).Round(time.Millisecond))

		// A rolling three-day window query spanning old and new data.
		if day >= 9 {
			from := cfg.Start.AddDate(0, 0, day-2).Format("2006-01-02")
			to := cfg.Start.AddDate(0, 0, day+1).Format("2006-01-02")
			sql := fmt.Sprintf(`SELECT sum(powerConsumed), count(*) FROM meterdata
				WHERE regionId>=2 AND regionId<=5 AND userId>=100 AND userId<=900
				AND ts>='%s' AND ts<'%s'`, from, to)
			r := must(w.ExecContext(ctx, sql, dgfindex.ExecOptions{}))
			fmt.Printf("  window [%s, %s): sum=%.1f over %v readings  [%s, %.1fs sim]\n",
				from, to, r.Rows[0][0].F, r.Rows[0][1].AsInt(),
				r.Stats.AccessPath, r.Stats.SimTotalSec())
		}
	}

	total := must(w.ExecContext(ctx, countSQL, dgfindex.ExecOptions{})).Rows[0][0].AsInt()
	fmt.Printf("\nfinal record count: %d (base %d + 7 appended days)\n", total, base.Rows())
}

func must(res *dgfindex.Result, err error) *dgfindex.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
