// Command smartgrid replays the Zhejiang-grid scenario that motivates the
// paper: a month of smart-meter readings, a DGFIndex over (regionId, userId,
// collection time) with pre-computed sum/count, and the four query families
// of Section 5.3 — aggregation (Listing 4), group-by (Listing 5), join with
// the archive table (Listing 6) and a partially specified query (Listing 7).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

func main() {
	ctx := context.Background()
	users := flag.Int("users", 5000, "number of smart meters")
	days := flag.Int("days", 30, "collection days")
	flag.Parse()

	// Treat the generated sample as a slice of the paper's 1 TB deployment:
	// simulated times then land in the paper's range instead of being
	// dominated by fixed job overhead.
	w := dgfindex.NewWithConfig(dgfindex.DefaultCluster().Scaled(500000), 2<<20)
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = *users
	cfg.Days = *days
	cfg.OtherMetrics = 2

	fmt.Printf("generating %d meter readings (%d users x %d days)...\n", cfg.Rows(), cfg.Users, cfg.Days)
	must(w.ExecContext(ctx, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double, pate1 double, pate2 double)`, dgfindex.ExecOptions{}))
	if err := w.LoadRowsByName("meterdata", cfg.AllRows()); err != nil {
		log.Fatal(err)
	}
	must(w.ExecContext(ctx, `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`, dgfindex.ExecOptions{}))
	if err := w.LoadRowsByName("userInfo", cfg.UserInfoRows()); err != nil {
		log.Fatal(err)
	}

	interval := cfg.Users / 100
	if interval < 1 {
		interval = 1
	}
	res := must(w.ExecContext(ctx, fmt.Sprintf(`CREATE INDEX idx_meter ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_%d',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, interval), dgfindex.ExecOptions{}))
	fmt.Println(res.Message)

	queries := []struct{ title, sql string }{
		{"Listing 4 — aggregation MDRQ (uses pre-computed headers)",
			`SELECT sum(powerConsumed), count(*) FROM meterdata
			 WHERE regionId>=3 AND regionId<=7 AND userId>=500 AND userId<=2500
			 AND ts>='2012-12-05' AND ts<'2012-12-20'`},
		{"ad hoc — average consumption for a user range and date range",
			`SELECT avg(powerConsumed) FROM meterdata
			 WHERE userId>=100 AND userId<=1000 AND ts>='2012-12-01' AND ts<'2012-12-15'`},
		{"Listing 5 — daily totals (group-by; slice skipping, no headers)",
			`SELECT ts, sum(powerConsumed) FROM meterdata
			 WHERE regionId>=3 AND regionId<=7 AND userId>=500 AND userId<=2500
			 AND ts>='2012-12-05' AND ts<'2012-12-12' GROUP BY ts`},
		{"Listing 6 — join with the archive table",
			`INSERT OVERWRITE DIRECTORY '/tmp/result'
			 SELECT t2.userName, t1.powerConsumed FROM meterdata t1 JOIN userInfo t2
			 ON t1.userId=t2.userId
			 WHERE t1.regionId>=3 AND t1.regionId<=4 AND t1.userId>=500 AND t1.userId<=600
			 AND t1.ts>='2012-12-05' AND t1.ts<'2012-12-07'`},
		{"Listing 7 — partially specified query (userId unconstrained)",
			fmt.Sprintf(`SELECT SUM(powerConsumed) FROM meterdata WHERE regionId=11 AND ts>='%s' AND ts<'%s'`,
				cfg.Start.AddDate(0, 0, cfg.Days-1).Format("2006-01-02"),
				cfg.Start.AddDate(0, 0, cfg.Days).Format("2006-01-02"))},
	}
	for _, q := range queries {
		fmt.Printf("\n--- %s ---\n", q.title)
		res := must(w.ExecContext(ctx, q.sql, dgfindex.ExecOptions{}))
		for i, row := range res.Rows {
			if i == 5 {
				fmt.Printf("  ... (%d more rows)\n", len(res.Rows)-5)
				break
			}
			fmt.Print("  ")
			for j, v := range row {
				if j > 0 {
					fmt.Print(" | ")
				}
				fmt.Print(v.String())
			}
			fmt.Println()
		}
		st := res.Stats
		fmt.Printf("  [%s] sim %.1fs (index+other %.1fs, data %.1fs); %d records, %d splits, %d seeks\n",
			st.AccessPath, st.SimTotalSec(), st.IndexSimSec, st.DataSimSec,
			st.RecordsRead, st.Splits, st.Seeks)
	}
}

func must(res *dgfindex.Result, err error) *dgfindex.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
