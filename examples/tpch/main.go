// Command tpch reproduces the paper's Section 5.4 TPC-H experiment in
// miniature: lineitem rows uniformly scattered across data files, a
// DGFIndex with the paper's splitting policy (discount 0.01, quantity 1.0,
// shipdate 100 days), and Q6 run three ways — full scan, DGFIndex with
// slice skipping only, and DGFIndex with the pre-computed
// sum(l_extendedprice*l_discount) headers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

const q6 = `SELECT sum(l_extendedprice*l_discount) FROM lineitem
WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
AND l_discount >= 0.05 AND l_discount <= 0.07
AND l_quantity < 24`

func main() {
	ctx := context.Background()
	rows := flag.Int("rows", 200000, "lineitem rows to generate")
	flag.Parse()

	// Scale simulated costs to the paper's 518 GB lineitem table so the
	// scan-vs-index gap shows at its real proportions.
	w := dgfindex.NewWithConfig(dgfindex.DefaultCluster().Scaled(80000), 2<<20)
	must(w.ExecContext(ctx, `CREATE TABLE lineitem (l_orderkey bigint, l_partkey bigint,
		l_suppkey bigint, l_linenumber bigint, l_quantity double,
		l_extendedprice double, l_discount double, l_tax double,
		l_shipdate timestamp, l_commitdate timestamp)`, dgfindex.ExecOptions{}))
	cfg := dgfindex.TPCHConfig{Rows: *rows, Seed: 19920101}
	fmt.Printf("generating %d lineitem rows (uniformly scattered)...\n", cfg.Rows)
	if err := w.LoadRowsByName("lineitem", cfg.AllLineitemRows()); err != nil {
		log.Fatal(err)
	}

	// Q6 against the raw table.
	scan := must(w.ExecContext(ctx, q6, dgfindex.ExecOptions{}))
	fmt.Printf("\nfull scan:          revenue=%.2f  sim=%.0fs  records=%d\n",
		scan.Rows[0][0].F, scan.Stats.SimTotalSec(), scan.Stats.RecordsRead)

	// Build the paper's DGFIndex (Section 5.4 splitting policy) with the
	// Q6 product pre-computed per GFU.
	res := must(w.ExecContext(ctx, `CREATE INDEX idx_q6 ON TABLE lineitem(l_discount, l_quantity, l_shipdate)
		AS 'dgf' IDXPROPERTIES ('l_discount'='0_0.01', 'l_quantity'='0_1',
		'l_shipdate'='1992-01-01_100d',
		'precompute'='sum(l_extendedprice*l_discount);count(*)')`, dgfindex.ExecOptions{}))
	fmt.Println(res.Message)

	// Q6 with slice skipping only (how the paper ran it: Table 6 reads all
	// query-related GFUs).
	noPre, err := w.ExecContext(ctx, q6, dgfindex.ExecOptions{DisablePrecompute: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dgf, slice skip:    revenue=%.2f  sim=%.0fs  records=%d\n",
		noPre.Rows[0][0].F, noPre.Stats.SimTotalSec(), noPre.Stats.RecordsRead)

	// Q6 with the pre-computed product headers: the inner region costs no
	// I/O at all.
	pre := must(w.ExecContext(ctx, q6, dgfindex.ExecOptions{}))
	fmt.Printf("dgf, precompute:    revenue=%.2f  sim=%.0fs  records=%d  (%s)\n",
		pre.Rows[0][0].F, pre.Stats.SimTotalSec(), pre.Stats.RecordsRead, pre.Stats.AccessPath)

	if diff := scan.Rows[0][0].F - pre.Rows[0][0].F; diff > 1e-6 || diff < -1e-6 {
		log.Fatalf("answers diverge: %v vs %v", scan.Rows[0][0].F, pre.Rows[0][0].F)
	}
	fmt.Println("\nall three strategies agree on the Q6 revenue.")
}

func must(res *dgfindex.Result, err error) *dgfindex.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
