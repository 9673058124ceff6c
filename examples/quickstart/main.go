// Command quickstart is the smallest end-to-end DGFIndex walk-through: it
// creates a table, loads the worked example of the paper's Figures 5-7
// (dimensions A and B with splitting policy A=1_3, B=11_2), builds the
// index, and runs the multidimensional range query of Listing 2.
package main

import (
	"context"
	"fmt"
	"log"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

func main() {
	ctx := context.Background()
	w := dgfindex.New()

	must(w.ExecContext(ctx, `CREATE TABLE example (A bigint, B bigint, C double)`, dgfindex.ExecOptions{}))

	// The nine records of the paper's Figure 6.
	data := [][3]float64{
		{1, 14, 0.1}, {5, 18, 0.5}, {7, 12, 1.2}, {2, 11, 0.5}, {9, 14, 0.8},
		{11, 16, 1.3}, {3, 18, 0.9}, {12, 12, 0.3}, {8, 13, 0.2},
	}
	rows := make([]dgfindex.Row, len(data))
	for i, d := range data {
		rows[i] = dgfindex.Row{
			dgfindex.Int64(int64(d[0])),
			dgfindex.Int64(int64(d[1])),
			dgfindex.Float64(d[2]),
		}
	}
	if err := w.LoadRowsByName("example", rows); err != nil {
		log.Fatal(err)
	}

	// Listing 3: the index DDL with the splitting policy and the
	// pre-computed aggregation.
	res := must(w.ExecContext(ctx, `CREATE INDEX idx_a_b ON TABLE example(A, B)
		AS 'org.apache.hadoop.hive.ql.index.dgf.DgfIndexHandler'
		IDXPROPERTIES ('A'='1_3', 'B'='11_2', 'precompute'='sum(C)')`, dgfindex.ExecOptions{}))
	fmt.Println(res.Message)

	// Listing 2: the multidimensional range aggregation. The inner GFU
	// (7_13) is answered from its pre-computed header; only the boundary
	// region is scanned.
	res = must(w.ExecContext(ctx, `SELECT SUM(C) FROM example
		WHERE A>=5 AND A<12 AND B>=12 AND B<16`, dgfindex.ExecOptions{}))
	fmt.Printf("sum(C) over {5<=A<12, 12<=B<16} = %v  (expected 2.2)\n", res.Rows[0][0].F)
	fmt.Printf("access path: %s\n", res.Stats.AccessPath)
	fmt.Printf("records scanned: %d (boundary only; the inner GFU came from its header)\n",
		res.Stats.RecordsRead)
	fmt.Printf("simulated cluster time: %.2fs index+overhead, %.2fs data\n",
		res.Stats.IndexSimSec, res.Stats.DataSimSec)
}

func must(res *dgfindex.Result, err error) *dgfindex.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
