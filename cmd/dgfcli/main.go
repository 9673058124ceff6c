// Command dgfcli is an interactive HiveQL shell against an in-process
// warehouse, in the spirit of the Hive CLI the paper's operators used.
//
// Start with -demo to preload a month of generated meter data with a
// DGFIndex, then explore:
//
//	dgf> SELECT sum(powerConsumed) FROM meterdata
//	     WHERE regionId>=3 AND regionId<=7 AND userId>=100 AND userId<=4000
//	     AND ts>='2012-12-05' AND ts<'2012-12-20';
//
// Statements may span lines and end with ';'. Commands: !stats toggles the
// per-query cost report, !quit exits. TRACE SELECT ... (or the -trace flag,
// which applies it to every SELECT) prints the query's span tree — admission,
// plan, scatter, per-shard execution — instead of its rows.
//
// Queries run under a cancellable context: Ctrl-C aborts the in-flight
// statement at its next split boundary and reports the partial scan stats
// (records, splits) instead of killing the shell, and -timeout bounds every
// statement the same way. SELECT rows stream as the scan produces them.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

func main() {
	demo := flag.Bool("demo", false, "preload generated meter data with a DGFIndex")
	demoUsers := flag.Int("demo-users", 2000, "users in the demo dataset")
	timeout := flag.Duration("timeout", 0, "per-statement deadline (0 = none); an expired deadline aborts the scan")
	traceAll := flag.Bool("trace", false, "print the span tree instead of rows for every SELECT (same as prefixing TRACE)")
	flag.Parse()

	w := dgfindex.NewWithConfig(dgfindex.DefaultCluster().Scaled(500000), 2<<20)
	if *demo {
		if err := loadDemo(w, *demoUsers); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("dgfcli — HiveQL subset with DGFIndex (end statements with ';', !quit exits)")
	showStats := true
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("dgf> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "!quit", "!q", "exit", "quit":
			return
		case "!stats":
			showStats = !showStats
			fmt.Printf("stats output %v\n", showStats)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		// Execute every completed statement; anything after the final ';'
		// stays buffered.
		pending := buf.String()
		buf.Reset()
		last := strings.LastIndexByte(pending, ';')
		for _, stmt := range strings.Split(pending[:last], ";") {
			if sql := strings.TrimSpace(stmt); sql != "" {
				run(w, sql, showStats, *timeout, *traceAll)
			}
		}
		if rest := strings.TrimSpace(pending[last+1:]); rest != "" {
			buf.WriteString(rest)
			buf.WriteByte('\n')
		}
		prompt()
	}
}

// run executes one statement under a cancellable context: SIGINT (and the
// -timeout deadline) aborts the scan at its next split boundary. SELECTs
// stream through a cursor so rows appear as splits complete and a cancelled
// query still reports how far it got.
func run(w *dgfindex.Warehouse, sql string, showStats bool, timeout time.Duration, traceAll bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	stmt, err := dgfindex.ParseSQL(sql)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	if sel, ok := stmt.(*dgfindex.SelectStmt); ok && sel.InsertDir == "" {
		if traceAll {
			// -trace turns every plain SELECT into its TRACE twin: run the
			// query, print the span tree instead of the rows.
			stmt = &dgfindex.TraceStmt{Select: sel}
		} else {
			runSelect(ctx, w, sel, showStats)
			return
		}
	}

	res, err := w.ExecParsedContext(ctx, stmt, dgfindex.ExecOptions{})
	if err != nil {
		reportError(err)
		return
	}
	if res.Message != "" {
		fmt.Println(res.Message)
	}
	printRows(res.Columns, res.Rows)
	printStats(showStats, res.Stats)
}

// runSelect streams the rows of one SELECT and, on Ctrl-C or a missed
// deadline, prints the partial scan stats instead of dying silently.
func runSelect(ctx context.Context, w *dgfindex.Warehouse, sel *dgfindex.SelectStmt, showStats bool) {
	cur, err := w.SelectCursor(ctx, sel, dgfindex.ExecOptions{})
	if err != nil {
		reportError(err)
		return
	}
	defer cur.Close()
	fmt.Println(strings.Join(cur.Columns(), "\t"))
	shown := 0
	total := 0
	for cur.Next() {
		total++
		if shown < 40 {
			row := cur.Row()
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			fmt.Println(strings.Join(cells, "\t"))
			shown++
		}
	}
	if total > shown {
		fmt.Printf("... (%d more rows)\n", total-shown)
	}
	stats := cur.Stats()
	if err := cur.Err(); err != nil {
		reportError(err)
		fmt.Printf("-- partial scan before abort: %d records, %d splits, %d rows delivered\n",
			stats.RecordsRead, stats.Splits, total)
	}
	printStats(showStats, stats)
}

func reportError(err error) {
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Println("-- query canceled (Ctrl-C)")
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Println("-- query deadline exceeded (-timeout)")
	default:
		fmt.Printf("error: %v\n", err)
	}
}

func printRows(cols []string, rows []dgfindex.Row) {
	if len(cols) > 0 {
		fmt.Println(strings.Join(cols, "\t"))
	}
	for i, row := range rows {
		if i == 40 {
			fmt.Printf("... (%d more rows)\n", len(rows)-40)
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}

func printStats(showStats bool, st dgfindex.QueryStats) {
	if !showStats || st.AccessPath == "" {
		return
	}
	fmt.Printf("-- [%s] sim %.1fs (index+other %.1fs, data %.1fs), %d records, %d splits, wall %v\n",
		st.AccessPath, st.SimTotalSec(), st.IndexSimSec, st.DataSimSec,
		st.RecordsRead, st.Splits, st.Wall.Round(1e6))
}

func loadDemo(w *dgfindex.Warehouse, users int) error {
	ctx := context.Background()
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = users
	cfg.OtherMetrics = 2
	fmt.Printf("loading demo: %d meter readings across %d days...\n", cfg.Rows(), cfg.Days)
	if _, err := w.ExecContext(ctx, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double, pate1 double, pate2 double)`, dgfindex.ExecOptions{}); err != nil {
		return err
	}
	if err := w.LoadRowsByName("meterdata", cfg.AllRows()); err != nil {
		return err
	}
	if _, err := w.ExecContext(ctx, `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`, dgfindex.ExecOptions{}); err != nil {
		return err
	}
	if err := w.LoadRowsByName("userInfo", cfg.UserInfoRows()); err != nil {
		return err
	}
	interval := users / 100
	if interval < 1 {
		interval = 1
	}
	res, err := w.ExecContext(ctx, fmt.Sprintf(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_%d',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, interval), dgfindex.ExecOptions{})
	if err != nil {
		return err
	}
	fmt.Println(res.Message)
	return nil
}
