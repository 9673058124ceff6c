package hive

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
)

// TestTypedMergeMatchesTextShuffle holds the map-only aggregate job — split
// tables merged once it ends, the shuffle priced from them — to the
// reference, which still runs the text shuffle and its reducers: every
// aggregate shape of TestQueryStatsGolden, aggregate joins, a bigint SUM and
// a string key, both formats, every access path, at scale factor 1 and above.
// The shuffle's pairs, bytes, reduce tasks and simulated seconds must be
// bit-identical, and so must the answers, also when the splits run last
// first: a group's partials merge in the order the shuffle would hand them
// over. Among the plans are precompute hits that read no boundary slice,
// whose job has no split and still prices its reducers.
func TestTypedMergeMatchesTextShuffle(t *testing.T) {
	shapes := []string{
		`SELECT t2.userName, sum(t1.powerConsumed), count(*), max(t1.userId) FROM %s t1 JOIN userInfo t2 ON t1.userId=t2.userId
			WHERE t1.regionId>=2 AND t2.userName>='user-10' GROUP BY t2.userName`,
		`SELECT avg(t1.powerConsumed), min(t1.ts), count(*) FROM %s t1 JOIN userInfo t2 ON t1.userId=t2.userId WHERE t1.ts<'2012-12-05'`,
		`SELECT vendor, sum(userId), max(powerConsumed), count(*) FROM %s WHERE ts>='2012-12-02' GROUP BY vendor`,
		`SELECT sum(powerConsumed), count(*) FROM %s WHERE regionId>=2 AND regionId<=3`,
	}
	for _, s := range goldenShapes {
		if s.name != "project" && s.name != "join" && s.name != "ne" {
			shapes = append(shapes, s.sql)
		}
	}
	hitsWithoutSlices := 0
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		w := goldenWarehouse(t, stored)
		base := w.Cluster
		for _, scale := range []float64{1, 40} {
			w.Cluster = base.Scaled(scale)
			for _, path := range goldenPaths {
				for _, shape := range shapes {
					sql := fmt.Sprintf(shape, path.table)
					name := fmt.Sprintf("%s/x%g/%s: %q", stored, scale, path.name, strings.Join(strings.Fields(sql), " "))
					stmt := mustParseSelect(t, sql)
					p, err := prepareSelect(w, stmt, path.opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if p.done {
						continue // the aggregate-index rewrite runs no job
					}
					got, _, agg, err := w.runQueryJob(context.Background(), p, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					ref, want, err := refSelect(w, stmt, path.opts)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if got.ShufflePairs != want.ShufflePairs || got.ShuffleBytes != want.ShuffleBytes || got.ReduceTasks != want.ReduceTasks ||
						got.SimShuffleSec != want.SimShuffleSec || got.SimReduceSec != want.SimReduceSec {
						t.Errorf("%s: priced pairs=%d bytes=%d reducers=%d shuffle=%v reduce=%v, the text shuffle ran pairs=%d bytes=%d reducers=%d shuffle=%v reduce=%v",
							name, got.ShufflePairs, got.ShuffleBytes, got.ReduceTasks, got.SimShuffleSec, got.SimReduceSec,
							want.ShufflePairs, want.ShuffleBytes, want.ReduceTasks, want.SimShuffleSec, want.SimReduceSec)
					}
					if want.ReduceTasks == 0 {
						t.Errorf("%s: no reduce task priced", name)
					}
					if got, want := renderExact(agg.Finalize()), renderExact(ref.Rows); got != want {
						t.Errorf("%s: answers differ\ntyped:\n%stext shuffle:\n%s", name, got, want)
					}
					p.input = reversedSplits{p.input}
					_, _, rev, err := w.runQueryJob(context.Background(), p, nil)
					if err != nil {
						t.Fatalf("%s: splits run last first: %v", name, err)
					}
					if got := renderExact(rev.Finalize()); got != renderExact(ref.Rows) {
						t.Errorf("%s: splits run last first, the answer is\n%s", name, got)
					}
					if p.plan != nil && p.plan.Aggregation && got.Splits == 0 {
						hitsWithoutSlices++
					}
				}
			}
		}
	}
	if hitsWithoutSlices == 0 {
		t.Error("no precompute hit without a boundary slice among the plans")
	}
}

// TestQueryPricedFromLedger holds a query's simulated seconds to its ledger
// priced once: the work declared by hand — each split of the bound job's
// input as a reader reads it, the scalar aggregate's one reducer with the
// pairs and bytes the stats report, the plan's key-value reads and the join
// side's bytes — prices, through the paper's stacked-bar split, to the
// IndexSimSec and DataSimSec the query reports, bit for bit, on the scan,
// DGFIndex and Compact paths of a join aggregate (the Compact path's index
// scan job added to the index part), both formats, at scale factor 1 and
// above. A site that charged any part a second time, or on its
// own, would move one of the two.
func TestQueryPricedFromLedger(t *testing.T) {
	const sql = `SELECT sum(t1.powerConsumed), count(*) FROM %s t1 JOIN userInfo t2 ON t1.userId=t2.userId
		WHERE t1.regionId>=2 AND t1.regionId<=3 AND t1.userId>=5 AND t1.userId<=30 AND t1.ts>='2012-12-02' AND t1.ts<'2012-12-05'`
	var seeks, gets int64
	for _, stored := range []string{"TEXTFILE", "RCFILE"} {
		w := goldenWarehouse(t, stored)
		base := w.Cluster
		for _, scale := range []float64{1, 40} {
			w.Cluster = base.Scaled(scale)
			for _, table := range []string{"g_scan", "g_dgf", "g_compact"} {
				name := fmt.Sprintf("%s/x%g/%s", stored, scale, table)
				p, err := prepareSelect(w, mustParseSelect(t, fmt.Sprintf(sql, table)), ExecOptions{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				hand := &cluster.Ledger{Jobs: 1, SideBytes: p.sideBytes}
				if p.plan != nil {
					hand.KV = p.plan.KV
				}
				var read cluster.MapTask
				splits, err := p.input.Splits()
				if err != nil {
					t.Fatal(err)
				}
				for _, split := range splits {
					r, err := p.input.Open(split)
					if err != nil {
						t.Fatal(err)
					}
					var task cluster.MapTask
					for {
						rec, ok, err := r.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						task.Records += int64(len(rec.Batch.Sel()))
					}
					task.Bytes, task.Seeks = r.BytesRead(), r.Seeks()
					hand.Maps = append(hand.Maps, task)
					read.Bytes, read.Records, read.Seeks = read.Bytes+task.Bytes, read.Records+task.Records, read.Seeks+task.Seeks
				}
				var indexSec float64 // the index scan a hive index runs, a job of its own
				if p.path == pathHiveIndex {
					fr, err := p.ix.Filter(context.Background(), w.Cluster, w.FS, p.indexFiles, p.q.leftRanges)
					if err != nil {
						t.Fatal(err)
					}
					indexSec = fr.ScanStats.SimTotalSec()
				}
				pr, err := w.runPreparedSelect(context.Background(), p, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				st := pr.Stats
				if st.RecordsRead != read.Records || st.BytesRead != read.Bytes+p.sideBytes || st.Seeks != read.Seeks || st.ShufflePairs == 0 {
					t.Fatalf("%s: stats read %d records, %d bytes, %d seeks, %d shuffle pairs; declared %+v and a %d-byte side",
						name, st.RecordsRead, st.BytesRead, st.Seeks, st.ShufflePairs, read, p.sideBytes)
				}
				hand.Reduces = []cluster.ReduceTask{{Pairs: st.ShufflePairs, Bytes: st.ShuffleBytes, Groups: 1}}
				b := w.Cluster.Price(hand)
				wantIndex := indexSec + (b.KV + b.Startup)
				wantData := b.Startup + b.Map + b.Shuffle + b.Reduce - b.Startup + b.Side
				if st.IndexSimSec != wantIndex || st.DataSimSec != wantData {
					t.Errorf("%s: index %v s, data %v s; the declared ledger prices to %v s and %v s (%+v)",
						name, st.IndexSimSec, st.DataSimSec, wantIndex, wantData, b)
				}
				seeks += read.Seeks
				gets += hand.KV.Gets
			}
		}
	}
	if seeks == 0 || gets == 0 {
		t.Errorf("the plans made %d seeks and %d key-value gets, want some of each", seeks, gets)
	}
}
