package bench

import (
	"context"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/hiveindex"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

func init() {
	register(Experiment{ID: "tab5", Title: "TPC-H index size and construction time", PaperRef: "Table 5", Run: expTab5})
	register(Experiment{ID: "tab6", Title: "TPC-H records read (Q6)", PaperRef: "Table 6", Run: expTab6})
	register(Experiment{ID: "fig18", Title: "TPC-H Q6 query time", PaperRef: "Figure 18", Run: expFig18})
}

func expTab5(e *Env) (*Report, error) {
	t, err := e.TPCH()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "tab5", Title: "TPC-H index size and construction time", PaperRef: "Table 5",
		Header: []string{"index", "table type", "dims", "size", "build sim-s", "paper size", "paper time"}}
	r.AddRow("Compact", "RCFile", "3", bytesHuman(t.compact3.SizeBytes(t.WC.FS)), secs(t.c3Sec), "189GB", "7367s")
	r.AddRow("Compact", "RCFile", "2", bytesHuman(t.compact2.SizeBytes(t.WC.FS)), secs(t.c2Sec), "637MB", "991s")
	r.AddRow("DGFIndex", "TextFile", "3", bytesHuman(t.dgfBuild.IndexBytes), secs(t.dgfBuild.SimTotalSec()), "4.3MB", "10997s")
	lt, _ := t.WC.Table("lineitem")
	r.Notef("RCFile lineitem base table is %s; the 3-dim Compact index approaches it in size, the DGF index stays KB-MB scale",
		bytesHuman(t.WC.TableSizeBytes(lt)))
	return r, nil
}

// q6OnCompact runs Q6 through a specific Compact index via the index API (the
// SQL planner would always pick the most selective index, but Figure 18
// compares both widths).
func q6OnCompact(t *tpchEnv, ix *hiveindex.Index) (indexSec, dataSec float64, records int64, err error) {
	files, err := ix.Files(t.WC.FS)
	if err != nil {
		return 0, 0, 0, err
	}
	fr, err := ix.Filter(context.Background(), t.WC.Cluster, t.WC.FS, files, workload.Q6Ranges())
	if err != nil {
		return 0, 0, 0, err
	}
	// The table reports what the chosen splits cost to read; the reader
	// decodes and counts every row, so the map task has nothing to add.
	stats, err := mapreduce.RunContext(context.Background(), t.WC.Cluster, &mapreduce.Job{
		Name:  "q6-" + ix.Name,
		Input: ix.BaseInput(t.WC.FS, fr),
		Map:   func(mapreduce.Record, mapreduce.Emit) error { return nil },
	})
	if err != nil {
		return 0, 0, 0, err
	}
	indexSec = fr.ScanStats.SimTotalSec() + stats.SimStartupSec
	dataSec = stats.SimTotalSec() - stats.SimStartupSec
	return indexSec, dataSec, stats.InputRecords, nil
}

func expTab6(e *Env) (*Report, error) {
	t, err := e.TPCH()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "tab6", Title: "TPC-H records read (Q6)", PaperRef: "Table 6",
		Header: []string{"index", "records read", "paper"}}

	res, err := t.WC.ExecContext(context.Background(), workload.Q6SQL, hive.ExecOptions{DisableIndexes: true})
	if err != nil {
		return nil, err
	}
	r.AddRow("Whole Table", count(res.Stats.RecordsRead), "4.10G")

	_, _, rec3, err := q6OnCompact(t, t.compact3)
	if err != nil {
		return nil, err
	}
	r.AddRow("Compact-3", count(rec3), "4.10G")
	_, _, rec2, err := q6OnCompact(t, t.compact2)
	if err != nil {
		return nil, err
	}
	r.AddRow("Compact-2", count(rec2), "4.10G")

	// DGFIndex path: the paper's Q6 run reads all query-related GFUs
	// (Table 6 reads slightly more than the accurate set), so the
	// pre-computed product header is disabled here; the ablation
	// experiment shows the header-assisted variant.
	resDgf, err := t.WDgf.ExecContext(context.Background(), workload.Q6SQL, hive.ExecOptions{DisablePrecompute: true})
	if err != nil {
		return nil, err
	}
	r.AddRow("DGFIndex", count(resDgf.Stats.RecordsRead), "85.4M")

	var accurate int64
	for _, row := range t.rows {
		if workload.Q6Matches(row) {
			accurate++
		}
	}
	r.AddRow("Accurate", count(accurate), "78.0M")
	r.Notef("lineitem rows are uniformly scattered, so Compact filters nothing (every split contains every dimension combination) — the paper's Section 5.4 finding")
	return r, nil
}

func expFig18(e *Env) (*Report, error) {
	t, err := e.TPCH()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig18", Title: "TPC-H Q6 query time", PaperRef: "Figure 18",
		Header: []string{"system", "read index+other (s)", "read data+process (s)", "total (s)", "records", "vs scan"}}

	// The scan baseline reads the RCFile copy — the same bytes the Compact
	// variants scan — so the paper's "Compact slower than scanning" result
	// is measured on equal footing.
	resScan, err := t.WC.ExecContext(context.Background(), workload.Q6SQL, hive.ExecOptions{DisableIndexes: true})
	if err != nil {
		return nil, err
	}
	scanSec := resScan.Stats.SimTotalSec()
	r.AddRow("ScanTable", secs(resScan.Stats.IndexSimSec), secs(resScan.Stats.DataSimSec), secs(scanSec),
		count(resScan.Stats.RecordsRead), "1.0x")

	resDgf, err := t.WDgf.ExecContext(context.Background(), workload.Q6SQL, hive.ExecOptions{DisablePrecompute: true})
	if err != nil {
		return nil, err
	}
	addQueryRow(r, "DGFIndex", resDgf, scanSec)

	i2, d2, rec2, err := q6OnCompact(t, t.compact2)
	if err != nil {
		return nil, err
	}
	r.AddRow("Compact-2D", secs(i2), secs(d2), secs(i2+d2), count(rec2), speedup(scanSec, i2+d2))
	i3, d3, rec3, err := q6OnCompact(t, t.compact3)
	if err != nil {
		return nil, err
	}
	r.AddRow("Compact-3D", secs(i3), secs(d3), secs(i3+d3), count(rec3), speedup(scanSec, i3+d3))
	r.Notef("paper: scan 632 s; both Compact variants SLOWER than scanning (index table scan on top of an unfiltered base scan); DGFIndex about 25x faster than Compact")
	return r, nil
}
