package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/localdb"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

func init() {
	register(Experiment{ID: "fig3", Title: "DBMS-X vs HDFS write throughput", PaperRef: "Figure 3", Run: expFig3})
	register(Experiment{ID: "namenode", Title: "Partition directories vs NameNode memory", PaperRef: "Section 2.2", Run: expNameNode})
	register(Experiment{ID: "ablation-precompute", Title: "Pre-computation ablation: cost vs selectivity", PaperRef: "DESIGN.md ablation 1", Run: expAblationPrecompute})
	register(Experiment{ID: "ablation-sliceskip", Title: "Slice-skipping ablation", PaperRef: "DESIGN.md ablation 2", Run: expAblationSliceSkip})
	register(Experiment{ID: "ablation-kvstore", Title: "KV-store vs index-table storage for GFU pairs", PaperRef: "DESIGN.md ablation 4", Run: expAblationKVStore})
}

// --- Figure 3 ---

func expFig3(e *Env) (*Report, error) {
	cfg := workload.MeterConfig{
		Users: 5000, Regions: 11, Days: 2, ReadingsPerDay: 1,
		OtherMetrics: e.Scale.OtherMetrics,
		Start:        time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC),
		Seed:         3,
	}
	rows := cfg.AllRows()
	var bytes int64
	for _, r := range rows {
		bytes += int64(len(storage.EncodeTextRow(r)) + 1)
	}
	model := localdb.DefaultWriteModel()
	withIdx := model.InsertSeconds(int64(len(rows)), bytes, true)
	withoutIdx := model.InsertSeconds(int64(len(rows)), bytes, false)
	mb := float64(bytes) / (1 << 20)

	// HDFS append: executed for real, priced at the device write bandwidth
	// of the pipeline (appends bypass all index maintenance).
	fs := dfs.New(e.Scale.BlockSize)
	w, err := fs.Create("/ingest/meter-period-0")
	if err != nil {
		return nil, err
	}
	tw := storage.NewTextWriter(w)
	wallStart := time.Now()
	for _, row := range rows {
		if err := tw.WriteRow(row); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	wall := time.Since(wallStart)
	hdfsMBps := e.Base.DiskMBps // pipelined appends run at device speed

	r := &Report{ID: "fig3", Title: "DBMS-X vs HDFS write throughput", PaperRef: "Figure 3",
		Header: []string{"system", "modelled MB/s", "paper relation"}}
	r.AddRow("DBMS-X with index", fmt.Sprintf("%.1f", mb/withIdx), "slowest (~2)")
	r.AddRow("DBMS-X without index", fmt.Sprintf("%.1f", mb/withoutIdx), "middle (~6)")
	r.AddRow("HDFS", fmt.Sprintf("%.1f", hdfsMBps), "fastest (~50)")
	r.Notef("ordering with-index < without-index << HDFS reproduces the paper's log-scale Figure 3; local in-process append ran at %.0f MB/s wall speed", mb/wall.Seconds())
	return r, nil
}

// --- NameNode memory (the partition argument of Section 2.2) ---

func expNameNode(e *Env) (*Report, error) {
	fs := dfs.New(e.Scale.BlockSize)
	// Build a 3-dimensional partition layout with 20 values per dimension.
	const vals = 20
	for a := 0; a < vals; a++ {
		for b := 0; b < vals; b++ {
			for c := 0; c < vals; c++ {
				if err := fs.MkdirAll(fmt.Sprintf("/part/a=%d/b=%d/c=%d", a, b, c)); err != nil {
					return nil, err
				}
			}
		}
	}
	st := fs.NameNodeUsage()
	r := &Report{ID: "namenode", Title: "Partition directories vs NameNode memory", PaperRef: "Section 2.2",
		Header: []string{"layout", "directories", "NameNode memory"}}
	r.AddRow(fmt.Sprintf("3 dims x %d values (built)", vals), count(int64(st.Dirs)), bytesHuman(st.MemoryBytes))
	// The paper's example: 3 dims x 100 values = 1M leaf directories.
	analytic := int64(1+100+100*100+100*100*100) * dfs.NameNodeBytesPerObject
	r.AddRow("3 dims x 100 values (analytic)", count(1_010_101), bytesHuman(analytic))
	r.Notef("paper cites ~143MB of NameNode heap for 1M partition directories at 150 B/object — multidimensional partitioning does not scale, motivating an index instead")
	return r, nil
}

// --- Ablations ---

func expAblationPrecompute(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ablation-precompute", Title: "Pre-computation ablation: cost vs selectivity", PaperRef: "DESIGN.md ablation 1",
		Header: []string{"selectivity", "with precompute (s)", "records", "without precompute (s)", "records"}}
	for _, frac := range []float64{0.01, 0.03, 0.05, 0.08, 0.12, 0.20} {
		q := m.cfg.Selective(frac)
		sql := aggSQL(q)
		with, err := m.WM.ExecContext(context.Background(), sql, hive.ExecOptions{})
		if err != nil {
			return nil, err
		}
		without, err := m.WM.ExecContext(context.Background(), sql, hive.ExecOptions{DisablePrecompute: true})
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			secs(with.Stats.SimTotalSec()), count(with.Stats.RecordsRead),
			secs(without.Stats.SimTotalSec()), count(without.Stats.RecordsRead))
	}
	r.Notef("with pre-computation the aggregation cost stays nearly flat as selectivity grows (only the boundary is scanned); without it the cost tracks the query volume — the effect behind Figures 8-10")
	return r, nil
}

func expAblationSliceSkip(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	q := m.cfg.Selective(0.05)
	sql := groupBySQL(q)
	r := &Report{ID: "ablation-sliceskip", Title: "Slice-skipping ablation (5% group-by)", PaperRef: "DESIGN.md ablation 2",
		Header: []string{"mode", "total (s)", "records read", "bytes read", "seeks"}}
	normal, err := m.WM.ExecContext(context.Background(), sql, hive.ExecOptions{})
	if err != nil {
		return nil, err
	}
	noskip, err := m.WM.ExecContext(context.Background(), sql, hive.ExecOptions{DisableSliceSkip: true})
	if err != nil {
		return nil, err
	}
	r.AddRow("slice skipping (paper)", secs(normal.Stats.SimTotalSec()), count(normal.Stats.RecordsRead),
		bytesHuman(normal.Stats.BytesRead), fmt.Sprint(normal.Stats.Seeks))
	r.AddRow("whole chosen splits", secs(noskip.Stats.SimTotalSec()), count(noskip.Stats.RecordsRead),
		bytesHuman(noskip.Stats.BytesRead), fmt.Sprint(noskip.Stats.Seeks))
	r.Notef("sub-split Slice filtering is what separates DGFIndex from split-granularity indexes (paper Section 4.3 step 3): same chosen splits, far fewer records delivered to mappers")
	return r, nil
}

func expAblationKVStore(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ablation-kvstore", Title: "KV-store vs index-table storage for GFU pairs", PaperRef: "DESIGN.md ablation 4",
		Header: []string{"variant", "query", "index access (s)"}}
	for _, v := range m.dgfVariants() {
		t, _ := v.W.Table("meterdata")
		ixSize := t.Dgf.SizeBytes()
		entries := int64(t.Dgf.Entries())
		// The alternative: the pairs stored as a Hive table and scanned in
		// full, like a Compact index table, before every query — one map
		// task over the pairs. The pairs are not table data, so their volume
		// is priced unscaled.
		scan := &cluster.Ledger{Maps: []cluster.MapTask{{Bytes: ixSize, Records: entries}}}
		scanSec := v.W.Cluster.Scaled(1).Price(scan).Map
		for _, k := range []selKind{selPoint, sel5} {
			// The query's key-value component is its plan's ledger entry.
			plan, err := t.Dgf.Plan(v.W.Cluster, m.query(k).Ranges(), nil, dgf.PlanOptions{})
			if err != nil {
				return nil, err
			}
			kvSec := v.W.Cluster.Price(&cluster.Ledger{KV: plan.KV}).KV
			r.AddRow("KV store, DGF-"+v.Name, k.String(), secs(kvSec))
			r.AddRow("index table scan, DGF-"+v.Name, k.String(), secs(scanSec))
		}
	}
	r.Notef("storing GFU pairs in a key-value store lets a query fetch only the region's keys; a table-backed index must be scanned in full first (what Hive's own indexes do) — the paper's Section 4.1 design choice")
	return r, nil
}
