package bench

import (
	"context"
	"fmt"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/hiveindex"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

func init() {
	register(Experiment{ID: "tab2", Title: "Index size and construction time", PaperRef: "Table 2", Run: expTab2})
	register(Experiment{ID: "tab3", Title: "Records read, aggregation query", PaperRef: "Table 3", Run: expTab3})
	register(Experiment{ID: "fig8", Title: "Aggregation query time, point", PaperRef: "Figure 8", Run: figAgg("fig8", "Figure 8", selPoint)})
	register(Experiment{ID: "fig9", Title: "Aggregation query time, 5% selectivity", PaperRef: "Figure 9", Run: figAgg("fig9", "Figure 9", sel5)})
	register(Experiment{ID: "fig10", Title: "Aggregation query time, 12% selectivity", PaperRef: "Figure 10", Run: figAgg("fig10", "Figure 10", sel12)})
	register(Experiment{ID: "tab4", Title: "Records read, group-by/join query", PaperRef: "Table 4", Run: expTab4})
	register(Experiment{ID: "fig11", Title: "Group-by query time, point", PaperRef: "Figure 11", Run: figGroupBy("fig11", "Figure 11", selPoint)})
	register(Experiment{ID: "fig12", Title: "Group-by query time, 5% selectivity", PaperRef: "Figure 12", Run: figGroupBy("fig12", "Figure 12", sel5)})
	register(Experiment{ID: "fig13", Title: "Group-by query time, 12% selectivity", PaperRef: "Figure 13", Run: figGroupBy("fig13", "Figure 13", sel12)})
	register(Experiment{ID: "fig14", Title: "Join query time, point", PaperRef: "Figure 14", Run: figJoin("fig14", "Figure 14", selPoint)})
	register(Experiment{ID: "fig15", Title: "Join query time, 5% selectivity", PaperRef: "Figure 15", Run: figJoin("fig15", "Figure 15", sel5)})
	register(Experiment{ID: "fig16", Title: "Join query time, 12% selectivity", PaperRef: "Figure 16", Run: figJoin("fig16", "Figure 16", sel12)})
	register(Experiment{ID: "fig17", Title: "Partially specified query", PaperRef: "Figure 17", Run: expFig17})
}

// selectivity selectors shared by the figure experiments.
type selKind int

const (
	selPoint selKind = iota
	sel5
	sel12
)

func (m *meterEnv) query(k selKind) workload.MeterQuery {
	switch k {
	case selPoint:
		return m.cfg.Point()
	case sel5:
		return m.cfg.Selective(0.05)
	default:
		return m.cfg.Selective(0.12)
	}
}

func (k selKind) String() string {
	switch k {
	case selPoint:
		return "point"
	case sel5:
		return "5%"
	default:
		return "12%"
	}
}

// dgfVariants iterates the three splitting policies.
func (m *meterEnv) dgfVariants() []struct {
	Name string
	W    *hive.Warehouse
} {
	return []struct {
		Name string
		W    *hive.Warehouse
	}{
		{"large", m.WL}, {"medium", m.WM}, {"small", m.WS},
	}
}

// --- Table 2 ---

func expTab2(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "tab2", Title: "Index size and construction time", PaperRef: "Table 2",
		Header: []string{"index", "table type", "dims", "size", "build sim-s", "paper size", "paper time"}}

	// Compact-3D on a throwaway RCFile copy (the paper built it once, found
	// the index table as large as the base table, and dropped it).
	w3 := hive.NewWarehouse(dfs.New(e.Scale.BlockSize), e.Base.Scaled(m.sf), "/warehouse")
	if _, err := w3.ExecContext(context.Background(), meterDDL(e.Scale.OtherMetrics, "RCFILE"), hive.ExecOptions{}); err != nil {
		return nil, err
	}
	t3, _ := w3.Table("meterdata")
	t3.RowGroupRows = e.Scale.RowGroupRows
	// Table 2 compares index sizes in the paper's unencoded RCFile layout;
	// dictionary/RLE encoding would shrink the Compact index table (sorted,
	// low-cardinality key columns) ~4x and distort the comparison against
	// the DGF index, whose KV bytes are unencoded either way.
	t3.DisableEncoding = true
	if err := w3.LoadRowsByName("meterdata", m.rows); err != nil {
		return nil, err
	}
	ix3, sec3, err := w3.BuildHiveIndexStats(t3, "c3", hiveindex.Compact,
		[]string{"userId", "regionId", "ts"}, hiveindex.RCFile)
	if err != nil {
		return nil, err
	}
	baseSize := w3.TableSizeBytes(t3)
	r.AddRow("Compact", "RCFile", "3", bytesHuman(ix3.SizeBytes(w3.FS)), secs(sec3), "821GB", "23350s")
	r.AddRow("Compact", "RCFile", "2", bytesHuman(m.compact2.SizeBytes(m.WC.FS)), secs(m.c2Sec), "7MB", "1884s")
	for _, v := range []struct{ name, key string }{{"DGF-L", "L"}, {"DGF-M", "M"}, {"DGF-S", "S"}} {
		st := m.dgfBuild[v.key]
		paperSize := map[string]string{"L": "0.94MB", "M": "3MB", "S": "13MB"}[v.key]
		paperTime := map[string]string{"L": "25816s", "M": "25632s", "S": "26027s"}[v.key]
		r.AddRow(v.name, "TextFile", "3", bytesHuman(st.IndexBytes), secs(st.SimTotalSec()), paperSize, paperTime)
	}
	r.Notef("Compact-3D index table is %.0f%% of the %s RCFile base table (paper: ~100%%); DGF index is orders of magnitude smaller",
		100*float64(ix3.SizeBytes(w3.FS))/float64(baseSize), bytesHuman(baseSize))
	r.Notef("DGF construction is slower than Compact-2D construction because the base table is reshuffled (paper Section 5.3.1)")
	return r, nil
}

// --- Table 3 ---

func expTab3(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "tab3", Title: "Records read, aggregation query", PaperRef: "Table 3",
		Header: []string{"index", "point", "5%", "12%"}}
	sels := []selKind{selPoint, sel5, sel12}

	compactCells := make([]string, 0, 3)
	dgfCells := map[string][]string{}
	accurate := make([]string, 0, 3)
	for _, k := range sels {
		q := m.query(k)
		sql := aggSQL(q)
		// Compact.
		res, err := m.WC.ExecContext(context.Background(), sql, hive.ExecOptions{})
		if err != nil {
			return nil, err
		}
		compactCells = append(compactCells, count(res.Stats.RecordsRead))
		// DGF variants.
		for _, v := range m.dgfVariants() {
			res, err := v.W.ExecContext(context.Background(), sql, hive.ExecOptions{})
			if err != nil {
				return nil, err
			}
			dgfCells[v.Name] = append(dgfCells[v.Name], count(res.Stats.RecordsRead))
		}
		// Accurate.
		var n int64
		for _, row := range m.rows {
			if q.Matches(row) {
				n++
			}
		}
		accurate = append(accurate, count(n))
	}
	r.AddRow(append([]string{"Compact-2D"}, compactCells...)...)
	r.AddRow(append([]string{"DGF-L"}, dgfCells["large"]...)...)
	r.AddRow(append([]string{"DGF-M"}, dgfCells["medium"]...)...)
	r.AddRow(append([]string{"DGF-S"}, dgfCells["small"]...)...)
	r.AddRow(append([]string{"Accurate"}, accurate...)...)
	r.Notef("paper (11G records): Compact reads 169M/4.8G/6.6G; DGF-L 4.3M/68k/100k; DGF-S 2.3M/16k/24k; accurate 26/569M/1.35G")
	r.Notef("with pre-computation DGF reads only boundary GFUs — fewer records than the accurate answer set at 5%%/12%% (as in the paper); at point selectivity there is no inner region so DGF reads whole GFUs")
	return r, nil
}

func aggSQL(q workload.MeterQuery) string {
	return "SELECT sum(powerConsumed) FROM meterdata WHERE " + q.WhereClause()
}

func groupBySQL(q workload.MeterQuery) string {
	return "SELECT ts, sum(powerConsumed) FROM meterdata WHERE " + q.WhereClause() + " GROUP BY ts"
}

func joinSQL(q workload.MeterQuery) string {
	return `INSERT OVERWRITE DIRECTORY '/tmp/result' ` +
		`SELECT t2.userName, t1.powerConsumed FROM meterdata t1 JOIN userInfo t2 ON t1.userId=t2.userId WHERE ` +
		q.WhereClause()
}

// --- Figures 8-10 (aggregation query time) ---

func figAgg(id, ref string, k selKind) func(*Env) (*Report, error) {
	return func(e *Env) (*Report, error) {
		m, err := e.Meter()
		if err != nil {
			return nil, err
		}
		q := m.query(k)
		sql := aggSQL(q)
		r := &Report{ID: id, Title: "Aggregation query time, " + k.String(), PaperRef: ref,
			Header: []string{"system", "read index+other (s)", "read data+process (s)", "total (s)", "records", "vs scan"}}

		scanSec, err := addScanRow(r, m, sql)
		if err != nil {
			return nil, err
		}
		for _, v := range m.dgfVariants() {
			res, err := v.W.ExecContext(context.Background(), sql, hive.ExecOptions{})
			if err != nil {
				return nil, err
			}
			addQueryRow(r, "DGF-"+v.Name, res, scanSec)
		}
		res, err := m.WC.ExecContext(context.Background(), sql, hive.ExecOptions{})
		if err != nil {
			return nil, err
		}
		addQueryRow(r, "Compact-2D", res, scanSec)

		_, hst, err := m.HDB.RangeAgg(q.Ranges(), "powerConsumed", nil)
		if err != nil {
			return nil, err
		}
		r.AddRow("HadoopDB", "-", "-", secs(hst.SimSeconds), count(hst.RowsExamined), speedup(scanSec, hst.SimSeconds))
		r.Notef("paper: DGF 65-78x over scan with flat cost across selectivity (pre-computation); Compact 1.7-26.6x; HadoopDB 1.3-32.2x; scan about 1950 s")
		return r, nil
	}
}

func addScanRow(r *Report, m *meterEnv, sql string) (float64, error) {
	res, err := m.WScan.ExecContext(context.Background(), sql, hive.ExecOptions{DisableIndexes: true})
	if err != nil {
		return 0, err
	}
	total := res.Stats.SimTotalSec()
	r.AddRow("ScanTable", secs(res.Stats.IndexSimSec), secs(res.Stats.DataSimSec), secs(total),
		count(res.Stats.RecordsRead), "1.0x")
	return total, nil
}

func addQueryRow(r *Report, name string, res *hive.Result, scanSec float64) {
	st := res.Stats
	r.AddRow(name, secs(st.IndexSimSec), secs(st.DataSimSec), secs(st.SimTotalSec()),
		count(st.RecordsRead), speedup(scanSec, st.SimTotalSec()))
}

// --- Table 4 ---

func expTab4(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "tab4", Title: "Records read, group-by/join query", PaperRef: "Table 4",
		Header: []string{"index", "point", "5%", "12%"}}
	sels := []selKind{selPoint, sel5, sel12}
	compactCells := make([]string, 0, 3)
	dgfCells := map[string][]string{}
	accurate := make([]string, 0, 3)
	for _, k := range sels {
		q := m.query(k)
		sql := groupBySQL(q)
		res, err := m.WC.ExecContext(context.Background(), sql, hive.ExecOptions{})
		if err != nil {
			return nil, err
		}
		compactCells = append(compactCells, count(res.Stats.RecordsRead))
		for _, v := range m.dgfVariants() {
			res, err := v.W.ExecContext(context.Background(), sql, hive.ExecOptions{})
			if err != nil {
				return nil, err
			}
			dgfCells[v.Name] = append(dgfCells[v.Name], count(res.Stats.RecordsRead))
		}
		var n int64
		for _, row := range m.rows {
			if q.Matches(row) {
				n++
			}
		}
		accurate = append(accurate, count(n))
	}
	r.AddRow(append([]string{"Compact-2D"}, compactCells...)...)
	r.AddRow(append([]string{"DGF-L"}, dgfCells["large"]...)...)
	r.AddRow(append([]string{"DGF-M"}, dgfCells["medium"]...)...)
	r.AddRow(append([]string{"DGF-S"}, dgfCells["small"]...)...)
	r.AddRow(append([]string{"Accurate"}, accurate...)...)
	r.Notef("paper: group-by cannot use pre-computation, so DGF reads slightly more than the accurate set (DGF-L 681M vs accurate 569M at 5%%), still far below Compact (4.8G)")
	return r, nil
}

// --- Figures 11-13 (group-by query time) ---

func figGroupBy(id, ref string, k selKind) func(*Env) (*Report, error) {
	return func(e *Env) (*Report, error) {
		m, err := e.Meter()
		if err != nil {
			return nil, err
		}
		q := m.query(k)
		sql := groupBySQL(q)
		r := &Report{ID: id, Title: "Group-by query time, " + k.String(), PaperRef: ref,
			Header: []string{"system", "read index+other (s)", "read data+process (s)", "total (s)", "records", "vs scan"}}
		scanSec, err := addScanRow(r, m, sql)
		if err != nil {
			return nil, err
		}
		for _, v := range m.dgfVariants() {
			res, err := v.W.ExecContext(context.Background(), sql, hive.ExecOptions{})
			if err != nil {
				return nil, err
			}
			addQueryRow(r, "DGF-"+v.Name, res, scanSec)
		}
		res, err := m.WC.ExecContext(context.Background(), sql, hive.ExecOptions{})
		if err != nil {
			return nil, err
		}
		addQueryRow(r, "Compact-2D", res, scanSec)
		_, hst, err := m.HDB.RangeAgg(q.Ranges(), "powerConsumed", []string{"ts"})
		if err != nil {
			return nil, err
		}
		r.AddRow("HadoopDB", "-", "-", secs(hst.SimSeconds), count(hst.RowsExamined), speedup(scanSec, hst.SimSeconds))
		r.Notef("paper: DGF 2-5x over Compact/HadoopDB; index-read time grows as intervals shrink (more GFU lookups); Compact approaches scan at 12%%")
		return r, nil
	}
}

// --- Figures 14-16 (join query time) ---

func figJoin(id, ref string, k selKind) func(*Env) (*Report, error) {
	return func(e *Env) (*Report, error) {
		m, err := e.Meter()
		if err != nil {
			return nil, err
		}
		q := m.query(k)
		sql := joinSQL(q)
		r := &Report{ID: id, Title: "Join query time, " + k.String(), PaperRef: ref,
			Header: []string{"system", "read index+other (s)", "read data+process (s)", "total (s)", "records", "vs scan"}}
		scanSec, err := addScanRow(r, m, sql)
		if err != nil {
			return nil, err
		}
		for _, v := range m.dgfVariants() {
			res, err := v.W.ExecContext(context.Background(), sql, hive.ExecOptions{})
			if err != nil {
				return nil, err
			}
			addQueryRow(r, "DGF-"+v.Name, res, scanSec)
		}
		res, err := m.WC.ExecContext(context.Background(), sql, hive.ExecOptions{})
		if err != nil {
			return nil, err
		}
		addQueryRow(r, "Compact-2D", res, scanSec)
		hst, err := m.HDB.RangeJoin(q.Ranges(), "userInfo", "userId", "userId", nil)
		if err != nil {
			return nil, err
		}
		r.AddRow("HadoopDB", "-", "-", secs(hst.SimSeconds), count(hst.RowsExamined), speedup(scanSec, hst.SimSeconds))
		r.Notef("paper: same shape as group-by — DGF 2-5x over both baselines, Compact/HadoopDB at or below scan for 12%%")
		return r, nil
	}
}

// --- Figure 17 (partially specified query) ---

func expFig17(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	// Listing 7's time='2012-12-30' predicate selects a whole collection
	// day; the range form states that without relying on a single midnight
	// reading per day.
	day := m.cfg.Start.AddDate(0, 0, m.cfg.Days-1).Format("2006-01-02")
	next := m.cfg.Start.AddDate(0, 0, m.cfg.Days).Format("2006-01-02")
	sql := fmt.Sprintf("SELECT SUM(powerConsumed) FROM meterdata WHERE regionId=%d AND ts>='%s' AND ts<'%s'",
		m.cfg.Regions, day, next)
	r := &Report{ID: "fig17", Title: "Partially specified query (userId unconstrained)", PaperRef: "Figure 17",
		Header: []string{"system", "interval", "read index+other (s)", "read data+process (s)", "total (s)", "records"}}
	for _, v := range m.dgfVariants() {
		res, err := v.W.ExecContext(context.Background(), sql, hive.ExecOptions{})
		if err != nil {
			return nil, err
		}
		st := res.Stats
		r.AddRow("DGF-precompute", v.Name, secs(st.IndexSimSec), secs(st.DataSimSec), secs(st.SimTotalSec()), count(st.RecordsRead))
		resNo, err := v.W.ExecContext(context.Background(), sql, hive.ExecOptions{DisablePrecompute: true})
		if err != nil {
			return nil, err
		}
		stn := resNo.Stats
		r.AddRow("DGF-noprecompute", v.Name, secs(stn.IndexSimSec), secs(stn.DataSimSec), secs(stn.SimTotalSec()), count(stn.RecordsRead))
	}
	res, err := m.WC.ExecContext(context.Background(), sql, hive.ExecOptions{})
	if err != nil {
		return nil, err
	}
	st := res.Stats
	r.AddRow("Compact-2D", "-", secs(st.IndexSimSec), secs(st.DataSimSec), secs(st.SimTotalSec()), count(st.RecordsRead))
	r.Notef("the missing userId dimension is completed from the stored per-dimension min/max (paper Section 5.3.4); paper: DGF 2-4.6x faster than Compact")
	return r, nil
}
