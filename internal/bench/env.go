// Package bench reproduces every table and figure of the paper's evaluation
// (Section 5) plus the ablations called out in DESIGN.md. Each experiment
// builds on the shared Env: warehouses holding the meter table with the
// three DGFIndex splitting policies (Large/Medium/Small userId intervals),
// an RCFile copy with Compact indexes, a loaded HadoopDB cluster, and a
// TPC-H lineitem warehouse.
//
// The generated datasets are laptop-scale samples of the paper's (1 TB meter
// data, 518 GB lineitem); cluster.Config.ScaleFactor rescales job volumes to
// the paper's deployment so that simulated seconds are comparable in shape
// to the paper's figures. Grid-cell counts and key-value op volumes are NOT
// scaled: they depend on the splitting policy rather than the data volume
// (the paper's core point), and the interval counts are chosen per Scale so
// that rows-per-GFU stays in the regime where the Large/Medium/Small
// trade-off of the paper's figures is visible.
package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hadoopdb"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/hiveindex"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// Paper-deployment data volumes (Section 5.2), used to derive ScaleFactor.
const (
	paperMeterBytes = int64(1) << 40         // ~1 TB TextFile meter data
	paperTPCHBytes  = 518 * (int64(1) << 30) // ~518 GB TextFile lineitem
)

// Scale sizes the generated datasets and grids.
type Scale struct {
	MeterUsers     int
	Regions        int
	Days           int
	ReadingsPerDay int
	OtherMetrics   int
	TPCHRows       int
	// BlockSize of the model filesystem (bytes).
	BlockSize int64
	// RowGroupRows for RCFile tables.
	RowGroupRows int
	// IntervalsL/M/S are the userId interval counts of the three splitting
	// policies. The paper uses 100 / 1000 / 10000 on 11 G records (3.3 M
	// records per Small GFU); the defaults keep the same ordering but scale
	// the counts to the generated data so that rows-per-GFU stays in a
	// regime where the Large/Medium/Small trade-off is visible.
	IntervalsL, IntervalsM, IntervalsS int
	// HadoopDB topology (the paper: 28 nodes x 38 chunks).
	HDBNodes, HDBChunks int
}

// DefaultScale is the dgfbench default: ~600 k meter records, 500 k
// lineitem rows.
func DefaultScale() Scale {
	return Scale{
		MeterUsers:     20000,
		Regions:        11,
		Days:           30,
		ReadingsPerDay: 1,
		OtherMetrics:   4,
		TPCHRows:       500000,
		BlockSize:      1 << 21, // 2 MB blocks keep split counts realistic
		RowGroupRows:   512,
		IntervalsL:     10,
		IntervalsM:     100,
		IntervalsS:     500,
		HDBNodes:       28,
		HDBChunks:      38,
	}
}

// TestScale balances fidelity against test runtime: 30 days keep the
// day-aligned grid geometry of the real workload while the user population
// is a quarter of DefaultScale's.
func TestScale() Scale {
	return Scale{
		MeterUsers:     8000,
		Regions:        11,
		Days:           30,
		ReadingsPerDay: 1,
		OtherMetrics:   2,
		TPCHRows:       120000,
		BlockSize:      1 << 20,
		RowGroupRows:   512,
		IntervalsL:     8,
		IntervalsM:     80,
		IntervalsS:     400,
		HDBNodes:       28,
		HDBChunks:      8,
	}
}

// SmallScale keeps unit tests and -short benchmarks fast.
func SmallScale() Scale {
	return Scale{
		MeterUsers:     2000,
		Regions:        11,
		Days:           10,
		ReadingsPerDay: 1,
		OtherMetrics:   2,
		TPCHRows:       40000,
		BlockSize:      1 << 18,
		RowGroupRows:   256,
		IntervalsL:     5,
		IntervalsM:     25,
		IntervalsS:     100,
		HDBNodes:       8,
		HDBChunks:      6,
	}
}

// Env lazily builds and caches the experiment fixtures.
type Env struct {
	Scale Scale
	Base  *cluster.Config

	mu    sync.Mutex
	meter *meterEnv
	tpch  *tpchEnv
}

// NewEnv creates an experiment environment.
func NewEnv(scale Scale) *Env {
	return &Env{Scale: scale, Base: cluster.Default()}
}

// meterEnv bundles all meter-data fixtures.
type meterEnv struct {
	cfg  workload.MeterConfig
	rows []storage.Row
	sf   float64

	// Warehouses with DGFIndex under the three splitting policies.
	WL, WM, WS *hive.Warehouse
	dgfBuild   map[string]*dgf.BuildStats // L/M/S build stats
	// RCFile warehouse with the Compact-2D index (regionId, ts).
	WC       *hive.Warehouse
	compact2 *hiveindex.Index
	c2Sec    float64
	// Plain TextFile warehouse for the ScanTable baseline.
	WScan *hive.Warehouse
	// HadoopDB baseline.
	HDB *hadoopdb.Cluster
}

// tpchEnv bundles the lineitem fixtures.
type tpchEnv struct {
	cfg  workload.TPCHConfig
	rows []storage.Row
	sf   float64

	WDgf     *hive.Warehouse
	dgfBuild *dgf.BuildStats
	WC       *hive.Warehouse // RCFile + Compact-2D + Compact-3D
	compact2 *hiveindex.Index
	compact3 *hiveindex.Index
	c2Sec    float64
	c3Sec    float64
}

// MeterSQL is the DDL of the meter table at this scale.
func meterDDL(otherMetrics int, format string) string {
	ddl := "CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double"
	for i := 0; i < otherMetrics; i++ {
		ddl += fmt.Sprintf(", pate%d double", i+1)
	}
	return ddl + ") STORED AS " + format
}

// Meter builds (once) and returns the meter fixtures.
func (e *Env) Meter() (*meterEnv, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.meter != nil {
		return e.meter, nil
	}
	s := e.Scale
	cfg := workload.MeterConfig{
		Users:          s.MeterUsers,
		Regions:        s.Regions,
		Days:           s.Days,
		ReadingsPerDay: s.ReadingsPerDay,
		OtherMetrics:   s.OtherMetrics,
		Start:          time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC),
		Seed:           20121201,
	}
	m := &meterEnv{cfg: cfg, rows: cfg.AllRows(), dgfBuild: map[string]*dgf.BuildStats{}}

	// Data-volume scale factor: paper bytes over generated bytes.
	var genBytes int64
	for _, r := range m.rows[:min(len(m.rows), 1000)] {
		genBytes += int64(len(storage.EncodeTextRow(r)) + 1)
	}
	genBytes = genBytes * int64(len(m.rows)) / int64(min(len(m.rows), 1000))
	m.sf = float64(paperMeterBytes) / float64(genBytes)
	clusterCfg := e.Base.Scaled(m.sf)

	// One warehouse per DGFIndex splitting policy.
	for _, v := range []struct {
		name      string
		intervals int
		dst       **hive.Warehouse
	}{
		{"L", s.IntervalsL, &m.WL},
		{"M", s.IntervalsM, &m.WM},
		{"S", s.IntervalsS, &m.WS},
	} {
		w := hive.NewWarehouse(dfs.New(s.BlockSize), clusterCfg, "/warehouse")
		if err := loadMeter(w, cfg, m.rows); err != nil {
			return nil, err
		}
		t, _ := w.Table("meterdata")
		userInterval := (s.MeterUsers + v.intervals - 1) / v.intervals
		if userInterval < 1 {
			userInterval = 1
		}
		spec, err := dgf.ParseIdxProperties("idx_dgf_"+v.name, []string{"regionId", "userId", "ts"}, t.Schema,
			map[string]string{
				"regionId":   "1_1",
				"userId":     fmt.Sprintf("1_%d", userInterval),
				"ts":         "2012-12-01_1d",
				"precompute": "sum(powerConsumed);count(*)",
			})
		if err != nil {
			return nil, err
		}
		st, err := w.BuildDgfIndex(t, spec)
		if err != nil {
			return nil, err
		}
		m.dgfBuild[v.name] = st
		*v.dst = w
	}

	// RCFile warehouse with Compact-2D (regionId, ts), per Section 5.3.1.
	m.WC = hive.NewWarehouse(dfs.New(s.BlockSize), clusterCfg, "/warehouse")
	if _, err := m.WC.ExecContext(context.Background(), meterDDL(s.OtherMetrics, "RCFILE"), hive.ExecOptions{}); err != nil {
		return nil, err
	}
	tc, _ := m.WC.Table("meterdata")
	tc.RowGroupRows = s.RowGroupRows
	if err := m.WC.LoadRowsByName("meterdata", m.rows); err != nil {
		return nil, err
	}
	if err := loadUserInfo(m.WC, cfg); err != nil {
		return nil, err
	}
	ix, sec, err := m.WC.BuildHiveIndexStats(tc, "idx_compact2", hiveindex.Compact,
		[]string{"regionId", "ts"}, hiveindex.RCFile)
	if err != nil {
		return nil, err
	}
	m.compact2, m.c2Sec = ix, sec

	// Plain TextFile warehouse: the ScanTable baseline.
	m.WScan = hive.NewWarehouse(dfs.New(s.BlockSize), clusterCfg, "/warehouse")
	if err := loadMeter(m.WScan, cfg, m.rows); err != nil {
		return nil, err
	}

	// HadoopDB, partitioned by userId with a (userId, regionId, ts) index.
	hcfg := hadoopdb.DefaultConfig()
	hcfg.Nodes = s.HDBNodes
	hcfg.ChunksPerNode = s.HDBChunks
	hcfg.ScaleFactor = m.sf
	hdb, err := hadoopdb.Load(hcfg, workload.MeterSchema(s.OtherMetrics),
		[]string{"userId", "regionId", "ts"}, m.rows)
	if err != nil {
		return nil, err
	}
	hdb.ReplicateSideTable("userInfo", workload.UserInfoSchema(), cfg.UserInfoRows())
	m.HDB = hdb

	e.meter = m
	return m, nil
}

func loadMeter(w *hive.Warehouse, cfg workload.MeterConfig, rows []storage.Row) error {
	if _, err := w.ExecContext(context.Background(), meterDDL(cfg.OtherMetrics, "TEXTFILE"), hive.ExecOptions{}); err != nil {
		return err
	}
	if err := w.LoadRowsByName("meterdata", rows); err != nil {
		return err
	}
	return loadUserInfo(w, cfg)
}

func loadUserInfo(w *hive.Warehouse, cfg workload.MeterConfig) error {
	if _, err := w.ExecContext(context.Background(), `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`, hive.ExecOptions{}); err != nil {
		return err
	}
	return w.LoadRowsByName("userInfo", cfg.UserInfoRows())
}

// TPCH builds (once) and returns the lineitem fixtures.
func (e *Env) TPCH() (*tpchEnv, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tpch != nil {
		return e.tpch, nil
	}
	s := e.Scale
	cfg := workload.TPCHConfig{Rows: s.TPCHRows, Seed: 19920101}
	t := &tpchEnv{cfg: cfg, rows: cfg.AllLineitemRows()}

	var genBytes int64
	for _, r := range t.rows[:min(len(t.rows), 1000)] {
		genBytes += int64(len(storage.EncodeTextRow(r)) + 1)
	}
	genBytes = genBytes * int64(len(t.rows)) / int64(min(len(t.rows), 1000))
	t.sf = float64(paperTPCHBytes) / float64(genBytes)
	clusterCfg := e.Base.Scaled(t.sf)

	lineitemDDL := `CREATE TABLE lineitem (l_orderkey bigint, l_partkey bigint,
		l_suppkey bigint, l_linenumber bigint, l_quantity double,
		l_extendedprice double, l_discount double, l_tax double,
		l_shipdate timestamp, l_commitdate timestamp)`

	// DGFIndex warehouse: the paper's splitting policy (0.01 / 1.0 /
	// 100 days) with the Q6 product pre-computed.
	t.WDgf = hive.NewWarehouse(dfs.New(s.BlockSize), clusterCfg, "/warehouse")
	if _, err := t.WDgf.ExecContext(context.Background(), lineitemDDL, hive.ExecOptions{}); err != nil {
		return nil, err
	}
	tl, _ := t.WDgf.Table("lineitem")
	if err := t.WDgf.LoadRowsByName("lineitem", t.rows); err != nil {
		return nil, err
	}
	spec, err := dgf.ParseIdxProperties("idx_dgf", []string{"l_discount", "l_quantity", "l_shipdate"}, tl.Schema,
		map[string]string{
			"l_discount": "0_0.01",
			"l_quantity": "0_1",
			"l_shipdate": "1992-01-01_100d",
			"precompute": "sum(l_extendedprice*l_discount);count(*)",
		})
	if err != nil {
		return nil, err
	}
	st, err := t.WDgf.BuildDgfIndex(tl, spec)
	if err != nil {
		return nil, err
	}
	t.dgfBuild = st

	// RCFile warehouse with Compact-2D and Compact-3D.
	t.WC = hive.NewWarehouse(dfs.New(s.BlockSize), clusterCfg, "/warehouse")
	if _, err := t.WC.ExecContext(context.Background(), lineitemDDL+" STORED AS RCFILE", hive.ExecOptions{}); err != nil {
		return nil, err
	}
	tc, _ := t.WC.Table("lineitem")
	tc.RowGroupRows = s.RowGroupRows
	if err := t.WC.LoadRowsByName("lineitem", t.rows); err != nil {
		return nil, err
	}
	ix2, sec2, err := t.WC.BuildHiveIndexStats(tc, "idx_compact2", hiveindex.Compact,
		[]string{"l_discount", "l_quantity"}, hiveindex.RCFile)
	if err != nil {
		return nil, err
	}
	ix3, sec3, err := t.WC.BuildHiveIndexStats(tc, "idx_compact3", hiveindex.Compact,
		[]string{"l_discount", "l_quantity", "l_shipdate"}, hiveindex.RCFile)
	if err != nil {
		return nil, err
	}
	t.compact2, t.c2Sec = ix2, sec2
	t.compact3, t.c3Sec = ix3, sec3

	e.tpch = t
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
