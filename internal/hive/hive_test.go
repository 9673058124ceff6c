package hive

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

func testWarehouse(blockSize int64) *Warehouse {
	cfg := cluster.Default()
	cfg.Workers = 4
	return NewWarehouse(dfs.New(blockSize), cfg, "/warehouse")
}

// meterRows builds a deterministic mini meter dataset: users x days with
// one reading per day; regionId = userId % regions.
func meterRows(users, regions, days int) []storage.Row {
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(99))
	var rows []storage.Row
	for d := 0; d < days; d++ {
		ts := base.AddDate(0, 0, d)
		for u := 1; u <= users; u++ {
			rows = append(rows, storage.Row{
				storage.Int64(int64(u)),
				storage.Int64(int64(u%regions + 1)),
				storage.Time(ts),
				storage.Float64(math.Round(rng.Float64()*1000) / 100),
			})
		}
	}
	return rows
}

func mustExec(t *testing.T, w *Warehouse, sql string) *Result {
	t.Helper()
	res, err := w.ExecContext(context.Background(), sql, ExecOptions{})
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func setupMeterTable(t *testing.T, w *Warehouse, users, regions, days int) []storage.Row {
	t.Helper()
	mustExec(t, w, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)
	rows := meterRows(users, regions, days)
	if err := w.LoadRowsByName("meterdata", rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func createDgf(t *testing.T, w *Warehouse) {
	t.Helper()
	mustExec(t, w, `CREATE INDEX idx_dgf ON TABLE meterdata(regionId, userId, ts)
		AS 'org.apache.hadoop.hive.ql.index.dgf.DgfIndexHandler'
		IDXPROPERTIES ('regionId'='1_1', 'userId'='1_10', 'ts'='2012-12-01_1d',
		               'precompute'='sum(powerConsumed);count(*)')`)
}

// parserListings are the paper's query listings; they must all parse.
var parserListings = []string{
	// Listing 2
	`SELECT SUM(C) FROM T WHERE A>=5 AND A<12 AND B>=12 AND B<16;`,
	// Listing 3
	`CREATE INDEX idx_a_b ON TABLE T(A,B) AS 'org.dgf.DgfIndexHandler'
	 IDXPROPERTIES ('A'='1_3', 'B'='11_2', 'precompute'='sum(C)')`,
	// Listing 4
	`SELECT sum(powerConsumed) FROM meterdata
	 WHERE regionId>1 and regionId<5 and userId>10 and userId<400 and ts>'2012-12-02' and ts<'2012-12-20'`,
	// Listing 5
	`SELECT ts,sum(powerConsumed) FROM meterdata
	 WHERE regionId>1 and regionId<5 GROUP BY ts`,
	// Listing 6
	`INSERT OVERWRITE DIRECTORY '/tmp/result'
	 SELECT t2.userName,t1.powerConsumed FROM meterdata t1 JOIN userInfo t2
	 ON t1.userId=t2.userId WHERE t1.regionId>1 AND t1.regionId<5`,
	// Listing 7
	`SELECT SUM(powerConsumed) FROM meterdata WHERE regionId=11 AND ts='2012-12-30'`,
	// TPC-H Q6
	`SELECT sum(l_extendedprice*l_discount) FROM lineitem
	 WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
	 AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
}

func TestParserListings(t *testing.T) {
	for _, sql := range parserListings {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
}

// parserErrors are statements the parser refuses.
var parserErrors = []string{
	"",
	"SELEC x FROM t",
	"SELECT FROM t",
	"SELECT x t",                 // missing FROM
	"CREATE VIEW v AS SELECT 1",  // unsupported
	"SELECT x FROM t WHERE x >",  // missing literal
	"SELECT x FROM t LIMIT huh",  // bad limit
	"SELECT x FROM t GROUP BY",   // missing col
	"SELECT sum(x FROM t",        // unbalanced
	"SELECT x FROM t; SELECT y",  // trailing statement
	"CREATE TABLE t (x blobbby)", // bad type
}

func TestParserErrors(t *testing.T) {
	for _, sql := range parserErrors {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestDDLAndCatalog(t *testing.T) {
	w := testWarehouse(1 << 20)
	mustExec(t, w, "CREATE TABLE a (x bigint, y double)")
	mustExec(t, w, "CREATE TABLE b (z string) STORED AS RCFILE")
	res := mustExec(t, w, "SHOW TABLES")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "a" {
		t.Errorf("SHOW TABLES = %v", res.Rows)
	}
	res = mustExec(t, w, "DESCRIBE a")
	if len(res.Rows) != 2 || res.Rows[1][1].S != "double" {
		t.Errorf("DESCRIBE = %v", res.Rows)
	}
	mustExec(t, w, "DROP TABLE a")
	if _, err := w.ExecContext(context.Background(), "DESCRIBE a", ExecOptions{}); err == nil {
		t.Error("dropped table still described")
	}
	if _, err := w.ExecContext(context.Background(), "CREATE TABLE b (x bigint)", ExecOptions{}); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestScalarAggScan(t *testing.T) {
	w := testWarehouse(1 << 16)
	rows := setupMeterTable(t, w, 50, 5, 10)
	res := mustExec(t, w, `SELECT sum(powerConsumed), count(*), avg(powerConsumed),
		min(powerConsumed), max(powerConsumed) FROM meterdata WHERE userId>=10 AND userId<=20`)
	if res.Stats.AccessPath != "scan" {
		t.Errorf("access path = %s", res.Stats.AccessPath)
	}
	var sum, minV, maxV float64
	var n int64
	minV, maxV = math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if r[0].I >= 10 && r[0].I <= 20 {
			v := r[3].F
			sum += v
			n++
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	}
	got := res.Rows[0]
	if math.Abs(got[0].F-sum) > 1e-9 || int64(got[1].F) != n {
		t.Errorf("sum/count = %v/%v, want %v/%v", got[0].F, got[1].F, sum, n)
	}
	if math.Abs(got[2].F-sum/float64(n)) > 1e-9 {
		t.Errorf("avg = %v", got[2].F)
	}
	if got[3].F != minV || got[4].F != maxV {
		t.Errorf("min/max = %v/%v, want %v/%v", got[3].F, got[4].F, minV, maxV)
	}
}

func TestDgfAggregationUsesPrecompute(t *testing.T) {
	w := testWarehouse(1 << 14)
	rows := setupMeterTable(t, w, 100, 5, 10)
	createDgf(t, w)
	sql := `SELECT sum(powerConsumed) FROM meterdata
		WHERE regionId>=2 AND regionId<=4 AND userId>=15 AND userId<=80
		AND ts>='2012-12-02' AND ts<'2012-12-08'`
	res := mustExec(t, w, sql)
	if res.Stats.AccessPath != "dgfindex(precompute)" {
		t.Fatalf("access path = %s", res.Stats.AccessPath)
	}
	want := 0.0
	t2 := time.Date(2012, 12, 2, 0, 0, 0, 0, time.UTC).Unix()
	t8 := time.Date(2012, 12, 8, 0, 0, 0, 0, time.UTC).Unix()
	var inRange int64
	for _, r := range rows {
		if r[1].I >= 2 && r[1].I <= 4 && r[0].I >= 15 && r[0].I <= 80 &&
			r[2].I >= t2 && r[2].I < t8 {
			want += r[3].F
			inRange++
		}
	}
	if math.Abs(res.Rows[0][0].F-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", res.Rows[0][0].F, want)
	}
	// Pre-computation means the scan reads fewer records than match.
	if res.Stats.RecordsRead >= inRange {
		t.Errorf("precompute read %d records for %d matches", res.Stats.RecordsRead, inRange)
	}
}

func TestDgfMatchesScanOnEveryQueryShape(t *testing.T) {
	build := func(withIndex bool) *Warehouse {
		w := testWarehouse(1 << 13)
		setupMeterTable(t, w, 60, 4, 8)
		if withIndex {
			createDgf(t, w)
		}
		return w
	}
	plain, indexed := build(false), build(true)
	queries := []string{
		`SELECT sum(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=25`,
		`SELECT count(*) FROM meterdata WHERE regionId=2 AND ts>='2012-12-03' AND ts<='2012-12-05'`,
		`SELECT avg(powerConsumed) FROM meterdata WHERE userId>10 AND userId<40 AND regionId>=1 AND regionId<=3`,
		`SELECT ts, sum(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=45 GROUP BY ts`,
		`SELECT regionId, count(*), max(powerConsumed) FROM meterdata WHERE userId<30 GROUP BY regionId`,
		`SELECT sum(powerConsumed) FROM meterdata WHERE regionId=1 AND ts='2012-12-04'`, // partial (Listing 7)
		`SELECT userId, powerConsumed FROM meterdata WHERE userId=7 AND ts='2012-12-02'`,
	}
	for _, sql := range queries {
		a := mustExec(t, plain, sql)
		b := mustExec(t, indexed, sql)
		if a.Stats.AccessPath == b.Stats.AccessPath {
			t.Errorf("index not used for %q (both %s)", sql, a.Stats.AccessPath)
		}
		if !rowsEqual(a.Rows, b.Rows) {
			t.Errorf("results differ for %q:\nscan: %v\ndgf:  %v", sql, fmtRows(a.Rows), fmtRows(b.Rows))
		}
	}
}

func rowsEqual(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind == storage.KindFloat64 || y.Kind == storage.KindFloat64 {
				if math.Abs(x.AsFloat()-y.AsFloat()) > 1e-6*(1+math.Abs(x.AsFloat())) {
					return false
				}
			} else if storage.Compare(x, y) != 0 {
				return false
			}
		}
	}
	return true
}

func fmtRows(rows []storage.Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(storage.EncodeTextRow(r))
		b.WriteByte('|')
	}
	return b.String()
}

func TestJoinQueryListing6(t *testing.T) {
	w := testWarehouse(1 << 14)
	rows := setupMeterTable(t, w, 40, 4, 5)
	mustExec(t, w, `CREATE TABLE userInfo (userId bigint, userName string)`)
	var userRows []storage.Row
	for u := 1; u <= 40; u++ {
		userRows = append(userRows, storage.Row{
			storage.Int64(int64(u)), storage.Str(fmt.Sprintf("user-%02d", u)),
		})
	}
	if err := w.LoadRowsByName("userInfo", userRows); err != nil {
		t.Fatal(err)
	}
	createDgf(t, w)
	res := mustExec(t, w, `INSERT OVERWRITE DIRECTORY '/tmp/result'
		SELECT t2.userName, t1.powerConsumed FROM meterdata t1 JOIN userInfo t2
		ON t1.userId=t2.userId
		WHERE t1.regionId>=2 AND t1.regionId<=3 AND t1.userId>=5 AND t1.userId<=20
		AND t1.ts>='2012-12-02' AND t1.ts<'2012-12-04'`)
	want := 0
	lo := time.Date(2012, 12, 2, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(2012, 12, 4, 0, 0, 0, 0, time.UTC).Unix()
	for _, r := range rows {
		if r[1].I >= 2 && r[1].I <= 3 && r[0].I >= 5 && r[0].I <= 20 && r[2].I >= lo && r[2].I < hi {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("join produced %d rows, want %d", len(res.Rows), want)
	}
	if res.Rows[0][0].Kind != storage.KindString || !strings.HasPrefix(res.Rows[0][0].S, "user-") {
		t.Errorf("first column = %v, want userName", res.Rows[0][0])
	}
	// Results were also written to the sink directory.
	if !w.FS.Exists("/tmp/result/000000_0") {
		t.Error("INSERT OVERWRITE DIRECTORY wrote nothing")
	}
}

func TestCompactIndexPath(t *testing.T) {
	w := testWarehouse(1 << 12)
	rows := setupMeterTable(t, w, 60, 4, 6)
	mustExec(t, w, `CREATE INDEX idx_c ON TABLE meterdata(regionId, ts)
		AS 'org.apache.hadoop.hive.ql.index.compact.CompactIndexHandler'`)
	res := mustExec(t, w, `SELECT sum(powerConsumed) FROM meterdata
		WHERE regionId=2 AND ts>='2012-12-02' AND ts<='2012-12-03'`)
	if res.Stats.AccessPath != "index:idx_c" {
		t.Fatalf("access path = %s", res.Stats.AccessPath)
	}
	want := 0.0
	lo := time.Date(2012, 12, 2, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(2012, 12, 3, 0, 0, 0, 0, time.UTC).Unix()
	for _, r := range rows {
		if r[1].I == 2 && r[2].I >= lo && r[2].I <= hi {
			want += r[3].F
		}
	}
	if math.Abs(res.Rows[0][0].F-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", res.Rows[0][0].F, want)
	}
	// Index path must cost simulated index time.
	if res.Stats.IndexSimSec <= 0 {
		t.Error("no index read time recorded")
	}
}

func TestAggregateIndexRewritePath(t *testing.T) {
	w := testWarehouse(1 << 16)
	rows := setupMeterTable(t, w, 50, 5, 4)
	mustExec(t, w, `CREATE INDEX idx_a ON TABLE meterdata(regionId)
		AS 'org.apache.hadoop.hive.ql.index.AggregateIndexHandler'`)
	res := mustExec(t, w, `SELECT regionId, count(*) FROM meterdata
		WHERE regionId>=2 AND regionId<=4 GROUP BY regionId`)
	if !strings.HasPrefix(res.Stats.AccessPath, "aggindex-rewrite:") {
		t.Fatalf("access path = %s", res.Stats.AccessPath)
	}
	want := map[int64]int64{}
	for _, r := range rows {
		if r[1].I >= 2 && r[1].I <= 4 {
			want[r[1].I]++
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if int64(row[1].F) != want[row[0].I] {
			t.Errorf("count[%d] = %v, want %d", row[0].I, row[1].F, want[row[0].I])
		}
	}
}

func TestDisableIndexesOption(t *testing.T) {
	w := testWarehouse(1 << 14)
	setupMeterTable(t, w, 30, 3, 4)
	createDgf(t, w)
	res, err := w.ExecContext(context.Background(), `SELECT count(*) FROM meterdata WHERE userId<10`, ExecOptions{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AccessPath != "scan" {
		t.Errorf("access path = %s, want scan", res.Stats.AccessPath)
	}
}

func TestProjectionAndLimit(t *testing.T) {
	w := testWarehouse(1 << 16)
	setupMeterTable(t, w, 20, 4, 3)
	res := mustExec(t, w, `SELECT userId, regionId FROM meterdata WHERE regionId=1 LIMIT 5`)
	if len(res.Rows) != 5 {
		t.Errorf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].I != 1 {
			t.Errorf("filter leaked row %v", r)
		}
	}
	if res.Columns[0] != "userId" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	w := testWarehouse(1 << 16)
	setupMeterTable(t, w, 5, 2, 1)
	res := mustExec(t, w, `SELECT * FROM meterdata LIMIT 3`)
	if len(res.Columns) != 4 || len(res.Rows) != 3 {
		t.Errorf("SELECT * = %v cols, %d rows", res.Columns, len(res.Rows))
	}
}

func TestAggOverEmptyResult(t *testing.T) {
	w := testWarehouse(1 << 16)
	setupMeterTable(t, w, 10, 2, 2)
	res := mustExec(t, w, `SELECT count(*), sum(powerConsumed) FROM meterdata WHERE userId>1000`)
	if len(res.Rows) != 1 {
		t.Fatalf("scalar agg returned %d rows", len(res.Rows))
	}
	if res.Rows[0][0].F != 0 {
		t.Errorf("count = %v, want 0", res.Rows[0][0].F)
	}
}

func TestCompileErrors(t *testing.T) {
	w := testWarehouse(1 << 16)
	setupMeterTable(t, w, 5, 2, 1)
	bad := []string{
		`SELECT ghost FROM meterdata`,
		`SELECT sum(ghost) FROM meterdata`,
		`SELECT userId, sum(powerConsumed) FROM meterdata`, // userId not grouped
		`SELECT sum(powerConsumed) FROM ghost`,
		`SELECT t2.x FROM meterdata t1 JOIN ghost t2 ON t1.userId=t2.userId`,
	}
	for _, sql := range bad {
		if _, err := w.ExecContext(context.Background(), sql, ExecOptions{}); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", sql)
		}
	}
}

func TestRCFileTableScan(t *testing.T) {
	w := testWarehouse(1 << 14)
	mustExec(t, w, `CREATE TABLE rcmeter (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`)
	tbl, _ := w.Table("rcmeter")
	tbl.RowGroupRows = 16
	rows := meterRows(20, 4, 5)
	if err := w.LoadRowsByName("rcmeter", rows); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, w, `SELECT count(*) FROM rcmeter WHERE regionId=1`)
	want := 0
	for _, r := range rows {
		if r[1].I == 1 {
			want++
		}
	}
	if int(res.Rows[0][0].F) != want {
		t.Errorf("count = %v, want %d", res.Rows[0][0].F, want)
	}
}

func TestDgfOnlyOnePerTable(t *testing.T) {
	w := testWarehouse(1 << 16)
	setupMeterTable(t, w, 10, 2, 2)
	createDgf(t, w)
	_, err := w.ExecContext(context.Background(), `CREATE INDEX idx2 ON TABLE meterdata(userId)
		AS 'dgf' IDXPROPERTIES ('userId'='1_5')`, ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "only one") {
		t.Errorf("second DGFIndex: %v", err)
	}
}

// TestCreateDgfIndexRejectsUnknownProperties: a DGF IDXPROPERTIES key that
// is neither an index column nor 'precompute' fails CREATE INDEX by name
// instead of building an index without it — a misspelt 'precompute' would
// otherwise pre-compute nothing, and 'bitmap' no longer means anything. The
// table is left unindexed.
func TestCreateDgfIndexRejectsUnknownProperties(t *testing.T) {
	w := testWarehouse(1 << 16)
	setupMeterTable(t, w, 10, 2, 2)
	for _, p := range []struct{ key, value string }{{"precomptue", "sum(powerConsumed)"}, {"bitmap", "regionId"}} {
		_, err := w.ExecContext(context.Background(), fmt.Sprintf(`CREATE INDEX idx_dgf ON TABLE meterdata(regionId, userId)
			AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_5', '%s'='%s')`, p.key, p.value), ExecOptions{})
		if err == nil || !strings.Contains(err.Error(), p.key) {
			t.Errorf("CREATE INDEX with '%s': err = %v, want one naming the key", p.key, err)
		}
	}
	if tbl, _ := w.Table("meterdata"); tbl.Dgf != nil {
		t.Error("a refused CREATE INDEX left an index behind")
	}
}

func TestLoadRowsThroughDgfAppend(t *testing.T) {
	w := testWarehouse(1 << 14)
	rows := setupMeterTable(t, w, 20, 2, 2)
	createDgf(t, w)
	extra := meterRows(20, 2, 1) // one more day (same dates, but fine)
	if err := w.LoadRowsByName("meterdata", extra); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, w, `SELECT count(*) FROM meterdata`)
	if int(res.Rows[0][0].F) != len(rows)+len(extra) {
		t.Errorf("count = %v, want %d", res.Rows[0][0].F, len(rows)+len(extra))
	}
}

func TestStatsBreakdown(t *testing.T) {
	w := testWarehouse(1 << 13)
	setupMeterTable(t, w, 80, 4, 6)
	createDgf(t, w)
	res := mustExec(t, w, `SELECT sum(powerConsumed) FROM meterdata
		WHERE userId>=10 AND userId<=30 AND regionId>=1 AND regionId<=2
		AND ts>='2012-12-02' AND ts<'2012-12-05'`)
	st := res.Stats
	if st.IndexSimSec <= 0 || st.DataSimSec < 0 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.SimTotalSec()-(st.IndexSimSec+st.DataSimSec)) > 1e-9 {
		t.Error("SimTotalSec mismatch")
	}
	if st.Wall <= 0 {
		t.Error("wall time missing")
	}
}

// setupMeterTableFormat is setupMeterTable with an explicit storage clause
// and row-group sizing (small groups so RCFile slices span several).
func setupMeterTableFormat(t *testing.T, w *Warehouse, users, regions, days int, stored string) []storage.Row {
	t.Helper()
	mustExec(t, w, fmt.Sprintf(`CREATE TABLE meterdata (userId bigint, regionId bigint,
		ts timestamp, powerConsumed double) STORED AS %s`, stored))
	rows := meterRows(users, regions, days)
	tbl, _ := w.Table("meterdata")
	tbl.RowGroupRows = 16
	if err := w.LoadRowsByName("meterdata", rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// renderExact renders result rows with exact float bits for bit-identity
// comparisons across storage formats.
func renderExact(rows []storage.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			if v.Kind == storage.KindFloat64 {
				fmt.Fprintf(&b, "%x", v.F)
			} else {
				b.WriteString(v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDgfOnRCFileBitIdentical is the acceptance criterion of the
// format-agnostic index I/O refactor: CREATE INDEX ... 'dgf' succeeds on a
// STORED AS RCFILE table, every index-guided query answers bit-identically
// to the TextFile equivalent, and queries projecting a column subset read
// strictly fewer bytes from the RCFile layout.
func TestDgfOnRCFileBitIdentical(t *testing.T) {
	textW := testWarehouse(1 << 14)
	setupMeterTableFormat(t, textW, 40, 4, 8, "TEXTFILE")
	createDgf(t, textW)
	rcW := testWarehouse(1 << 14)
	setupMeterTableFormat(t, rcW, 40, 4, 8, "RCFILE")
	createDgf(t, rcW) // must succeed on the RCFile table

	queries := []string{
		`SELECT sum(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=30`,
		`SELECT count(*), sum(powerConsumed), avg(powerConsumed), min(powerConsumed), max(powerConsumed) FROM meterdata WHERE userId>=3 AND userId<=37`,
		`SELECT sum(powerConsumed) FROM meterdata WHERE userId=7`,
		`SELECT regionId, avg(powerConsumed), count(*) FROM meterdata WHERE ts>='2012-12-02' AND ts<'2012-12-06' GROUP BY regionId`,
		`SELECT userId, powerConsumed FROM meterdata WHERE userId=11 AND ts<'2012-12-03'`,
		`SELECT count(*) FROM meterdata WHERE userId>=1000`,
		`SELECT * FROM meterdata WHERE userId=19 AND ts='2012-12-04'`,
	}
	var projectingLower bool
	for _, q := range queries {
		wantRes := mustExec(t, textW, q)
		gotRes := mustExec(t, rcW, q)
		if !strings.HasPrefix(wantRes.Stats.AccessPath, "dgfindex") ||
			!strings.HasPrefix(gotRes.Stats.AccessPath, "dgfindex") {
			t.Fatalf("%q: access paths %q vs %q, want dgfindex on both", q, wantRes.Stats.AccessPath, gotRes.Stats.AccessPath)
		}
		if want, got := renderExact(wantRes.Rows), renderExact(gotRes.Rows); want != got {
			t.Fatalf("%q: results differ\ntext:\n%s\nrcfile:\n%s", q, want, got)
		}
		// The vectorised RCFile path may zone-prune row groups inside the
		// selected slices, so it delivers at most as many records as the
		// TextFile path — and any shortfall must be accounted for by skips.
		if gotRes.Stats.RecordsRead > wantRes.Stats.RecordsRead {
			t.Errorf("%q: RCFile read more records: %d vs %d", q, gotRes.Stats.RecordsRead, wantRes.Stats.RecordsRead)
		}
		if gotRes.Stats.RecordsRead < wantRes.Stats.RecordsRead && gotRes.Stats.GroupsSkipped == 0 {
			t.Errorf("%q: records read differ (%d vs %d) without any skipped groups",
				q, wantRes.Stats.RecordsRead, gotRes.Stats.RecordsRead)
		}
		// Read unpruned, the RCFile layout must match the TextFile record
		// count exactly (and the reference rows bit-identically).
		rowRes := refExec(t, rcW, q, ExecOptions{})
		if want, got := renderExact(wantRes.Rows), renderExact(rowRes.Rows); want != got {
			t.Fatalf("%q: reference results differ\ntext:\n%s\nrcfile:\n%s", q, want, got)
		}
		if rowRes.Stats.RecordsRead != wantRes.Stats.RecordsRead {
			t.Errorf("%q: unpruned records read differ: %d vs %d", q, wantRes.Stats.RecordsRead, rowRes.Stats.RecordsRead)
		}
		if gotRes.Stats.BytesRead < wantRes.Stats.BytesRead && wantRes.Stats.RecordsRead > 0 {
			projectingLower = true
		}
	}
	if !projectingLower {
		t.Error("no projecting query read fewer bytes over RCFile than over TextFile")
	}

	// Plan-level check of the same criterion: a column-subset aggregation
	// attributes strictly fewer projected bytes over RCFile.
	textT, _ := textW.Table("meterdata")
	rcT, _ := rcW.Table("meterdata")
	ranges := map[string]gridfile.Range{
		"userId": {Lo: storage.Int64(5), Hi: storage.Int64(30)},
	}
	project := []bool{true, false, false, true} // userId + powerConsumed
	wantAggs := []dgf.AggSpec{{Func: dgf.AggSum, Col: "powerconsumed"}}
	textPlan, err := textT.Dgf.Plan(textW.Cluster, ranges, wantAggs, dgf.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rcPlan, err := rcT.Dgf.Plan(rcW.Cluster, ranges, wantAggs, dgf.PlanOptions{Project: project})
	if err != nil {
		t.Fatal(err)
	}
	if rcPlan.ProjectedBytes <= 0 || rcPlan.ProjectedBytes >= textPlan.ProjectedBytes {
		t.Errorf("rc plan projected bytes = %d, want strictly below text %d",
			rcPlan.ProjectedBytes, textPlan.ProjectedBytes)
	}
}

// TestLoadRowsThroughDgfAppendRCFile: incremental loads into an indexed
// RCFile table flow through the append pipeline and stay queryable.
func TestLoadRowsThroughDgfAppendRCFile(t *testing.T) {
	w := testWarehouse(1 << 14)
	rows := setupMeterTableFormat(t, w, 20, 2, 2, "RCFILE")
	createDgf(t, w)
	extra := meterRows(20, 2, 1)
	if err := w.LoadRowsByName("meterdata", extra); err != nil {
		t.Fatal(err)
	}
	all := mustExec(t, w, `SELECT count(*) FROM meterdata`)
	if int(all.Rows[0][0].F) != len(rows)+len(extra) {
		t.Errorf("post-append count = %v, want %d", all.Rows[0][0].F, len(rows)+len(extra))
	}
}

// TestCreateIndexBadFormatProperty: an unknown 'format' index property must
// fail naming the accepted values instead of silently building TextFile.
func TestCreateIndexBadFormatProperty(t *testing.T) {
	w := testWarehouse(1 << 16)
	setupMeterTable(t, w, 10, 2, 2)
	_, err := w.ExecContext(context.Background(), `CREATE INDEX ic ON TABLE meterdata(userId) AS 'compact'
		IDXPROPERTIES ('format'='orcfile')`, ExecOptions{})
	if err == nil {
		t.Fatal("unknown format accepted")
	}
	if !strings.Contains(err.Error(), "orcfile") || !strings.Contains(err.Error(), "textfile") || !strings.Contains(err.Error(), "rcfile") {
		t.Errorf("error %q does not name the bad value and the accepted values", err)
	}
	// The accepted spellings still work.
	mustExec(t, w, `CREATE INDEX ic ON TABLE meterdata(userId) AS 'compact'
		IDXPROPERTIES ('format'='rcfile')`)
	mustExec(t, w, `CREATE INDEX ic2 ON TABLE meterdata(regionId) AS 'compact'
		IDXPROPERTIES ('format'='TextFile')`)
}
