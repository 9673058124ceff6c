package hive

import (
	"fmt"
	"sync"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// TestConcurrentSelectsDuringLoads hammers one shared Warehouse with
// parallel COUNT(*) queries while a loader appends batches. Loads are
// serialized as writers, so every query must observe a row count that is
// exactly a batch boundary — any other value is a torn read.
func TestConcurrentSelectsDuringLoads(t *testing.T) {
	w := testWarehouse(1 << 20)
	mustExec(t, w, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`)

	const batch = 40
	const batches = 5
	initial := meterRows(batch, 4, 1)
	if err := w.LoadRowsByName("meterdata", initial); err != nil {
		t.Fatal(err)
	}

	valid := map[int64]bool{}
	for k := 0; k <= batches; k++ {
		valid[int64((k+1)*batch)] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := w.Exec(`SELECT count(*) FROM meterdata`)
				if err != nil {
					errs <- err
					return
				}
				n := int64(res.Rows[0][0].AsFloat())
				if !valid[n] {
					errs <- fmt.Errorf("torn read: count %d is not a batch boundary", n)
					return
				}
			}
		}()
	}

	for k := 1; k <= batches; k++ {
		rows := meterRows(batch, 4, 1)
		for i := range rows {
			rows[i][0] = storage.Int64(int64(k*batch + i + 1))
		}
		if err := w.LoadRowsByName("meterdata", rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	res := mustExec(t, w, `SELECT count(*) FROM meterdata`)
	if got := int64(res.Rows[0][0].AsFloat()); got != int64((batches+1)*batch) {
		t.Fatalf("final count = %d, want %d", got, (batches+1)*batch)
	}
}

// TestConcurrentDDLAndQueries interleaves CREATE/DROP of scratch tables with
// queries over a stable table; the catalog map itself is under contention.
func TestConcurrentDDLAndQueries(t *testing.T) {
	w := testWarehouse(1 << 20)
	setupMeterTable(t, w, 30, 3, 2)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("scratch_%d_%d", g, i)
				if _, err := w.Exec(fmt.Sprintf("CREATE TABLE %s (a bigint, b double)", name)); err != nil {
					errs <- err
					return
				}
				if _, err := w.Exec(`SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 5`); err != nil {
					errs <- err
					return
				}
				if _, err := w.Exec("DROP TABLE " + name); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if names := w.TableNames(); len(names) != 1 || names[0] != "meterdata" {
		t.Fatalf("leftover tables: %v", names)
	}
}

// TestTableVersions checks the mutation counters the result cache keys on.
func TestTableVersions(t *testing.T) {
	w := testWarehouse(1 << 20)
	if v := w.TableVersion("meterdata"); v != 0 {
		t.Fatalf("version before create = %d, want 0", v)
	}
	setupMeterTable(t, w, 10, 2, 1)
	v1 := w.TableVersion("meterdata")
	if v1 == 0 {
		t.Fatal("version after create+load still 0")
	}
	cat := w.CatalogVersion()
	if err := w.LoadRowsByName("meterdata", meterRows(5, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if v2 := w.TableVersion("meterdata"); v2 != v1+1 {
		t.Fatalf("version after load = %d, want %d", v2, v1+1)
	}
	if w.CatalogVersion() != cat+1 {
		t.Fatal("catalog version did not advance with load")
	}
	// Drop must not reset the counter: a recreated table continues it.
	if err := w.DropTable("meterdata"); err != nil {
		t.Fatal(err)
	}
	v3 := w.TableVersion("meterdata")
	mustExec(t, w, `CREATE TABLE meterdata (userId bigint, x double)`)
	if v4 := w.TableVersion("meterdata"); v4 <= v3 {
		t.Fatalf("version after recreate = %d, want > %d", v4, v3)
	}
	vs := w.TableVersions("meterdata", "nosuch")
	if vs["meterdata"] == 0 || vs["nosuch"] != 0 {
		t.Fatalf("TableVersions snapshot wrong: %v", vs)
	}
}

func TestNormalize(t *testing.T) {
	a, err := Normalize("select  Sum(powerConsumed)\nFROM MeterData -- comment\nwhere USERID >= 3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize("SELECT sum(powerconsumed) FROM meterdata WHERE userid>=3")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("normal forms differ:\n%q\n%q", a, b)
	}
	// String literal case is semantic and must survive normalization.
	c, _ := Normalize("SELECT * FROM t WHERE city = 'Beijing'")
	d, _ := Normalize("SELECT * FROM t WHERE city = 'beijing'")
	if c == d {
		t.Fatal("string literal case was folded")
	}
	if _, err := Normalize("SELECT \x00"); err == nil {
		t.Fatal("want lex error")
	}
}

func TestStatementHelpers(t *testing.T) {
	stmt, err := Parse(`SELECT m.userId FROM meterdata m JOIN UserInfo u ON m.userId = u.userId WHERE m.userId >= 2`)
	if err != nil {
		t.Fatal(err)
	}
	tables := StatementTables(stmt)
	if len(tables) != 2 || tables[0] != "meterdata" || tables[1] != "userinfo" {
		t.Fatalf("tables = %v", tables)
	}
	if !IsReadOnly(stmt) {
		t.Fatal("plain SELECT should be read-only")
	}
	ins, err := Parse(`INSERT OVERWRITE DIRECTORY '/out' SELECT userId FROM meterdata`)
	if err != nil {
		t.Fatal(err)
	}
	if IsReadOnly(ins) {
		t.Fatal("INSERT OVERWRITE DIRECTORY is a write")
	}
	ddl, _ := Parse(`CREATE TABLE x (a bigint)`)
	if IsReadOnly(ddl) || len(StatementTables(ddl)) != 1 {
		t.Fatal("CREATE TABLE classification wrong")
	}
}
