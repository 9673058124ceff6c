package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sharedEnv is built once for the whole test binary.
var sharedEnv = NewEnv(TestScale())

// reports memoises each experiment's latest report. TestPaperTablesGolden
// runs first and runs every experiment afresh; the shape tests after it read
// those runs.
var reports = map[string]*Report{}

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	if rep, ok := reports[id]; ok {
		return rep
	}
	return runFresh(t, id)
}

func runFresh(t *testing.T, id string) *Report {
	t.Helper()
	exp, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep, err := exp.Run(sharedEnv)
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	reports[id] = rep
	if len(rep.Rows) == 0 {
		t.Fatalf("experiment %s produced no rows", id)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	t.Logf("\n%s", buf.String())
	return rep
}

// cell parses a formatted numeric cell back to float (strips units).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(s)
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "x"):
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1e6, s[:len(s)-1]
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, s[:len(s)-2]
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, s[:len(s)-2]
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, s[:len(s)-2]
	case strings.HasSuffix(s, "B"):
		s = s[:len(s)-1]
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return f * mult
}

func findRow(t *testing.T, rep *Report, name string) []string {
	t.Helper()
	for _, row := range rep.Rows {
		if row[0] == name {
			return row
		}
	}
	t.Fatalf("%s: no row %q (have %v)", rep.ID, name, rep.Rows)
	return nil
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "tab2", "tab3", "fig8", "fig9", "fig10", "tab4",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"tab5", "tab6", "fig18", "namenode", "advisor", "partition",
		"ablation-precompute", "ablation-sliceskip", "ablation-kvstore",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(want))
	}
}

var update = flag.Bool("update", false, "re-record the paper tables under testdata/")

// wallSpeed matches the one wall-clock figure a report prints (fig3's note).
var wallSpeed = regexp.MustCompile(`[0-9]+ MB/s wall speed`)

// TestPaperTablesGolden pins every registered experiment's rendered table at
// TestScale() to testdata/<id>.txt, so any move of a simulated second, byte
// or record count in a paper table fails here. fig3's wall-clock append speed
// is masked. A deliberate move is re-recorded with -update.
func TestPaperTablesGolden(t *testing.T) {
	for _, exp := range All() {
		t.Run(exp.ID, func(t *testing.T) {
			var buf bytes.Buffer
			runFresh(t, exp.ID).WriteText(&buf)
			got := wallSpeed.ReplaceAll(buf.Bytes(), []byte("N MB/s wall speed"))
			path := filepath.Join("testdata", exp.ID+".txt")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s moved; recorded:\n%s\ngot:\n%s", exp.ID, want, got)
			}
		})
	}
}

func TestFig3Shape(t *testing.T) {
	rep := runExp(t, "fig3")
	withIdx := cell(t, findRow(t, rep, "DBMS-X with index")[1])
	withoutIdx := cell(t, findRow(t, rep, "DBMS-X without index")[1])
	hdfs := cell(t, findRow(t, rep, "HDFS")[1])
	if !(withIdx < withoutIdx && withoutIdx < hdfs) {
		t.Errorf("write throughput ordering broken: %v < %v < %v expected", withIdx, withoutIdx, hdfs)
	}
}

func TestTab2Shape(t *testing.T) {
	rep := runExp(t, "tab2")
	c3 := cell(t, findRow(t, rep, "Compact")[3]) // first Compact row is 3-dim
	var dgfSizes []float64
	for _, name := range []string{"DGF-L", "DGF-M", "DGF-S"} {
		dgfSizes = append(dgfSizes, cell(t, findRow(t, rep, name)[3]))
	}
	// Every DGF variant is smaller than the 3-dim Compact index, and the
	// coarser policies are far smaller. (At paper scale the gap is 821 GB
	// vs 13 MB because the Compact index grows with the data while the DGF
	// index is bounded by the grid; the sampled dataset narrows the DGF-S
	// gap but never closes it.)
	for i, s := range dgfSizes {
		if s >= c3 {
			t.Errorf("DGF size %d (%v) not below Compact-3D (%v)", i, s, c3)
		}
	}
	if dgfSizes[0]*20 > c3 || dgfSizes[1]*5 > c3 {
		t.Errorf("coarse DGF policies not far below Compact-3D: %v vs %v", dgfSizes, c3)
	}
	// Smaller intervals -> larger index.
	if !(dgfSizes[0] < dgfSizes[1] && dgfSizes[1] < dgfSizes[2]) {
		t.Errorf("DGF sizes not increasing L<M<S: %v", dgfSizes)
	}
}

func TestTab3Shape(t *testing.T) {
	rep := runExp(t, "tab3")
	for col := 1; col <= 3; col++ {
		compact := cell(t, findRow(t, rep, "Compact-2D")[col])
		dgfL := cell(t, findRow(t, rep, "DGF-L")[col])
		dgfS := cell(t, findRow(t, rep, "DGF-S")[col])
		if dgfL >= compact {
			t.Errorf("col %d: DGF-L reads %v, not below Compact %v", col, dgfL, compact)
		}
		if dgfS > dgfL {
			t.Errorf("col %d: DGF-S reads %v, more than DGF-L %v", col, dgfS, dgfL)
		}
	}
	// At 5%/12% DGF reads fewer records than the accurate answer set
	// (pre-computation answers the inner region from headers).
	for col := 2; col <= 3; col++ {
		accurate := cell(t, findRow(t, rep, "Accurate")[col])
		dgfM := cell(t, findRow(t, rep, "DGF-M")[col])
		if dgfM >= accurate {
			t.Errorf("col %d: DGF-M reads %v, want below accurate %v", col, dgfM, accurate)
		}
	}
}

func TestFigAggShapes(t *testing.T) {
	for _, id := range []string{"fig8", "fig9", "fig10"} {
		rep := runExp(t, id)
		scan := cell(t, findRow(t, rep, "ScanTable")[3])
		for _, sys := range []string{"DGF-large", "DGF-medium", "DGF-small"} {
			total := cell(t, findRow(t, rep, sys)[3])
			if total >= scan {
				t.Errorf("%s: %s (%v s) not faster than scan (%v s)", id, sys, total, scan)
			}
		}
		compact := cell(t, findRow(t, rep, "Compact-2D")[3])
		dgfM := cell(t, findRow(t, rep, "DGF-medium")[3])
		if dgfM >= compact {
			t.Errorf("%s: DGF (%v s) not faster than Compact (%v s)", id, dgfM, compact)
		}
	}
}

func TestAggFlatAcrossSelectivity(t *testing.T) {
	// The headline result: with pre-computation DGF aggregation cost stays
	// nearly flat from point to 12% while Compact degrades steeply.
	repPoint := runExp(t, "fig8")
	rep12 := runExp(t, "fig10")
	dgfPoint := cell(t, findRow(t, repPoint, "DGF-medium")[3])
	dgf12 := cell(t, findRow(t, rep12, "DGF-medium")[3])
	compactPoint := cell(t, findRow(t, repPoint, "Compact-2D")[3])
	compact12 := cell(t, findRow(t, rep12, "Compact-2D")[3])
	dgfGrowth := dgf12 / dgfPoint
	compactGrowth := compact12 / compactPoint
	if dgfGrowth > compactGrowth {
		t.Errorf("DGF grew %.2fx from point to 12%%, Compact %.2fx; DGF should stay flatter",
			dgfGrowth, compactGrowth)
	}
}

func TestTab4Shape(t *testing.T) {
	rep := runExp(t, "tab4")
	for col := 1; col <= 3; col++ {
		compact := cell(t, findRow(t, rep, "Compact-2D")[col])
		dgfM := cell(t, findRow(t, rep, "DGF-M")[col])
		accurate := cell(t, findRow(t, rep, "Accurate")[col])
		if dgfM >= compact {
			t.Errorf("col %d: DGF-M %v not below Compact %v", col, dgfM, compact)
		}
		// Group-by cannot use headers: DGF reads at least the accurate set.
		if dgfM < accurate {
			t.Errorf("col %d: group-by DGF-M read %v, below accurate %v", col, dgfM, accurate)
		}
	}
}

func TestFigGroupByJoinShapes(t *testing.T) {
	for _, id := range []string{"fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		rep := runExp(t, id)
		scan := cell(t, findRow(t, rep, "ScanTable")[3])
		dgfM := cell(t, findRow(t, rep, "DGF-medium")[3])
		compact := cell(t, findRow(t, rep, "Compact-2D")[3])
		if dgfM >= scan {
			t.Errorf("%s: DGF (%v) not below scan (%v)", id, dgfM, scan)
		}
		if dgfM >= compact {
			t.Errorf("%s: DGF (%v) not below Compact (%v)", id, dgfM, compact)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	rep := runExp(t, "fig17")
	// Pre-compute beats no-precompute for the partial query, and both DGF
	// variants beat Compact (paper: 2-4.6x).
	var pre, nopre float64
	for _, row := range rep.Rows {
		if row[0] == "DGF-precompute" && row[1] == "medium" {
			pre = cell(t, row[4])
		}
		if row[0] == "DGF-noprecompute" && row[1] == "medium" {
			nopre = cell(t, row[4])
		}
	}
	compact := cell(t, findRow(t, rep, "Compact-2D")[4])
	if pre > nopre {
		t.Errorf("precompute (%v s) slower than no-precompute (%v s)", pre, nopre)
	}
	if pre >= compact {
		t.Errorf("DGF partial query (%v s) not faster than Compact (%v s)", pre, compact)
	}
}

func TestTPCHShapes(t *testing.T) {
	tab5 := runExp(t, "tab5")
	dgfSize := cell(t, findRow(t, tab5, "DGFIndex")[3])
	c3Size := cell(t, tab5.Rows[0][3])
	// The gap widens with data volume (at paper scale 189GB vs 4.3MB): the
	// Compact index grows with distinct combinations, the DGF index is
	// bounded by the grid. At test scale just require a clear win.
	if dgfSize*1.5 > c3Size {
		t.Errorf("TPC-H DGF index (%v) not clearly below Compact-3D (%v)", dgfSize, c3Size)
	}

	tab6 := runExp(t, "tab6")
	whole := cell(t, findRow(t, tab6, "Whole Table")[1])
	c2 := cell(t, findRow(t, tab6, "Compact-2")[1])
	c3 := cell(t, findRow(t, tab6, "Compact-3")[1])
	dgf := cell(t, findRow(t, tab6, "DGFIndex")[1])
	accurate := cell(t, findRow(t, tab6, "Accurate")[1])
	// Uniform scatter: Compact filters nothing.
	if c2 < whole*0.95 || c3 < whole*0.95 {
		t.Errorf("Compact filtered scattered data: %v/%v of %v", c2, c3, whole)
	}
	if dgf >= whole/4 {
		t.Errorf("DGF read %v of %v, expected strong filtering", dgf, whole)
	}
	if dgf < accurate {
		t.Errorf("DGF (no precompute) read %v, below accurate %v", dgf, accurate)
	}

	fig18 := runExp(t, "fig18")
	scan := cell(t, findRow(t, fig18, "ScanTable")[3])
	dgfSec := cell(t, findRow(t, fig18, "DGFIndex")[3])
	c2Sec := cell(t, findRow(t, fig18, "Compact-2D")[3])
	c3Sec := cell(t, findRow(t, fig18, "Compact-3D")[3])
	if dgfSec >= scan {
		t.Errorf("Q6 via DGF (%v s) not below scan (%v s)", dgfSec, scan)
	}
	// The paper's counterintuitive result: Compact is SLOWER than scanning.
	if c2Sec < scan || c3Sec < scan {
		t.Errorf("Compact (%v / %v s) should not beat scan (%v s) on scattered data", c2Sec, c3Sec, scan)
	}
}

func TestNameNode(t *testing.T) {
	rep := runExp(t, "namenode")
	analytic := cell(t, rep.Rows[1][2])
	if analytic < 100*(1<<20) {
		t.Errorf("analytic NameNode memory %v below the paper's ~143MB", analytic)
	}
}

func TestAblations(t *testing.T) {
	pre := runExp(t, "ablation-precompute")
	// With precompute the last row's cost grows far less than without.
	first, last := pre.Rows[0], pre.Rows[len(pre.Rows)-1]
	withGrowth := cell(t, last[1]) / cell(t, first[1])
	withoutGrowth := cell(t, last[3]) / cell(t, first[3])
	if withGrowth > withoutGrowth {
		t.Errorf("precompute growth %.2fx exceeds no-precompute growth %.2fx", withGrowth, withoutGrowth)
	}

	skip := runExp(t, "ablation-sliceskip")
	with := cell(t, findRow(t, skip, "slice skipping (paper)")[2])
	without := cell(t, findRow(t, skip, "whole chosen splits")[2])
	if with >= without {
		t.Errorf("slice skipping read %v records, whole splits %v; skipping should read less", with, without)
	}

	kv := runExp(t, "ablation-kvstore")
	if len(kv.Rows) < 4 {
		t.Errorf("kvstore ablation rows = %d", len(kv.Rows))
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "x", Title: "T", PaperRef: "Fig 0",
		Header: []string{"a", "b"}}
	rep.AddRow("1", "2")
	rep.Notef("n=%d", 1)
	var txt, md bytes.Buffer
	rep.WriteText(&txt)
	rep.WriteMarkdown(&md)
	if !strings.Contains(txt.String(), "Fig 0") || !strings.Contains(md.String(), "| a | b |") {
		t.Errorf("rendering broken:\n%s\n%s", txt.String(), md.String())
	}
}

func TestAdvisorExperiment(t *testing.T) {
	rep := runExp(t, "advisor")
	if len(rep.Rows) != 4 {
		t.Fatalf("advisor rows = %d, want 4 (L/M/S/advised)", len(rep.Rows))
	}
	advised := findRow(t, rep, "advised")
	large := findRow(t, rep, "large")
	// The advised policy's 5% query should be at least as fast as the
	// coarsest hand-picked grid.
	if cell(t, advised[3]) > cell(t, large[3])*1.2 {
		t.Errorf("advised 5%% query (%s s) slower than DGF-large (%s s)", advised[3], large[3])
	}
}

func TestPartitionExperiment(t *testing.T) {
	rep := runExp(t, "partition")
	if len(rep.Rows) != 9 {
		t.Fatalf("partition rows = %d, want 9", len(rep.Rows))
	}
	// At every selectivity: scan >= partition-pruned scan >= DGF.
	for i := 0; i < 9; i += 3 {
		scan := cell(t, rep.Rows[i][3])
		part := cell(t, rep.Rows[i+1][3])
		dgf := cell(t, rep.Rows[i+2][3])
		if part >= scan {
			t.Errorf("row %d: partition scan (%v s) not below full scan (%v s)", i, part, scan)
		}
		if dgf >= part {
			t.Errorf("row %d: DGF (%v s) not below partition scan (%v s)", i, dgf, part)
		}
	}
}
