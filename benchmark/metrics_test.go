package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json repeats the metric tables and the workload list; this keeps
// the two in step and inside the driver's limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: reason is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
}

func TestMetricTablesRespectTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %q has a bound", d.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(endToEnd), len(perLayer))
	}
}

func TestResultLineCarriesExactlyTheAskedMetrics(t *testing.T) {
	m := newMetricSet()
	m.set("setup_s", 12.5, 3)
	m.set("hive.parse_us", 3, 10)
	line := m.result(endToEnd, 7, 0)
	if !line.Correct || line.Attempted != 7 || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("result line %+v", line)
	}
	if line.Metrics["setup_s"].Value != 12.5 || line.Metrics["setup_s"].Unit != "s" {
		t.Errorf("setup_s came out as %+v", line.Metrics["setup_s"])
	}
	if _, leaked := line.Metrics["hive.parse_us"]; leaked {
		t.Error("a per-layer metric leaked into the end-to-end result")
	}
	if got := m.missing(endToEnd); len(got) != len(endToEnd)-1 {
		t.Errorf("missing reports %v", got)
	}
	if got := worseBy(metricDef{Better: higher}, 100, 90); got != 0.1 {
		t.Errorf("worseBy higher-is-better = %v, want 0.1", got)
	}
	if got := worseBy(metricDef{Better: lower}, 100, 90); got != -0.1 {
		t.Errorf("worseBy lower-is-better = %v, want -0.1", got)
	}
}

// An A/A pair breaches its bound whichever run is the better one.
func TestApartIsSymmetric(t *testing.T) {
	qps := metricDef{Better: higher, Bound: 0.25}
	p95 := metricDef{Better: lower, Bound: 0.25}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want float64
	}{
		{qps, 100, 140, 40.0 / 140}, // second run faster: worseBy is negative
		{qps, 140, 100, 40.0 / 140},
		{p95, 100, 60, 40.0 / 60},
		{p95, 60, 100, 40.0 / 60},
		{p95, 100, 100, 0},
	} {
		got := apart(c.d, c.a, c.b)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("apart(%s, %v, %v) = %v, want %v", c.d.Better, c.a, c.b, got, c.want)
		}
		if c.want > 0 && got <= c.d.Bound {
			t.Errorf("apart(%s, %v, %v) = %v does not breach %v", c.d.Better, c.a, c.b, got, c.d.Bound)
		}
	}
}
