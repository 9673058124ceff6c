package trace

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	start := time.Now()
	root := NewAt("query", start)
	root.Set("sql", "SELECT 1")
	child := root.ChildAt("execute", start.Add(2*time.Millisecond))
	child.Set("bytes_read", int64(4096))
	child.Eventf("split %d done", 7)
	child.FinishAt(start.Add(8 * time.Millisecond))
	root.FinishAt(start.Add(10 * time.Millisecond))

	if got := root.Wall(); got != 10*time.Millisecond {
		t.Fatalf("root wall = %v, want 10ms", got)
	}
	snap := root.Snapshot()
	if snap.Name != "query" || snap.WallMs != 10 {
		t.Fatalf("root snapshot = %+v", snap)
	}
	if snap.Attr("sql") != "SELECT 1" {
		t.Fatalf("sql attr = %q", snap.Attr("sql"))
	}
	ex := snap.Find("execute")
	if ex == nil {
		t.Fatal("execute span missing")
	}
	if ex.StartOffsetMs != 2 || ex.WallMs != 6 {
		t.Fatalf("execute offsets = %+v", ex)
	}
	if ex.Attr("bytes_read") != "4096" {
		t.Fatalf("bytes_read attr = %q", ex.Attr("bytes_read"))
	}
	if len(ex.Events) != 1 || ex.Events[0].Msg != "split 7 done" {
		t.Fatalf("events = %+v", ex.Events)
	}
	var walked []string
	snap.Walk(func(sn *SpanSnapshot) { walked = append(walked, sn.Name) })
	if len(walked) != 2 || walked[0] != "query" || walked[1] != "execute" {
		t.Fatalf("walk order = %v", walked)
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("Child on nil span should return nil")
	}
	s.Set("k", "v")
	s.Eventf("boom")
	s.Finish()
	if s.Wall() != 0 {
		t.Fatal("nil wall should be zero")
	}
	if snap := s.Snapshot(); snap.Name != "" {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	ctx := NewContext(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span should not ride context")
	}
}

func TestSpanContext(t *testing.T) {
	root := New("q")
	ctx := NewContext(context.Background(), root)
	if FromContext(ctx) != root {
		t.Fatal("span did not ride context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should yield nil span")
	}
}

func TestSpanEventCap(t *testing.T) {
	s := New("caps")
	for i := 0; i < maxEvents+5; i++ {
		s.Eventf("e%d", i)
	}
	s.Finish()
	snap := s.Snapshot()
	if len(snap.Events) != maxEvents {
		t.Fatalf("kept %d events, want %d", len(snap.Events), maxEvents)
	}
	if snap.DroppedEvents != 5 {
		t.Fatalf("dropped = %d, want 5", snap.DroppedEvents)
	}
}

func TestSpanFinishIdempotent(t *testing.T) {
	start := time.Now()
	s := NewAt("q", start)
	s.FinishAt(start.Add(5 * time.Millisecond))
	s.FinishAt(start.Add(50 * time.Millisecond))
	if got := s.Wall(); got != 5*time.Millisecond {
		t.Fatalf("wall = %v, want first finish to win", got)
	}
}

func TestSpanConcurrent(t *testing.T) {
	root := New("q")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			c := root.Child(fmt.Sprintf("shard %d", g))
			c.Set("replica", g)
			c.Eventf("working")
			c.Finish()
			_ = root.Snapshot()
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	root.Finish()
	if got := len(root.Snapshot().Children); got != 8 {
		t.Fatalf("children = %d, want 8", got)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Add(Record{SQL: fmt.Sprintf("q%d", i)})
	}
	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("retained %d, want 3", len(snaps))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if snaps[i].SQL != want {
			t.Fatalf("snapshot[%d] = %q, want %q (newest first)", i, snaps[i].SQL, want)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

func TestRecorderDisabled(t *testing.T) {
	r := NewRecorder(0)
	if r != nil {
		t.Fatal("size 0 should disable the recorder")
	}
	r.Add(Record{SQL: "q"})
	if r.Snapshot() != nil || r.Total() != 0 {
		t.Fatal("nil recorder should no-op")
	}
}

func TestPromWriterRoundTrip(t *testing.T) {
	var b strings.Builder
	w := NewPromWriter(&b)
	w.Scalar(MetricQueriesTotal, 42)
	w.Scalar(MetricInFlight, 3)
	w.Open(MetricPathQueriesTotal)
	w.Sample(map[Label]string{LabelPath: "dgfindex"}, 10)
	w.Sample(map[Label]string{LabelPath: "scan"}, 2)
	w.Open(MetricReplicaLive)
	w.Sample(map[Label]string{LabelShard: "0", LabelReplica: "1"}, 1)
	w.Histogram(MetricQueryLatencyMs, []float64{1, 5}, []int64{2, 1, 4}, 123.5)
	if w.Err() != nil {
		t.Fatalf("writer error: %v", w.Err())
	}
	fams, err := ParseMetrics(b.String())
	if err != nil {
		t.Fatalf("round trip failed to parse: %v\n%s", err, b.String())
	}
	if fams["dgf_queries_total"].Samples[0].Value != 42 {
		t.Fatalf("counter = %+v", fams["dgf_queries_total"].Samples)
	}
	paths := fams["dgf_path_queries_total"]
	if len(paths.Samples) != 2 || paths.Samples[0].Labels["path"] != "dgfindex" {
		t.Fatalf("counter vec = %+v", paths.Samples)
	}
	hist := fams["dgf_query_latency_ms"]
	var inf, count, sum float64
	for _, m := range hist.Samples {
		switch {
		case m.Name == "dgf_query_latency_ms_bucket" && m.Labels["le"] == "+Inf":
			inf = m.Value
		case m.Name == "dgf_query_latency_ms_count":
			count = m.Value
		case m.Name == "dgf_query_latency_ms_sum":
			sum = m.Value
		}
	}
	if inf != 7 || count != 7 || sum != 123.5 {
		t.Fatalf("histogram inf=%v count=%v sum=%v", inf, count, sum)
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var b strings.Builder
	w := NewPromWriter(&b)
	w.Open(counter("dgf_x_total", "Help with\nnewline and \\ slash."))
	w.Sample(map[Label]string{{"sql"}: "SELECT \"a\\b\"\nFROM t"}, 1)
	if w.Err() != nil {
		t.Fatalf("writer error: %v", w.Err())
	}
	fams, err := ParseMetrics(b.String())
	if err != nil {
		t.Fatalf("escaped output failed to parse: %v\n%s", err, b.String())
	}
	got := fams["dgf_x_total"].Samples[0].Labels["sql"]
	if got != "SELECT \"a\\b\"\nFROM t" {
		t.Fatalf("label round trip = %q", got)
	}
}

// TestPromWriterRefusesMisuse: a zero Family or Label, a Sample with no open
// family and a family written as the wrong type are refused. Err reports
// it, and the error is sticky: nothing is written after it.
func TestPromWriterRefusesMisuse(t *testing.T) {
	cases := map[string]func(w *PromWriter){
		"zero family scalar":    func(w *PromWriter) { w.Scalar(Family{}, 1) },
		"zero family open":      func(w *PromWriter) { w.Open(Family{}) },
		"zero family histogram": func(w *PromWriter) { w.Histogram(Family{}, nil, nil, 0) },
		"sample with no family": func(w *PromWriter) { w.Sample(nil, 1) },
		"sample after scalar": func(w *PromWriter) {
			w.Scalar(MetricInFlight, 1)
			w.Sample(nil, 1)
		},
		"zero label": func(w *PromWriter) {
			w.Open(MetricReplicaLive)
			w.Sample(map[Label]string{LabelShard: "0", {}: "1"}, 1)
		},
		"histogram as scalar":  func(w *PromWriter) { w.Scalar(MetricQueryLatencyMs, 1) },
		"counter as histogram": func(w *PromWriter) { w.Histogram(MetricQueriesTotal, nil, nil, 0) },
	}
	for name, misuse := range cases {
		var b strings.Builder
		w := NewPromWriter(&b)
		misuse(w)
		if w.Err() == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		before := b.String()
		w.Scalar(MetricQueriesTotal, 1)
		if b.String() != before {
			t.Errorf("%s: wrote after the error:\n%s", name, b.String())
		}
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type":        "dgf_x_total 1\n",
		"bad value":      "# HELP dgf_x_total x\n# TYPE dgf_x_total counter\ndgf_x_total banana\n",
		"bad label":      "# TYPE dgf_x_total counter\ndgf_x_total{le=1} 1\n",
		"duplicate":      "# TYPE dgf_x_total counter\ndgf_x_total 1\ndgf_x_total 2\n",
		"empty family":   "# TYPE dgf_x_total counter\n",
		"redeclared":     "# TYPE dgf_x counter\ndgf_x 1\n# TYPE dgf_x gauge\ndgf_x 2\n",
		"interleaved":    "# TYPE dgf_a counter\n# TYPE dgf_b counter\ndgf_b 1\ndgf_a 1\n",
		"bad type":       "# TYPE dgf_x_total widget\ndgf_x_total 1\n",
		"no inf bucket":  "# TYPE dgf_h histogram\ndgf_h_bucket{le=\"1\"} 1\ndgf_h_sum 1\ndgf_h_count 1\n",
		"not cumulative": "# TYPE dgf_h histogram\ndgf_h_bucket{le=\"1\"} 5\ndgf_h_bucket{le=\"+Inf\"} 3\ndgf_h_sum 1\ndgf_h_count 3\n",
		"count mismatch": "# TYPE dgf_h histogram\ndgf_h_bucket{le=\"+Inf\"} 3\ndgf_h_sum 1\ndgf_h_count 4\n",
	}
	for name, text := range cases {
		if _, err := ParseMetrics(text); err == nil {
			t.Errorf("%s: expected parse error, got none", name)
		}
	}
}

func TestParseMetricsValues(t *testing.T) {
	text := "# TYPE dgf_g gauge\ndgf_g{a=\"x\",b=\"y\"} +Inf\n"
	fams, err := ParseMetrics(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m := fams["dgf_g"].Samples[0]
	if !math.IsInf(m.Value, 1) || m.Labels["a"] != "x" || m.Labels["b"] != "y" {
		t.Fatalf("sample = %+v", m)
	}
}
