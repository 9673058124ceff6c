package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// The input must not be reordered.
	shuffled := []float64{3, 1, 2}
	percentile(shuffled, 50)
	if shuffled[0] != 3 || shuffled[1] != 1 || shuffled[2] != 2 {
		t.Errorf("percentile reordered its input: %v", shuffled)
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 50},     // nothing has ten samples beyond it
		{100, 90},    // p90 leaves 10, p95 only 5
		{199, 90},    // p95 leaves 9
		{200, 95},    // p95 leaves exactly 10
		{999, 95},    // p99 leaves 9
		{1000, 99},   // p99 leaves exactly 10
		{200000, 99}, // never above the highest candidate
	} {
		if got := highestPercentile(tc.n, 90, 95, 99); got != tc.want {
			t.Errorf("n=%d: highest percentile %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 100},
		{"sequential", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside the parent", []interval{{100, 130}}, 100},
		{"unsorted", []interval{{50, 60}, {0, 10}}, 80},
	} {
		if got := selfTime(parent, tc.children); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOpenLoopChargesStallsToTheDueTime(t *testing.T) {
	start := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC)
	loop := openLoop{start: start, period: 100 * time.Millisecond}
	if got := loop.due(3); got != start.Add(300*time.Millisecond) {
		t.Errorf("due(3) = %v", got)
	}
	// Operation 3 was sent 250 ms late because operation 2 stalled, and took
	// 20 ms: its latency is 270 ms, not 20.
	sent := loop.due(3).Add(250 * time.Millisecond)
	if got := loop.lateness(3, sent); got != 250*time.Millisecond {
		t.Errorf("lateness = %v, want 250ms", got)
	}
	if got := loop.latency(3, sent.Add(20*time.Millisecond)); got != 270*time.Millisecond {
		t.Errorf("latency = %v, want 270ms", got)
	}
	// A generator that is early (it never is, but clocks jitter) is not late.
	if got := loop.lateness(3, loop.due(3).Add(-time.Millisecond)); got != 0 {
		t.Errorf("lateness of an early send = %v, want 0", got)
	}
}

func TestClosedLoopSequenceIsTheSameForAnyClientCount(t *testing.T) {
	const ops = 500
	for _, clients := range []int{1, 2, 7} {
		var mu sync.Mutex
		seen := make([]int, ops)
		closedLoop(clients, 0, ops, func(_, i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("%d clients: operation %d ran %d times", clients, i, n)
			}
		}
	}
	// And the statement an operation number maps to never depends on who
	// asks, or in which order.
	forward := workloadList("mdrq_index", 7)
	backward := workloadList("mdrq_index", 7)
	want := make([]string, 60)
	for i := range want {
		want[i] = forward(i).SQL
	}
	for i := len(want) - 1; i >= 0; i-- {
		if got := backward(i).SQL; got != want[i] {
			t.Fatalf("statement %d differs by request order:\n%s\n%s", i, got, want[i])
		}
	}
}

func TestClosedLoopStopsAtTheDeadline(t *testing.T) {
	start := time.Now()
	calls := 0
	closedLoop(1, 30*time.Millisecond, 0, func(_, _ int) {
		calls++
		time.Sleep(time.Millisecond)
	})
	if calls == 0 || time.Since(start) > 2*time.Second {
		t.Errorf("%d calls in %v", calls, time.Since(start))
	}
}

// workloadList is the statement list of a workload, as a run builds it.
func workloadList(name string, seed int64) func(int) *stmt {
	r := &run{def: findWorkload(name)}
	return r.listSource(seed)
}
