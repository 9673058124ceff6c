package main

import (
	"math"
	"testing"

	dgfindex "github.com/smartgrid-oss/dgfindex"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

func span(name string, start, wall float64, children ...dgfindex.TraceSpan) dgfindex.TraceSpan {
	return dgfindex.TraceSpan{Name: name, StartOffsetMs: start, WallMs: wall, Children: children}
}

// A scatter's shards run in parallel: only the slowest is on the blocking
// path, and the layers' self times add up to the root exactly.
func TestBlockingPathFollowsTheSlowestShard(t *testing.T) {
	root := span("query", 0, 100,
		span("plan", 1, 2),
		span("result_cache", 3, 1),
		span("admission", 4, 1),
		span("scatter", 5, 90,
			span("shard 0", 6, 40, span("warehouse", 7, 30, span("mapreduce", 10, 20))),
			span("shard 1", 6, 80, span("warehouse", 8, 70, span("mapreduce", 20, 50))),
			span("shard 2", 6, 20),
		),
	)
	rt := requestTrace{self: map[string]float64{}}
	blockingPath(&root, &rt)
	want := map[string]float64{
		layerQuery: 6, layerPlan: 2, layerCache: 1, layerAdmission: 1,
		layerScatter: 10, layerShard: 10, layerWarehouse: 20, layerMapReduce: 50,
	}
	sum := 0.0
	for layer, w := range want {
		if got := rt.self[layer]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s self time %v, want %v", layer, got, w)
		}
		sum += rt.self[layer]
	}
	if math.Abs(sum-root.WallMs) > 1e-9 {
		t.Errorf("self times sum to %v, root is %v", sum, root.WallMs)
	}
	if wantSkew := 80 / ((40.0 + 80 + 20) / 3); math.Abs(rt.skew-wantSkew) > 1e-9 {
		t.Errorf("skew %v, want %v", rt.skew, wantSkew)
	}
}

func TestBlockingPathCountsFailovers(t *testing.T) {
	shard := span("shard 3", 1, 5)
	shard.Events = []trace.EventSnapshot{
		{OffsetMs: 2, Msg: "replica 0 failed: connection reset"},
		{OffsetMs: 2, Msg: "replica 0 ejected"},
	}
	root := span("query", 0, 10, span("scatter", 0, 9, shard))
	rt := requestTrace{self: map[string]float64{}}
	blockingPath(&root, &rt)
	if rt.failovers != 1 {
		t.Errorf("failovers %d, want 1", rt.failovers)
	}
}
