package main

// The traced run asks every /query for its span tree, wraps each HTTP call,
// /load and layer-probe call in a harness-side span, keeps everything in
// memory and writes out/<workload>.trace.json when the run ends. Per-layer
// self times come from here; end-to-end metrics never do.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

// maxFileSpans bounds the spans written to the trace file; aggregates always
// cover every request.
const maxFileSpans = 20000

// spanRec is one span of the trace file. Times are milliseconds from the
// start of the traced pass. Server spans sit inside their HTTP span assuming
// the round trip's overhead is split evenly before and after the server's
// own wall time.
type spanRec struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Request string            `json:"request"`
	Name    string            `json:"name"`
	Class   string            `json:"class,omitempty"`
	StartMs float64           `json:"start_ms"`
	EndMs   float64           `json:"end_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Layer names of the blocking path of one /query, in the order they run.
const (
	layerHTTP      = "http"         // harness HTTP span minus the server's root
	layerQuery     = "query"        // server root minus its children
	layerPlan      = "plan"         // parse + plan cache
	layerCache     = "result_cache" // key building + lookup
	layerAdmission = "admission"    // wait for a worker slot
	layerScatter   = "scatter"      // scatter minus its slowest shard
	layerShard     = "shard"        // slowest shard minus its warehouse
	layerWarehouse = "warehouse"    // warehouse minus its mapreduce job
	layerMapReduce = "mapreduce"
)

var layerOrder = []string{layerHTTP, layerQuery, layerPlan, layerCache, layerAdmission, layerScatter, layerShard, layerWarehouse, layerMapReduce}

// requestTrace is the blocking-path decomposition of one traced request.
type requestTrace struct {
	class     string
	rootMs    float64            // the harness HTTP span
	self      map[string]float64 // layer -> self ms along the blocking path
	skew      float64            // slowest shard / mean shard (0 without a scatter)
	failovers int
}

// harvestShard is the part of a harvest one goroutine writes.
type harvestShard struct {
	spans    []spanRec
	requests []requestTrace
}

// harvest collects traced requests; each client goroutine owns one shard.
type harvest struct {
	t0     time.Time
	shards []harvestShard
}

func newHarvest(writers int) *harvest {
	return &harvest{t0: time.Now(), shards: make([]harvestShard, writers)}
}

func (h *harvest) rel(t time.Time) float64 { return ms(t.Sub(h.t0)) }

// addQuery records one traced /query: the harness span, the server's tree
// under it, and the blocking-path self times.
func (h *harvest) addQuery(client, i int, s *stmt, reply *queryReply) {
	sh := &h.shards[client]
	start := h.rel(reply.sent)
	rt := requestTrace{class: s.Class, rootMs: ms(reply.rtt), self: map[string]float64{}}
	req := "q" + strconv.Itoa(i)
	keep := len(sh.spans) < maxFileSpans/len(h.shards)
	rootID := 0
	if keep {
		rootID = len(sh.spans) + 1 // local to the shard; buildTraceFile makes ids unique
		sh.spans = append(sh.spans, spanRec{ID: rootID, Request: req, Name: "http /query", Class: s.Class, StartMs: start, EndMs: start + rt.rootMs})
	}
	if reply.Trace == nil {
		rt.self[layerHTTP] = rt.rootMs
		sh.requests = append(sh.requests, rt)
		return
	}
	root := reply.Trace
	rt.self[layerHTTP] = rt.rootMs - root.WallMs
	blockingPath(root, &rt)
	sh.requests = append(sh.requests, rt)
	if keep {
		offset := start + (rt.rootMs-root.WallMs)/2
		sh.flatten(root, rootID, req, s.Class, offset)
	}
}

// addLoad records the harness span of one /load (the last shard is the
// loader's).
func (h *harvest) addLoad(b batch, sent time.Time, rtt time.Duration) {
	sh := &h.shards[len(h.shards)-1]
	if len(sh.spans) >= maxFileSpans/len(h.shards) {
		return
	}
	start := h.rel(sent)
	name := "http /load"
	if b.sync {
		name = "http /load?sync=1"
	}
	sh.spans = append(sh.spans, spanRec{ID: len(sh.spans) + 1, Request: "b" + strconv.Itoa(b.index), Name: name, StartMs: start, EndMs: start + ms(rtt)})
}

// flatten appends the server's span tree under parent.
func (sh *harvestShard) flatten(sn *dgfindex.TraceSpan, parent int, req, class string, offset float64) {
	id := len(sh.spans) + 1
	rec := spanRec{ID: id, Parent: parent, Request: req, Name: sn.Name, Class: class,
		StartMs: offset + sn.StartOffsetMs, EndMs: offset + sn.StartOffsetMs + sn.WallMs}
	if len(sn.Attrs) > 0 {
		rec.Attrs = map[string]string{}
		for _, a := range sn.Attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	sh.spans = append(sh.spans, rec)
	for i := range sn.Children {
		sh.flatten(&sn.Children[i], id, req, class, offset)
	}
}

func spanInterval(sn *dgfindex.TraceSpan) interval {
	return interval{sn.StartOffsetMs, sn.StartOffsetMs + sn.WallMs}
}

func childIntervals(sn *dgfindex.TraceSpan) []interval {
	out := make([]interval, len(sn.Children))
	for i := range sn.Children {
		out[i] = spanInterval(&sn.Children[i])
	}
	return out
}

// blockingPath walks the server's tree along the steps that block the
// reply. Children of every span but scatter run one after another, so the
// span's self time is its wall minus their union. A scatter's shards run in
// parallel and the slowest one sets its time: scatter's self time is its
// wall minus that child, and only that child is descended into.
func blockingPath(root *dgfindex.TraceSpan, rt *requestTrace) {
	var walk func(sn *dgfindex.TraceSpan)
	walk = func(sn *dgfindex.TraceSpan) {
		layer := sn.Name
		if strings.HasPrefix(layer, "shard ") {
			layer = layerShard
		}
		for _, e := range sn.Events {
			if strings.Contains(e.Msg, " failed: ") {
				rt.failovers++
			}
		}
		if sn.Name != layerScatter || len(sn.Children) == 0 {
			rt.self[layer] += selfTime(spanInterval(sn), childIntervals(sn))
			for i := range sn.Children {
				walk(&sn.Children[i])
			}
			return
		}
		slowest, total := &sn.Children[0], 0.0
		for i := range sn.Children {
			c := &sn.Children[i]
			total += c.WallMs
			if c.WallMs > slowest.WallMs {
				slowest = c
			}
		}
		if mean := total / float64(len(sn.Children)); mean > 0 {
			rt.skew = slowest.WallMs / mean
		}
		rt.self[layerScatter] += selfTime(spanInterval(sn), []interval{spanInterval(slowest)})
		walk(slowest)
	}
	walk(root)
}

// layerSummary aggregates the traced requests of one statement class (or of
// all of them).
type layerSummary struct {
	Requests int                `json:"requests"`
	RootMs   float64            `json:"root_ms_median"`
	SelfMs   map[string]float64 `json:"self_ms_median"`
	// SelfSumRatio is total self time over total root time: 1 when the
	// layers account for the whole round trip.
	SelfSumRatio float64 `json:"self_sum_ratio"`
}

func summarize(reqs []requestTrace) layerSummary {
	out := layerSummary{Requests: len(reqs), SelfMs: map[string]float64{}}
	byLayer := map[string][]float64{}
	var roots []float64
	var rootSum, selfSum float64
	for _, r := range reqs {
		roots = append(roots, r.rootMs)
		rootSum += r.rootMs
		for _, l := range layerOrder {
			v, ok := r.self[l]
			if !ok {
				continue
			}
			byLayer[l] = append(byLayer[l], v)
			selfSum += v
		}
	}
	out.RootMs = median(roots)
	for l, vs := range byLayer {
		out.SelfMs[l] = median(vs)
	}
	if rootSum > 0 {
		out.SelfSumRatio = selfSum / rootSum
	}
	return out
}

func (h *harvest) requests() []requestTrace {
	var all []requestTrace
	for i := range h.shards {
		all = append(all, h.shards[i].requests...)
	}
	return all
}

// traceFile is the JSON document written for a traced run.
type traceFile struct {
	Workload string                  `json:"workload"`
	Seed     int64                   `json:"seed"`
	Note     string                  `json:"note"`
	Layers   layerSummary            `json:"layers"`
	ByClass  map[string]layerSummary `json:"by_class"`
	Probes   []probeRec              `json:"probes"`
	Spans    []spanRec               `json:"spans"`
}

// probeRec is the harness-side span of one timed layer-probe repetition.
type probeRec struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	StartMs float64 `json:"start_ms"` // from the start of the probes
	EndMs   float64 `json:"end_ms"`
}

func (r *run) buildTraceFile(hv *harvest) {
	reqs := hv.requests()
	tf := &traceFile{
		Workload: r.def.name,
		Seed:     r.seed,
		Note:     "times in ms from the start of the traced pass; spans with a parent are the server's own, placed inside their http span; layers/by_class are blocking-path self times",
		Layers:   summarize(reqs),
		ByClass:  map[string]layerSummary{},
	}
	byClass := map[string][]requestTrace{}
	for _, q := range reqs {
		byClass[q.class] = append(byClass[q.class], q)
	}
	for c, qs := range byClass {
		tf.ByClass[c] = summarize(qs)
	}
	for i := range hv.shards {
		base := len(tf.Spans)
		for _, sp := range hv.shards[i].spans {
			sp.ID += base
			if sp.Parent != 0 {
				sp.Parent += base
			}
			tf.Spans = append(tf.Spans, sp)
		}
	}
	sort.SliceStable(tf.Spans, func(i, j int) bool { return tf.Spans[i].StartMs < tf.Spans[j].StartMs })
	r.tf = tf
}

func (r *run) writeTraceFile() error {
	if r.tf == nil {
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, r.def.name+".trace.json"), data, 0o644)
}

// layerMetrics fills the per-layer metrics that come from the two passes of
// a traced run: counters and splits of the untraced pass, self times of the
// traced one, and the difference between the two as tracing overhead.
func (r *run) layerMetrics(plain, traced *pass, snap dgfindex.ServerSnapshot) {
	n := len(plain.samples)
	if n == 0 || traced == nil || len(traced.samples) == 0 {
		return
	}
	nf := float64(n)
	overhead := make([]float64, n)
	byFormat := map[string][]float64{}
	for i, s := range plain.samples {
		overhead[i] = (s.rttMs - s.wallMs) * 1e3
		table := plain.source(s.i).Table
		byFormat[table] = append(byFormat[table], s.rttMs)
	}
	r.m.set("server.http_overhead_us", median(overhead), n)
	if len(r.def.tables) > 1 {
		r.m.set("hive.text_query_p50_ms", median(byFormat[r.def.tables[0].name]), len(byFormat[r.def.tables[0].name]))
		r.m.set("hive.rc_query_p50_ms", median(byFormat[r.def.tables[1].name]), len(byFormat[r.def.tables[1].name]))
	}

	rc := snap.ResultCache
	if lookups := rc.Hits + rc.Misses; lookups > 0 {
		// The fill and warm-up misses of cache_hot are not part of the
		// measured pass; the ratio is over its requests alone.
		r.m.set("server.cache_hit_ratio", float64(plain.cached)/nf, n)
	}
	r.m.set("server.cache_evictions", float64(rc.Evictions), 0)
	r.m.set("server.cache_invalidations", float64(rc.Invalidations), 0)
	r.m.set("server.rejected", float64(snap.Rejected), 0)

	r.m.set("shard.fanout", float64(plain.fanout)/nf, n)
	r.m.set("hive.records_read", float64(plain.recordsRead), 0)
	r.m.set("hive.bytes_read", float64(plain.bytesRead), 0)
	r.m.set("hive.groups_skipped", float64(plain.groupsSkipped), 0)
	r.m.set("hive.dict_probes", float64(plain.dictProbes), 0)
	r.m.set("hive.runs_skipped", float64(plain.runsSkipped), 0)
	r.m.set("hive.vectorized_share", float64(plain.vectorized)/nf, n)
	r.m.set("mapreduce.splits_per_query", float64(plain.splits)/nf, n)

	r.m.set("runtime.allocs_per_op", float64(plain.mem.Mallocs)/nf, n)
	r.m.set("runtime.alloc_kb_per_op", float64(plain.mem.TotalAlloc)/1024/nf, n)
	r.m.set("runtime.gc_pause_ms", float64(plain.mem.PauseTotalNs)/1e6, 0)

	// Same work at both ends of the comparison: statements per second.
	plainRate := nf / plain.wall.Seconds()
	tracedRate := float64(len(traced.samples)) / traced.wall.Seconds()
	r.m.set("trace.overhead_pct", (plainRate/tracedRate-1)*100, len(traced.samples))

	r.buildTraceFile(traced.hv)
	reqs := traced.hv.requests()
	all := r.tf.Layers
	r.m.set("trace.self_sum_ratio", all.SelfSumRatio, all.Requests)
	r.m.set("server.plan_self_ms", all.SelfMs[layerPlan], all.Requests)
	r.m.set("server.result_cache_self_ms", all.SelfMs[layerCache], all.Requests)
	r.m.set("shard.scatter_self_ms", all.SelfMs[layerScatter], all.Requests)
	r.m.set("hive.warehouse_self_ms", all.SelfMs[layerWarehouse], all.Requests)
	r.m.set("mapreduce.self_ms", all.SelfMs[layerMapReduce], all.Requests)
	var waits, skews []float64
	failovers := 0
	for _, q := range reqs {
		waits = append(waits, q.self[layerAdmission])
		if q.skew > 0 {
			skews = append(skews, q.skew)
		}
		failovers += q.failovers
	}
	r.m.set("server.admission_wait_p95_ms", percentile(waits, 95), len(waits))
	r.m.set("shard.skew", median(skews), len(skews))
	r.m.set("shard.failovers", float64(failovers), 0)
}
