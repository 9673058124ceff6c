package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef describes one reported metric. BENCHMARK.json repeats these
// tables; metrics_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is the gated set: what a grid company pays for the data (set-up
// time, memory, bytes stored) and the paper's clock. Every workload reports
// every one of them, never 0. The wall-clock query metrics and the write-path
// metrics are the first per-layer metrics below, under the issue's names and
// ungated: no query metric held a bound of 0.15 between runs of the same code
// on every workload, and the issue demotes such a metric rather than give it a
// loose gate (README, "Steadiness and the bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"setup_heap_mb", "MB", lower, 0.05},
	{"storage_bytes_per_user_byte", "ratio", lower, 0.01},
	{"sim_cluster_s", "s", lower, 0.001},
}

// perLayer attributes an end-to-end move to a layer. The driver takes them
// from the traced run; a metric that does not apply to a workload reads 0
// there. An untraced run prints the ones it measures (the query metrics over
// the whole pass, the write path) but does not put them in its result line.
var perLayer = []metricDef{
	// queries end to end, over HTTP (ungated, see above)
	{Name: "query_qps", Unit: "1/s", Better: higher},
	{Name: "query_p50_ms", Unit: "ms", Better: lower},
	{Name: "query_p95_ms", Unit: "ms", Better: lower},
	// the write path end to end (steady and burst phases of ingest_mixed)
	{Name: "load_ack_p50_ms", Unit: "ms", Better: lower},
	{Name: "load_visible_p50_ms", Unit: "ms", Better: lower},
	{Name: "load_acked_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "load_applied_rows_per_s", Unit: "rows/s", Better: higher},
	// server
	{Name: "server.http_overhead_us", Unit: "us", Better: lower},
	{Name: "server.cache_hit_us", Unit: "us", Better: lower},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "server.cache_evictions", Unit: "count", Better: lower},
	{Name: "server.cache_invalidations", Unit: "count", Better: lower},
	{Name: "server.plan_self_ms", Unit: "ms", Better: lower},
	{Name: "server.result_cache_self_ms", Unit: "ms", Better: lower},
	{Name: "server.admission_wait_p95_ms", Unit: "ms", Better: lower},
	{Name: "server.rejected", Unit: "count", Better: lower},
	{Name: "server.query_p99_ms", Unit: "ms", Better: lower},
	{Name: "server.load_decode_us_per_row", Unit: "us", Better: lower},
	{Name: "server.load_ack_p95_ms", Unit: "ms", Better: lower},
	{Name: "server.load_ack_p99_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.max_late_ms", Unit: "ms", Better: lower},
	// shard
	{Name: "shard.exec_us", Unit: "us", Better: lower},
	{Name: "shard.scatter_self_ms", Unit: "ms", Better: lower},
	{Name: "shard.skew", Unit: "ratio", Better: lower},
	{Name: "shard.fanout", Unit: "count", Better: lower},
	{Name: "shard.merge_us", Unit: "us", Better: lower},
	{Name: "shard.failovers", Unit: "count", Better: lower},
	// hive
	{Name: "hive.parse_us", Unit: "us", Better: lower},
	{Name: "hive.explain_us", Unit: "us", Better: lower},
	{Name: "hive.partial_ms", Unit: "ms", Better: lower},
	{Name: "hive.text_query_p50_ms", Unit: "ms", Better: lower},
	{Name: "hive.rc_query_p50_ms", Unit: "ms", Better: lower},
	{Name: "hive.qualifying_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "hive.scanned_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "hive.records_read", Unit: "count", Better: lower},
	{Name: "hive.bytes_read", Unit: "bytes", Better: lower},
	{Name: "hive.groups_skipped", Unit: "count", Better: higher},
	{Name: "hive.dict_probes", Unit: "count", Better: lower},
	{Name: "hive.runs_skipped", Unit: "count", Better: higher},
	{Name: "hive.vectorized_share", Unit: "ratio", Better: higher},
	{Name: "hive.warehouse_self_ms", Unit: "ms", Better: lower},
	// dgf
	{Name: "dgf.plan_us", Unit: "us", Better: lower},
	{Name: "dgf.inner_cells", Unit: "count", Better: lower},
	{Name: "dgf.boundary_cells", Unit: "count", Better: lower},
	{Name: "dgf.missing_cells", Unit: "count", Better: lower},
	{Name: "dgf.slices", Unit: "count", Better: lower},
	{Name: "dgf.slice_bytes", Unit: "bytes", Better: lower},
	{Name: "dgf.precompute_share", Unit: "ratio", Better: higher},
	{Name: "dgf.build_s", Unit: "s", Better: lower},
	{Name: "dgf.index_bytes", Unit: "bytes", Better: lower},
	{Name: "dgf.append_us_per_row", Unit: "us", Better: lower},
	// kvstore
	{Name: "kvstore.get_ns", Unit: "ns", Better: lower},
	{Name: "kvstore.multiget_ns_per_key", Unit: "ns", Better: lower},
	// storage
	{Name: "storage.decode_plain_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "storage.decode_dict_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "storage.decode_rle_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "storage.decode_allocs_per_group", Unit: "count", Better: lower},
	{Name: "storage.text_decode_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "storage.rc_write_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "storage.text_write_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "storage.bytes_per_row", Unit: "bytes", Better: lower},
	// mapreduce
	{Name: "mapreduce.job_overhead_us", Unit: "us", Better: lower},
	{Name: "mapreduce.shuffle_pairs_per_s", Unit: "1/s", Better: higher},
	{Name: "mapreduce.self_ms", Unit: "ms", Better: lower},
	{Name: "mapreduce.splits_per_query", Unit: "count", Better: lower},
	// wal
	{Name: "wal.append_us_per_record", Unit: "us", Better: lower},
	{Name: "wal.fsync_p50_ms", Unit: "ms", Better: lower},
	{Name: "wal.fsync_p95_ms", Unit: "ms", Better: lower},
	{Name: "wal.commit_us_per_row", Unit: "us", Better: lower},
	{Name: "wal.apply_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "wal.rows_per_apply_batch", Unit: "rows", Better: higher},
	{Name: "wal.backlog_max_rows", Unit: "rows", Better: lower},
	{Name: "wal.drain_ms", Unit: "ms", Better: lower},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "wal.replay_rows_per_s", Unit: "rows/s", Better: higher},
	// dfs, trace, runtime
	{Name: "dfs.read_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "trace.self_sum_ratio", Unit: "ratio", Better: higher},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: lower},
	{Name: "runtime.alloc_kb_per_op", Unit: "kB", Better: lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
}

// metricSet is one run's measurements: values by metric name, and how many
// samples stand behind each (0 for exact counts and single measurements).
type metricSet struct {
	values  map[string]float64
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, samples: map[string]int{}}
}

func (m *metricSet) set(name string, value float64, samples int) {
	m.values[name] = value
	m.samples[name] = samples
}

// print lists the defs' metrics by name with unit and sample count.
func (m *metricSet) print(w io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok {
			continue
		}
		note := ""
		if n := m.samples[d.Name]; n > 0 {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-7s%s\n", d.Name, v, d.Unit, note)
	}
}

// resultLine is the last line of standard output, the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders exactly the defs' metrics; one the run did not measure
// reads 0 (per-layer metrics that do not apply to the workload).
func (m *metricSet) result(defs []metricDef, attempted, failed int) resultLine {
	out := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

func (r resultLine) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// missing lists the defs' metrics the set lacks or holds as 0: an end-to-end
// metric must never read 0.
func (m *metricSet) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if m.values[d.Name] == 0 {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}
