// Fixture emitter for the promlabels analyzer: every family and label
// written through the PromWriter must come from the registry const
// blocks declared in the sibling trace package.
package server

import (
	"fmt"

	"promlabels/trace"
)

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func Write(p *trace.PromWriter, shard int, qps float64) {
	p.Gauge("dgf_up", "Process is up.", nil, 1)       // ok: literal in the registry
	p.Gauge(trace.MetricUp, "Process is up.", nil, 1) // ok: registry constant

	p.Counter("dgf_bogus_total", "Not registered.", nil, 1) // want `metric family "dgf_bogus_total" is not in the dgflint:metric-registry const set`

	p.Counter(fmt.Sprintf("dgf_shard_%d_total", shard), "Built per shard.", nil, 1) // want `dynamically built metric family name`

	p.CounterVec("dgf_queries_total", "Queries.", "shard", map[string]float64{"a": qps}) // ok
	p.CounterVec("dgf_queries_total", "Queries.", "user", nil)                           // want `label name "user" is not in the dgflint:metric-labels const set`

	p.GaugeRow("dgf_up", shardLabels(shard), 1)               // ok: local helper returning registered keys
	p.GaugeRow("dgf_up", map[string]string{"shard": "0"}, 1)  // ok: literal registered key
	p.GaugeRow("dgf_up", map[string]string{"user": "bob"}, 1) // want `label name "user" is not in the dgflint:metric-labels const set`
}

func shardLabels(shard int) map[string]string {
	return map[string]string{"shard": itoa(shard)}
}

// writeVec forwards its name parameter into a family position, so its
// call sites are checked instead of this body.
func writeVec(p *trace.PromWriter, name string, vals map[string]float64) {
	p.CounterVec(name, "Forwarded.", "shard", vals)
}

func Emit(p *trace.PromWriter) {
	writeVec(p, "dgf_queries_total", nil) // ok: registered family through the forwarder
	writeVec(p, "dgf_nope_total", nil)    // want `metric family "dgf_nope_total" is not in the dgflint:metric-registry const set`
}
