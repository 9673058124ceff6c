package trace

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// PromWriter renders the Prometheus text exposition format (version 0.0.4)
// with no external dependency. It takes only registry values (Family,
// Label; see registry.go), so every name it writes is a registered one.
// Each family is written as a unit: Scalar writes a family with one
// unlabelled sample, Open writes a family's # HELP and # TYPE lines for the
// Sample calls that follow, and Histogram writes a histogram family whole.
// A zero Family or Label, a histogram family passed to Scalar or Open (or
// another family to Histogram) and a Sample with no open family are
// refused: the call writes nothing and Err reports it.
type PromWriter struct {
	w    io.Writer
	open Family // the family Sample writes; zero when none is open
	err  error
}

// NewPromWriter wraps w. Errors are sticky: the first one is remembered
// and returned by Err, and nothing is written after it, so callers check
// once at the end.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w}
}

// Err returns the first write error or refused call, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("trace: "+format, args...)
	}
}

// header writes fam's preamble if fam has the type the caller writes.
func (p *PromWriter) header(fam Family, histogram bool) bool {
	p.open = Family{}
	switch {
	case fam.name == "":
		p.fail("unregistered metric family")
		return false
	case (fam.typ == "histogram") != histogram:
		p.fail("metric family %s is a %s", fam.name, fam.typ)
		return false
	}
	p.printf("# HELP %s %s\n# TYPE %s %s\n", fam.name, escapeHelp(fam.help), fam.name, fam.typ)
	return true
}

// Scalar writes a counter or gauge family with one unlabelled sample.
func (p *PromWriter) Scalar(fam Family, value float64) {
	if p.header(fam, false) {
		p.sample(fam.name, "", value)
	}
}

// Open writes the preamble of a counter or gauge family whose samples the
// following Sample calls write. A family with no samples is only its
// preamble.
func (p *PromWriter) Open(fam Family) {
	if p.header(fam, false) {
		p.open = fam
	}
}

// Sample writes one sample of the open family. Labels are written in name
// order, so scrapes are deterministic.
func (p *PromWriter) Sample(labels map[Label]string, value float64) {
	if p.open.name == "" {
		p.fail("sample with no open metric family")
		return
	}
	keys := make([]Label, 0, len(labels))
	for k := range labels {
		if k.name == "" {
			p.fail("unregistered label on %s", p.open.name)
			return
		}
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Label) int { return strings.Compare(a.name, b.name) })
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k.name + `="` + escapeLabel(labels[k]) + `"`
	}
	p.sample(p.open.name, strings.Join(pairs, ","), value)
}

// Histogram writes a histogram family from explicit finite upper bounds and
// per-slot counts, where counts has one more slot than bounds (the last is
// the +Inf overflow). sum is the total of all observations in the
// histogram's unit.
func (p *PromWriter) Histogram(fam Family, bounds []float64, counts []int64, sum float64) {
	if !p.header(fam, true) {
		return
	}
	var cum int64
	for i, b := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		p.sample(fam.name+"_bucket", `le="`+formatFloat(b)+`"`, float64(cum))
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	p.sample(fam.name+"_bucket", `le="+Inf"`, float64(cum))
	p.sample(fam.name+"_sum", "", sum)
	p.sample(fam.name+"_count", "", float64(cum))
}

// sample writes one sample line; labels is the rendered label list.
func (p *PromWriter) sample(name, labels string, value float64) {
	if labels == "" {
		p.printf("%s %s\n", name, formatFloat(value))
		return
	}
	p.printf("%s{%s} %s\n", name, labels, formatFloat(value))
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}

func escapeHelp(s string) string {
	return strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(s)
}

func escapeLabel(s string) string {
	return strings.NewReplacer("\\", `\\`, "\n", `\n`, "\"", `\"`).Replace(s)
}
