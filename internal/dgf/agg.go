// Package dgf implements DGFIndex, the distributed grid file index of the
// paper (Section 4): construction as a data-reorganising MapReduce job
// (Algorithms 1 and 2), GFUKey/GFUValue pairs in a key-value store,
// pre-computed additive aggregations per Slice, and the three-step query
// pipeline (Algorithm 3, split filtering per Algorithm 4, and the
// slice-skipping record reader).
package dgf

import (
	"fmt"
	"strings"
)

// AggFunc enumerates the additive aggregation functions DGFIndex can
// pre-compute per GFU. The paper requires pre-computed UDFs to be additive;
// sum, count, min and max are; avg derives from sum/count at the SQL layer.
type AggFunc uint8

// Supported aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
)

// String returns the lower-case function name.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// AggSpec names one pre-computed aggregation, e.g. sum(powerConsumed).
// Col may also be a product of columns such as "num*price" — the paper's
// Section 4.1 example "we can pre-compute sum(num*price)" and TPC-H Q6's
// sum(l_extendedprice*l_discount) both need it; products of numeric columns
// remain additive under sum.
type AggSpec struct {
	Func AggFunc
	// Col is the aggregated column or a '*'-joined product of columns;
	// empty for count.
	Col string
}

// Factors splits a product column expression into its column names.
func (a AggSpec) Factors() []string {
	if a.Col == "" {
		return nil
	}
	parts := strings.Split(a.Col, "*")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// String renders the spec in HiveQL syntax.
func (a AggSpec) String() string {
	col := a.Col
	if a.Func == AggCount && col == "" {
		col = "*"
	}
	return a.Func.String() + "(" + col + ")"
}

// Key returns the canonical lower-case identity of the spec.
func (a AggSpec) Key() string { return strings.ToLower(a.String()) }

// ParseAggSpec parses "sum(powerConsumed)", "count(*)", "min(x)", "max(x)".
func ParseAggSpec(s string) (AggSpec, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return AggSpec{}, fmt.Errorf("dgf: bad aggregation spec %q", s)
	}
	name := strings.ToLower(strings.TrimSpace(s[:open]))
	col := strings.ReplaceAll(strings.TrimSpace(s[open+1:len(s)-1]), " ", "")
	var f AggFunc
	switch name {
	case "sum":
		f = AggSum
	case "count":
		f = AggCount
	case "min":
		f = AggMin
	case "max":
		f = AggMax
	default:
		return AggSpec{}, fmt.Errorf("dgf: aggregation %q is not additive; DGFIndex pre-computes sum/count/min/max", name)
	}
	if f == AggCount && (col == "*" || col == "1") {
		col = ""
	}
	if f != AggCount && col == "" {
		return AggSpec{}, fmt.Errorf("dgf: %s needs a column", name)
	}
	return AggSpec{Func: f, Col: col}, nil
}

// ParseAggSpecs parses a semicolon- or comma-at-top-level separated list
// such as "sum(powerConsumed);count(*)".
func ParseAggSpecs(s string) ([]AggSpec, error) {
	var out []AggSpec
	depth := 0
	start := 0
	flush := func(end int) error {
		part := strings.TrimSpace(s[start:end])
		if part == "" {
			return nil
		}
		spec, err := ParseAggSpec(part)
		if err != nil {
			return err
		}
		out = append(out, spec)
		return nil
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',', ';':
			if depth == 0 {
				if err := flush(i); err != nil {
					return nil, err
				}
				start = i + 1
			}
		}
	}
	if err := flush(len(s)); err != nil {
		return nil, err
	}
	return out, nil
}

// Accumulator folds record values into one aggregate cell.
type Accumulator struct {
	Func  AggFunc
	Value float64
	N     int64 // records folded; 0 means empty
}

// Fold adds one record's column value (ignored for count).
func (a *Accumulator) Fold(v float64) {
	if a.N == 0 {
		switch a.Func {
		case AggCount:
			a.Value = 1
		default:
			a.Value = v
		}
		a.N = 1
		return
	}
	a.N++
	switch a.Func {
	case AggSum:
		a.Value += v
	case AggCount:
		a.Value++
	case AggMin:
		if v < a.Value {
			a.Value = v
		}
	case AggMax:
		if v > a.Value {
			a.Value = v
		}
	}
}

// Merge combines another accumulator of the same function (the additive
// property the paper requires of pre-computed UDFs).
func (a *Accumulator) Merge(b Accumulator) {
	if b.N == 0 {
		return
	}
	if a.N == 0 {
		*a = b
		return
	}
	a.N += b.N
	switch a.Func {
	case AggSum, AggCount:
		a.Value += b.Value
	case AggMin:
		if b.Value < a.Value {
			a.Value = b.Value
		}
	case AggMax:
		if b.Value > a.Value {
			a.Value = b.Value
		}
	}
}

// Header is the pre-computed part of a GFUValue: one accumulator per
// AggSpec of the index, aligned positionally.
type Header []Accumulator

// NewHeader returns an empty header for the given specs.
func NewHeader(specs []AggSpec) Header {
	h := make(Header, len(specs))
	for i, s := range specs {
		h[i].Func = s.Func
	}
	return h
}

// newHeaders returns n empty headers for specs, cut from one allocation.
func newHeaders(specs []AggSpec, n int) []Header {
	accs := make([]Accumulator, n*len(specs))
	headers := make([]Header, n)
	for i := range headers {
		h := Header(accs[i*len(specs) : (i+1)*len(specs) : (i+1)*len(specs)])
		for j, s := range specs {
			h[j].Func = s.Func
		}
		headers[i] = h
	}
	return headers
}

// Merge folds other into h (both must share the same spec list).
func (h Header) Merge(other Header) {
	for i := range h {
		if i < len(other) {
			h[i].Merge(other[i])
		}
	}
}
