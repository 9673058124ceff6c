package dgf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Row-group pruning compares typed zone bounds. Before, the bounds were
// stored as the text of the group's extreme cells and the planner parsed
// them under the column's kind, pruning nothing when either did not parse.
// The tests below hold groupDisjoint over the typed bounds, written and
// read back through the real side file, to exactly that text path.

// textGroupDisjoint is groupDisjoint as it was over text bounds, the
// columns of schema.
func textGroupDisjoint(schema *storage.Schema, mins, maxs []string, zones []zoneRange) bool {
	for _, z := range zones {
		kind := schema.Col(z.col).Kind
		minV, err1 := storage.ParseValue(kind, mins[z.col])
		maxV, err2 := storage.ParseValue(kind, maxs[z.col])
		if err1 == nil && err2 == nil && zoneDisjoint(minV, maxV, z.r) {
			return true
		}
	}
	return false
}

// textBounds renders a group's extreme cells as the writer finds them: the
// first cell, replaced by a later one only when Compare orders it strictly
// lower (min) or higher (max).
func textBounds(cells []storage.Value) (min, max string) {
	lo, hi := cells[0], cells[0]
	for _, v := range cells[1:] {
		if storage.Compare(v, lo) < 0 {
			lo = v
		}
		if storage.Compare(v, hi) > 0 {
			hi = v
		}
	}
	return lo.String(), hi.String()
}

// zoneCells are the cells whose bounds are hard to read back: ints Compare
// orders as floats (around ±2^53 and at the int64 ends), −0, NaN, ±Inf and
// long or exponent-form doubles, timestamps outside years 0000–9999, and
// strings that share prefixes, are empty or parse as another kind.
var zoneCells = []storage.Value{
	storage.Int64(0), storage.Int64(-1), storage.Int64(7), storage.Int64(1 << 53), storage.Int64(1<<53 + 1),
	storage.Int64(-(1 << 53) - 1), storage.Int64(math.MaxInt64), storage.Int64(math.MinInt64),
	storage.Float64(math.Copysign(0, -1)), storage.Float64(0), storage.Float64(math.NaN()),
	storage.Float64(math.Inf(1)), storage.Float64(math.Inf(-1)), storage.Float64(1e21), storage.Float64(2.5e-7),
	storage.Float64(0.1 + 0.2), storage.Float64(7.25), storage.Float64(9007199254740993), storage.Float64(5e-324),
	storage.TimeUnix(1354320000), storage.TimeUnix(1354320000 + 3661), storage.TimeUnix(-62167219201),
	storage.TimeUnix(253402300800), storage.TimeUnix(-1 << 45), storage.TimeUnix(1 << 45),
	storage.Str(""), storage.Str("a"), storage.Str("ab"), storage.Str("abc"), storage.Str("abd"),
	storage.Str("7"), storage.Str("-0"), storage.Str("1e3"), storage.Str("NaN"), storage.Str("2012-12-01"),
}

var zoneCellKinds = []storage.Kind{storage.KindInt64, storage.KindFloat64, storage.KindString, storage.KindTime}

// checkPruning writes cells as one group of a one-column RCFile of kind,
// reads its zone map back, and holds groupDisjoint to textGroupDisjoint for
// every range.
func checkPruning(t *testing.T, kind storage.Kind, cells []storage.Value, ranges []gridfile.Range) {
	t.Helper()
	schema := storage.NewSchema(storage.Column{Name: "x", Kind: kind})
	rows := make([]storage.Row, len(cells))
	for i, v := range cells {
		rows[i] = storage.Row{v}
	}
	fs := dfs.New(1 << 16)
	if _, err := storage.WriteRCRows(fs, "/t/data", schema, rows, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := storage.ReadColStats(fs, "/t/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("%d groups, want 1", len(stats))
	}
	min, max := textBounds(cells)
	for _, r := range ranges {
		zones := zoneRanges(schema, map[string]gridfile.Range{"x": r})
		got := groupDisjoint(stats[0], zones)
		if want := textGroupDisjoint(schema, []string{min}, []string{max}, zones); got != want {
			t.Errorf("%s column, cells %v, zone text [%q, %q], range %+v: typed pruning %v, text pruning %v",
				kind, cells, min, max, r, got, want)
		}
	}
}

// rangesOver returns closed, open and one-sided ranges with bounds drawn
// from bounds.
func rangesOver(bounds []storage.Value) []gridfile.Range {
	var out []gridfile.Range
	for _, lo := range bounds {
		out = append(out,
			gridfile.Range{Lo: lo, HiUnbounded: true},
			gridfile.Range{Lo: lo, LoOpen: true, HiUnbounded: true},
			gridfile.Range{Hi: lo, LoUnbounded: true},
			gridfile.Range{Hi: lo, HiOpen: true, LoUnbounded: true})
		for _, hi := range bounds {
			out = append(out, gridfile.Range{Lo: lo, Hi: hi}, gridfile.Range{Lo: lo, Hi: hi, LoOpen: true, HiOpen: true})
		}
	}
	return out
}

func TestZonePruningMatchesTextBounds(t *testing.T) {
	ranges := rangesOver(zoneCells)
	for _, tc := range []struct {
		name  string
		kind  storage.Kind
		cells []storage.Value
	}{
		{"ints around 2^53", storage.KindInt64, []storage.Value{storage.Int64(1<<53 + 1), storage.Int64(1 << 53)}},
		{"ints at the int64 ends", storage.KindInt64, []storage.Value{storage.Int64(math.MaxInt64), storage.Int64(math.MinInt64)}},
		{"negative 2^53", storage.KindInt64, []storage.Value{storage.Int64(-(1 << 53) - 1), storage.Int64(-7)}},
		{"negative zero", storage.KindFloat64, []storage.Value{storage.Float64(math.Copysign(0, -1)), storage.Float64(0)}},
		{"NaN first", storage.KindFloat64, []storage.Value{storage.Float64(math.NaN()), storage.Float64(3)}},
		{"NaN last", storage.KindFloat64, []storage.Value{storage.Float64(3), storage.Float64(math.NaN())}},
		{"infinities", storage.KindFloat64, []storage.Value{storage.Float64(math.Inf(-1)), storage.Float64(math.Inf(1))}},
		{"exponent forms", storage.KindFloat64, []storage.Value{storage.Float64(1e21), storage.Float64(2.5e-7), storage.Float64(5e-324)}},
		{"long doubles", storage.KindFloat64, []storage.Value{storage.Float64(0.1 + 0.2), storage.Float64(9007199254740993)}},
		{"timestamps past 9999", storage.KindTime, []storage.Value{storage.TimeUnix(1354320000), storage.TimeUnix(253402300800)}},
		{"timestamps before 0000", storage.KindTime, []storage.Value{storage.TimeUnix(-62167219201), storage.TimeUnix(0)}},
		{"timestamps far out", storage.KindTime, []storage.Value{storage.TimeUnix(-1 << 45), storage.TimeUnix(1 << 45)}},
		{"shared prefixes", storage.KindString, []storage.Value{storage.Str("abd"), storage.Str("ab"), storage.Str("abc")}},
		{"empty string", storage.KindString, []storage.Value{storage.Str("a"), storage.Str("")}},
		{"string cells in a bigint column", storage.KindInt64, []storage.Value{storage.Str("9"), storage.Str("10")}},
		{"double cells in a bigint column", storage.KindInt64, []storage.Value{storage.Float64(3), storage.Float64(1e21)}},
		{"bigint cells in a timestamp column", storage.KindTime, []storage.Value{storage.Int64(1354320000), storage.Int64(86400)}},
		{"timestamp cells in a double column", storage.KindFloat64, []storage.Value{storage.TimeUnix(1354320000), storage.Float64(2)}},
		{"bigint cells in a string column", storage.KindString, []storage.Value{storage.Int64(10), storage.Int64(9)}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkPruning(t, tc.kind, tc.cells, ranges) })
	}
}

func TestZonePruningMatchesTextBoundsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cell := func() storage.Value {
		switch rng.Intn(4) {
		case 0:
			return zoneCells[rng.Intn(len(zoneCells))]
		case 1:
			return storage.Int64(rng.Int63n(41) - 20 + int64(rng.Intn(2))<<53)
		case 2:
			return storage.Float64(float64(rng.Int63n(4001)-2000) / 100)
		default:
			return storage.Str(strings.Repeat("ab", rng.Intn(3)) + fmt.Sprint(rng.Intn(20)))
		}
	}
	for i := 0; i < 400; i++ {
		kind := zoneCellKinds[rng.Intn(len(zoneCellKinds))]
		cells := make([]storage.Value, 1+rng.Intn(5))
		for j := range cells {
			cells[j] = cell()
		}
		bounds := make([]storage.Value, 6)
		for j := range bounds {
			bounds[j] = cell()
		}
		checkPruning(t, kind, cells, rangesOver(bounds))
	}
}
