package dgf

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"path"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// encodeGFUValue is the encoder the build uses (appendHeader, a slice count,
// appendLoc per Slice) driven from a decoded value: the generation and task
// come back out of the file name partFile made.
func encodeGFUValue(t testing.TB, v GFUValue) []byte {
	t.Helper()
	b := binary.AppendUvarint(appendHeader(nil, v.Header), uint64(len(v.Slices)))
	for _, s := range v.Slices {
		var gen, task int
		if _, err := fmt.Sscanf(path.Base(s.File), "part-%d-r-%d", &gen, &task); err != nil {
			t.Fatalf("slice file %q: %v", s.File, err)
		}
		b = appendLoc(b, gen, task, s.Start, s.End)
	}
	return b
}

// textGFUValue renders a value the way the index stored it before the binary
// codec: "sum:n,-,…|file:start:end;file:start:end" with shortest-decimal
// floats. The goldens use it to show that a pair holds what it always held.
func textGFUValue(v GFUValue) []byte {
	var b strings.Builder
	for i, a := range v.Header {
		if i > 0 {
			b.WriteByte(',')
		}
		if a.N == 0 {
			b.WriteByte('-')
			continue
		}
		b.WriteString(strconv.FormatFloat(a.Value, 'g', -1, 64))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(a.N, 10))
	}
	b.WriteByte('|')
	for i, s := range v.Slices {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s:%d:%d", s.File, s.Start, s.End)
	}
	return []byte(b.String())
}

// allFuncsIndex is the paper's example table indexed with one pre-compute of
// every function, after a build, an append into fresh and existing cells and
// an added pre-compute: its pairs have empty and full accumulators and one or
// two Slices.
func allFuncsIndex(t testing.TB) *Index {
	t.Helper()
	fs := dfs.New(1 << 20)
	if err := storage.WriteTextRows(fs, "/tbl/data", paperRows()); err != nil {
		t.Fatal(err)
	}
	spec := paperSpec()
	spec.Precompute = []AggSpec{{Func: AggSum, Col: "C"}, {Func: AggCount}, {Func: AggMin, Col: "C"}}
	ix, _, err := Build(testCfg(), fs, kvstore.New(), spec, paperSchema(), Source{Dir: "/tbl"}, "/tbl_dgf")
	if err != nil {
		t.Fatal(err)
	}
	late := []storage.Row{
		{storage.Int64(20), storage.Int64(20), storage.Float64(-2.0)},
		{storage.Int64(8), storage.Int64(14), storage.Float64(0.5)}, // cell 7_13
	}
	if err := storage.WriteTextRows(fs, "/staging/late", late); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Append(testCfg(), []string{"/staging/late"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AddPrecompute(testCfg(), []AggSpec{{Func: AggMax, Col: "C"}}); err != nil {
		t.Fatal(err)
	}
	return ix
}

// FuzzDecodeGFUValue: the decoder never panics on any bytes, and whatever it
// accepts is canonical — it re-encodes to exactly the bytes it came from.
func FuzzDecodeGFUValue(f *testing.F) {
	ix := allFuncsIndex(f)
	for _, p := range ix.KV.ScanPrefix(gfuPrefix) {
		f.Add(p.Value)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0}) // a zero spelt in two bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		ix.files = nil // arbitrary (generation, task) numbers would pile up
		v, err := ix.DecodeGFUValue(data)
		if err != nil {
			return
		}
		if len(v.Header) != len(ix.Spec.Precompute) {
			t.Fatalf("decoded %d accumulators, index has %d", len(v.Header), len(ix.Spec.Precompute))
		}
		if enc := encodeGFUValue(t, v); !bytes.Equal(enc, data) {
			t.Fatalf("% x decoded to %+v, which encodes to % x", data, v, enc)
		}
	})
}

// TestBuiltPairsRoundTrip: every pair a build, an append and an AddPrecompute
// wrote decodes and re-encodes to itself, and is smaller than its text form.
func TestBuiltPairsRoundTrip(t *testing.T) {
	ix := allFuncsIndex(t)
	pairs := ix.KV.ScanPrefix(gfuPrefix)
	if len(pairs) != 9 {
		t.Fatalf("%d pairs, want 9", len(pairs))
	}
	var binBytes, textBytes, twoSlices int
	for _, p := range pairs {
		v, err := ix.DecodeGFUValue(p.Value)
		if err != nil {
			t.Fatalf("%s: %v", p.Key, err)
		}
		if enc := encodeGFUValue(t, v); !bytes.Equal(enc, p.Value) {
			t.Errorf("%s: % x re-encodes to % x", p.Key, p.Value, enc)
		}
		if v.Header[1].N == 0 || v.Header[1].Value != float64(v.Header[1].N) {
			t.Errorf("%s: count accumulator %+v", p.Key, v.Header[1])
		}
		if len(v.Slices) == 2 {
			twoSlices++
		}
		binBytes += len(p.Value)
		textBytes += len(textGFUValue(v))
	}
	if twoSlices != 1 {
		t.Errorf("%d pairs hold two Slices, want 1 (7_13)", twoSlices)
	}
	if binBytes >= textBytes {
		t.Errorf("values take %d bytes, their text form %d: want fewer", binBytes, textBytes)
	}
	checkSliceTiling(t, ix)
}

// TestGFUValueRoundTripProperty: arbitrary headers over all four functions —
// empty accumulators, negative values, infinities — with several Slices,
// generations and tasks past one uvarint byte and offsets past 2^32 decode to
// what was encoded, bit for bit. A count's Value is its N on both sides: the
// encoder stores N alone and relies on Fold and Merge keeping the two equal.
func TestGFUValueRoundTripProperty(t *testing.T) {
	ix := &Index{DataDir: "/w/t_dgf", Spec: Spec{Precompute: []AggSpec{
		{Func: AggSum, Col: "a"}, {Func: AggCount}, {Func: AggMin, Col: "b"}, {Func: AggMax, Col: "b"},
	}}}
	rng := rand.New(rand.NewSource(24))
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return -rng.ExpFloat64() * 1e9
		default:
			return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // any finite
		}
	}
	var sawEmpty, sawBigTask, sawBigOffset bool
	f := func() bool {
		v := GFUValue{Header: NewHeader(ix.Spec.Precompute)}
		for i := range v.Header {
			if rng.Intn(3) == 0 {
				sawEmpty = true
				continue
			}
			v.Header[i].N = 1 + rng.Int63n(1<<uint(rng.Intn(40)))
			v.Header[i].Value = float()
			if v.Header[i].Func == AggCount {
				v.Header[i].Value = float64(v.Header[i].N)
			}
		}
		for n := rng.Intn(5); n > 0; n-- {
			gen, task := rng.Intn(300), rng.Intn(300)
			start := rng.Int63n(1 << uint(20+rng.Intn(30)))
			sawBigTask = sawBigTask || (gen >= 128 && task >= 128)
			sawBigOffset = sawBigOffset || start >= 1<<32
			v.Slices = append(v.Slices, SliceLoc{File: ix.partFile(int64(gen), int64(task)), Start: start, End: start + rng.Int63n(1<<20)})
		}
		enc := encodeGFUValue(t, v)
		back, err := ix.DecodeGFUValue(enc)
		if err != nil {
			t.Logf("% x: %v", enc, err)
			return false
		}
		for i := range v.Header {
			if back.Header[i].Func != v.Header[i].Func || back.Header[i].N != v.Header[i].N ||
				math.Float64bits(back.Header[i].Value) != math.Float64bits(v.Header[i].Value) {
				t.Logf("accumulator %d: %+v, want %+v", i, back.Header[i], v.Header[i])
				return false
			}
		}
		return reflect.DeepEqual(back.Slices, v.Slices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if !sawEmpty || !sawBigTask || !sawBigOffset {
		t.Errorf("generator missed a case: empty accumulator %v, generation and task >= 128 %v, offset >= 2^32 %v", sawEmpty, sawBigTask, sawBigOffset)
	}
}

// TestDecodeGFUValueRejects: NaN, every truncation of a valid value, trailing
// bytes, numbers spelt longer than they need to be or past int64, and a Slice
// whose end overflows are all errors.
func TestDecodeGFUValueRejects(t *testing.T) {
	ix := allFuncsIndex(t)
	good, ok := ix.KV.Get(gfuPrefix + "7_13")
	if !ok {
		t.Fatal("no pair 7_13")
	}
	if _, err := ix.DecodeGFUValue(good); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := ix.DecodeGFUValue(good[:cut]); !errors.Is(err, errBadGFUValue) {
			t.Errorf("the first %d of %d bytes: err = %v", cut, len(good), err)
		}
	}
	if _, err := ix.DecodeGFUValue(append(append([]byte(nil), good...), 0)); !errors.Is(err, errBadGFUValue) {
		t.Errorf("a trailing byte: err = %v", err)
	}
	nan := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(nan[1:], math.Float64bits(math.NaN())) // the sum, after its one-byte N
	if _, err := ix.DecodeGFUValue(nan); !errors.Is(err, errBadGFUValue) {
		t.Errorf("a NaN sum: err = %v", err)
	}
	empty := appendHeader(nil, NewHeader(ix.Spec.Precompute))
	for name, locs := range map[string][]byte{
		"a count of zero in two bytes": {0x80, 0},
		"a count past int64":           binary.AppendUvarint(nil, 1<<63),
		"more Slices than bytes":       {2, 0, 0, 0, 1},
		"an end past int64":            append(binary.AppendUvarint([]byte{1, 0, 0}, math.MaxInt64), 1),
	} {
		if _, err := ix.DecodeGFUValue(append(append([]byte(nil), empty...), locs...)); !errors.Is(err, errBadGFUValue) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// gfuPairs copies the store's GFU pairs.
func gfuPairs(ix *Index) map[string]string {
	out := map[string]string{}
	for _, p := range ix.KV.ScanPrefix(gfuPrefix) {
		out[p.Key] = string(p.Value)
	}
	return out
}

// fullScanCount is the record count of a full scan of the index's data directory
// — what count(*) over the table reads with indexes disabled.
func fullScanCount(t *testing.T, ix *Index) int64 {
	t.Helper()
	stats, err := mapreduce.RunContext(context.Background(), testCfg(), &mapreduce.Job{
		Name:  "count",
		Input: &mapreduce.FileInput{FS: ix.FS, Dir: ix.DataDir, Format: ix.Format, Schema: ix.Schema},
		Map:   func(mapreduce.Record, mapreduce.Emit) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats.InputRecords
}

// TestAppendRefusesUnreadablePair: a load into a cell whose stored value does
// not decode used to overwrite it, dropping the cell's earlier Slices from
// every later query. It must fail naming the GFUKey and leave every pair —
// the other reduce tasks' included — and every data file as it was: the
// files the failed run's other reduce tasks wrote used to stay, so a full
// scan counted the rows of a load that returned an error, twice after a
// retry.
func TestAppendRefusesUnreadablePair(t *testing.T) {
	ix, _, fs := buildPaperIndex(t, 1<<20)
	good, _ := ix.KV.Get(gfuPrefix + "7_13")
	files := hashTree(t, fs, ix.DataDir)
	if n := fullScanCount(t, ix); n != 9 {
		t.Fatalf("a full scan of the built index counts %d rows, want 9", n)
	}
	// One late record for 7_13 and records for ten fresh cells, which hash to
	// other reduce tasks.
	rows := []storage.Row{{storage.Int64(8), storage.Int64(14), storage.Float64(0.5)}}
	for i := int64(0); i < 10; i++ {
		rows = append(rows, storage.Row{storage.Int64(20 + 3*i), storage.Int64(20), storage.Float64(2)})
	}
	if err := storage.WriteTextRows(fs, "/staging/late", rows); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"text form": []byte("1:2|/tbl_dgf/part-0-r-00000:0:18"),
	} {
		ix.KV.Put(gfuPrefix+"7_13", bad)
		before, size, entries := gfuPairs(ix), ix.SizeBytes(), ix.Entries()
		_, err := ix.Append(testCfg(), []string{"/staging/late"})
		if !errors.Is(err, errBadGFUValue) || !strings.Contains(err.Error(), "GFU 7_13") {
			t.Fatalf("%s: append err = %v, want one naming GFU 7_13", name, err)
		}
		if after := gfuPairs(ix); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the failed append changed the stored pairs: %d before, %d after", name, len(before), len(after))
		}
		if ix.SizeBytes() != size || ix.Entries() != entries {
			t.Errorf("%s: the failed append moved the totals: %d bytes / %d pairs, were %d / %d", name, ix.SizeBytes(), ix.Entries(), size, entries)
		}
		if n := fullScanCount(t, ix); n != 9 || hashTree(t, fs, ix.DataDir) != files {
			t.Errorf("%s: the failed append left data behind: a full scan counts %d rows, want 9", name, n)
		}
		// Planning over the cell fails the same way instead of answering
		// without it.
		if _, err := ix.Plan(testCfg(), map[string]gridfile.Range{}, nil, PlanOptions{}); !errors.Is(err, errBadGFUValue) {
			t.Errorf("%s: plan err = %v", name, err)
		}
	}
	// With the value readable again the same load goes through and merges.
	ix.KV.Put(gfuPrefix+"7_13", good)
	if _, err := ix.Append(testCfg(), []string{"/staging/late"}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ix.lookupGFU("7_13")
	if err != nil || !ok || len(v.Slices) != 2 || v.Header[0].N != 3 || math.Abs(v.Header[0].Value-1.5) > 1e-12 {
		t.Errorf("7_13 after the retried append: %+v, %v, %v", v, ok, err)
	}
	if ix.Entries() != 18 {
		t.Errorf("%d pairs after the retried append, want 8 + 10", ix.Entries())
	}
	if n := fullScanCount(t, ix); n != 9+11 {
		t.Errorf("a full scan after the retried append counts %d rows, want 9 + 11", n)
	}
}

// planBenchIndex is the golden table (24,000 readings, 12 x 10 x 10 cells)
// after its build and a late load into the third day's cells, with a range on
// each of the three dimensions as in the paper's MDRQ.
func planBenchIndex(b testing.TB) (*Index, map[string]gridfile.Range) {
	b.Helper()
	fs := dfs.New(1 << 16)
	if err := storage.WriteTextRows(fs, "/tbl/data", goldenRows(0, goldenUsers, 0, goldenReadings)); err != nil {
		b.Fatal(err)
	}
	if err := storage.WriteTextRows(fs, "/staging/later", goldenRows(0, goldenUsers, 8, 12)); err != nil {
		b.Fatal(err)
	}
	ix, _, err := Build(testCfg(), fs, kvstore.New(), goldenSpec(), goldenSchema(), Source{Dir: "/tbl"}, "/tbl_dgf")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ix.Append(testCfg(), []string{"/staging/later"}); err != nil {
		b.Fatal(err)
	}
	const day = 24 * 3600
	return ix, map[string]gridfile.Range{
		"userId":   {Lo: storage.Int64(75), Hi: storage.Int64(520)},
		"regionId": {Lo: storage.Int64(2), Hi: storage.Int64(9)},
		"ts":       {Lo: storage.TimeUnix(goldenDay0 + day + 3600), Hi: storage.TimeUnix(goldenDay0 + 9*day), HiOpen: true},
	}
}

// TestPlanGroupsInnerHeaders: grouped by the unit-interval regionId
// dimension, the plan reads the same cells and scans the same boundary
// slices as the scalar plan, and splits the inner result into one header per
// region, keyed by the region. A GROUP BY column that is not a unit-interval
// dimension (a wider bigint interval, a day-wide timestamp, a double or a
// column the grid does not have) plans like DisablePrecompute, and so does a
// scalar or grouped plan whose ranges constrain a column that is no
// dimension: the headers count rows that range rejects.
func TestPlanGroupsInnerHeaders(t *testing.T) {
	ix, ranges := planBenchIndex(t)
	want := []AggSpec{{Func: AggSum, Col: "powerConsumed"}, {Func: AggCount}}
	plan := func(opts PlanOptions) *Plan {
		p, err := ix.Plan(testCfg(), ranges, want, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	scalar, grouped := plan(PlanOptions{}), plan(PlanOptions{GroupBy: []string{"REGIONID"}})
	if !grouped.Aggregation || grouped.InnerCells != scalar.InnerCells || grouped.BoundaryCells != scalar.BoundaryCells ||
		grouped.MissingCells != scalar.MissingCells || !slices.Equal(grouped.Slices, scalar.Slices) {
		t.Fatalf("grouped plan: aggregation %v, %d/%d/%d cells, %d slices; scalar: %d/%d/%d cells, %d slices", grouped.Aggregation,
			grouped.InnerCells, grouped.BoundaryCells, grouped.MissingCells, len(grouped.Slices),
			scalar.InnerCells, scalar.BoundaryCells, scalar.MissingCells, len(scalar.Slices))
	}
	if len(scalar.PreGroups) != 1 || len(scalar.PreGroups[0].Key) != 0 {
		t.Fatalf("scalar plan has groups %+v, want one without a key", scalar.PreGroups)
	}
	total := NewHeader(want)
	for i, g := range grouped.PreGroups {
		if len(g.Key) != 1 || g.Key[0] != storage.Int64(int64(i+2)) {
			t.Errorf("group %d has key %v, want regionId %d", i, g.Key, i+2)
		}
		total.Merge(g.Header)
	}
	if len(grouped.PreGroups) != 8 {
		t.Errorf("%d groups, want regions 2-9", len(grouped.PreGroups))
	}
	// A column named twice keys each group by its value twice.
	twice := plan(PlanOptions{GroupBy: []string{"regionId", "regionId"}})
	if len(twice.PreGroups) != 8 || !slices.Equal(twice.PreGroups[3].Key, []storage.Value{storage.Int64(5), storage.Int64(5)}) {
		t.Errorf("GROUP BY regionId, regionId: %d groups, the fourth keyed %v", len(twice.PreGroups), twice.PreGroups[3].Key)
	}
	pre := scalar.PreGroups[0].Header
	if total[1] != pre[1] || math.Abs(total[0].Value-pre[0].Value) > 1e-9*math.Abs(pre[0].Value) {
		t.Errorf("groups add up to %+v, the scalar plan's header is %+v", total, pre)
	}

	noPre := plan(PlanOptions{DisablePrecompute: true})
	for _, cols := range [][]string{{"userId"}, {"ts"}, {"powerConsumed"}, {"vendor"}, {"regionId", "ts"}} {
		p := plan(PlanOptions{GroupBy: cols})
		if p.Aggregation || p.PreGroups != nil || p.InnerCells != 0 || !slices.Equal(p.Slices, noPre.Slices) {
			t.Errorf("GROUP BY %v: aggregation %v, %d groups, %d inner cells, %d slices; want the %d slices of a plan without headers",
				cols, p.Aggregation, len(p.PreGroups), p.InnerCells, len(p.Slices), len(noPre.Slices))
		}
	}
	filtered := maps.Clone(ranges)
	filtered["powerConsumed"] = gridfile.Range{Lo: storage.Float64(5), HiUnbounded: true}
	for _, cols := range [][]string{nil, {"regionId"}} {
		p, err := ix.Plan(testCfg(), filtered, want, PlanOptions{GroupBy: cols})
		if err != nil {
			t.Fatal(err)
		}
		if p.Aggregation || p.PreGroups != nil || p.InnerCells != 0 || !slices.Equal(p.Slices, noPre.Slices) {
			t.Errorf("GROUP BY %v with a range on powerConsumed: aggregation %v, %d groups, %d inner cells, %d slices; want the %d slices of a plan without headers",
				cols, p.Aggregation, len(p.PreGroups), p.InnerCells, len(p.Slices), len(noPre.Slices))
		}
	}
}

// BenchmarkPlan is dgf.plan_us in miniature: an aggregation plan (448 inner
// cells answered from headers, 192 boundary cells located), the same
// aggregation grouped by the unit-interval regionId dimension (the 448 inner
// headers merged into 8 groups) and a slice-only plan over the same 640
// cells. Each asserts its own allocation budget, recorded from the binary
// codec, which measures 95, 115 and 49 allocations (a group costs its key and
// its header); the text codec — two key strings, a GFUValue, a header, a
// string copy of the value and a file name per cell — cost 9,920 and 5,870 on
// the scalar and slice-only plans.
func BenchmarkPlan(b *testing.B) {
	ix, ranges := planBenchIndex(b)
	for _, bc := range []struct {
		name          string
		want          []AggSpec
		groupBy       []string
		groups        int
		inner, budget int64
	}{
		{"aggregate", []AggSpec{{Func: AggSum, Col: "powerConsumed"}, {Func: AggCount}}, nil, 1, 448, 120},
		{"grouped", []AggSpec{{Func: AggSum, Col: "powerConsumed"}, {Func: AggCount}}, []string{"regionId"}, 8, 448, 150},
		{"slices", nil, nil, 0, 0, 70},
	} {
		b.Run(bc.name, func(b *testing.B) {
			plan := func() *Plan {
				p, err := ix.Plan(testCfg(), ranges, bc.want, PlanOptions{GroupBy: bc.groupBy})
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			if p := plan(); p.InnerCells != bc.inner || p.InnerCells+p.BoundaryCells != 640 || int64(len(p.Slices)) <= p.BoundaryCells || len(p.PreGroups) != bc.groups {
				b.Fatalf("plan has %d inner and %d boundary cells, %d slices and %d groups, want %d inner of 640 in %d groups",
					p.InnerCells, p.BoundaryCells, len(p.Slices), len(p.PreGroups), bc.inner, bc.groups)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan()
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(5, func() { plan() }); allocs > float64(bc.budget) {
				b.Fatalf("%.0f allocs/op, budget %d", allocs, bc.budget)
			}
		})
	}
}
