package dgf

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/kvstore"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

func advisorSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Column{Name: "userId", Kind: storage.KindInt64},
		storage.Column{Name: "regionId", Kind: storage.KindInt64},
		storage.Column{Name: "ts", Kind: storage.KindTime},
		storage.Column{Name: "power", Kind: storage.KindFloat64},
	)
}

func advisorSample(users, regions, days int, seed int64) []storage.Row {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC).Unix()
	rows := make([]storage.Row, 0, users*days)
	for d := 0; d < days; d++ {
		for u := 1; u <= users; u++ {
			rows = append(rows, storage.Row{
				storage.Int64(int64(u)),
				storage.Int64(int64(u%regions + 1)),
				storage.TimeUnix(base + int64(d)*24*3600),
				storage.Float64(rng.Float64() * 100),
			})
		}
	}
	return rows
}

// historyOf builds n queries with fixed per-dimension extents.
func historyOf(n int, userExtent int64, days int64) []map[string]gridfile.Range {
	base := time.Date(2012, 12, 1, 0, 0, 0, 0, time.UTC).Unix()
	var out []map[string]gridfile.Range
	for i := 0; i < n; i++ {
		lo := int64(i%50 + 1)
		out = append(out, map[string]gridfile.Range{
			"userId": {Lo: storage.Int64(lo), Hi: storage.Int64(lo + userExtent)},
			"ts":     {Lo: storage.TimeUnix(base), Hi: storage.TimeUnix(base + days*24*3600)},
		})
	}
	return out
}

func TestSuggestPolicyMatchesQueryExtent(t *testing.T) {
	sample := advisorSample(2000, 11, 10, 1)
	history := historyOf(20, 600, 5)
	adv, err := SuggestPolicy(advisorSchema(), []string{"regionId", "userId", "ts"}, sample, history,
		AdvisorConfig{TargetSpanCells: 10, MaxCells: 1 << 30, MinRowsPerCell: 1, TotalRows: int64(len(sample))})
	if err != nil {
		t.Fatal(err)
	}
	// userId queries span 600 values; target 10 cells -> interval near 60.
	ui := adv.Policy.DimIndex("userId")
	if got := adv.Policy.Dims[ui].IntervalI; got < 40 || got > 90 {
		t.Errorf("userId interval = %d, want near 60", got)
	}
	// ts queries span 5 days; target 10 cells -> half-day intervals,
	// snapped to the hour grid.
	ti := adv.Policy.DimIndex("ts")
	if got := adv.Policy.Dims[ti].IntervalI; got < 6*3600 || got > 24*3600 {
		t.Errorf("ts interval = %ds, want around half a day", got)
	}
	// regionId is never constrained: the full span is the extent.
	ri := adv.Policy.DimIndex("regionId")
	if got := adv.Policy.Dims[ri].IntervalI; got < 1 || got > 3 {
		t.Errorf("regionId interval = %d, want 1-3", got)
	}
	if err := adv.Policy.Validate(); err != nil {
		t.Errorf("suggested policy invalid: %v", err)
	}
	if adv.String() == "" {
		t.Error("empty IDXPROPERTIES rendering")
	}
}

func TestSuggestPolicyRespectsBudgets(t *testing.T) {
	sample := advisorSample(5000, 11, 10, 2)
	history := historyOf(10, 50, 1) // narrow queries want very fine grids
	adv, err := SuggestPolicy(advisorSchema(), []string{"regionId", "userId", "ts"}, sample, history,
		AdvisorConfig{TargetSpanCells: 20, MaxCells: 2000, MinRowsPerCell: 1, TotalRows: int64(len(sample))})
	if err != nil {
		t.Fatal(err)
	}
	if adv.EstimatedCells > 2000 {
		t.Errorf("cells = %d exceeds budget 2000", adv.EstimatedCells)
	}
	// Rows-per-cell floor.
	adv2, err := SuggestPolicy(advisorSchema(), []string{"userId"}, sample, history,
		AdvisorConfig{TargetSpanCells: 50, MaxCells: 1 << 40, MinRowsPerCell: 500, TotalRows: int64(len(sample))})
	if err != nil {
		t.Fatal(err)
	}
	if adv2.EstimatedRowsPerCell < 450 { // some slack for rounding
		t.Errorf("rows per cell = %.0f, want >= ~500", adv2.EstimatedRowsPerCell)
	}
}

func TestSuggestPolicyErrors(t *testing.T) {
	schema := advisorSchema()
	sample := advisorSample(10, 2, 1, 3)
	if _, err := SuggestPolicy(schema, []string{"userId"}, nil, nil, AdvisorConfig{}); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := SuggestPolicy(schema, nil, sample, nil, AdvisorConfig{}); err == nil {
		t.Error("no dimensions accepted")
	}
	if _, err := SuggestPolicy(schema, []string{"ghost"}, sample, nil, AdvisorConfig{}); err == nil {
		t.Error("unknown column accepted")
	}
	stringSchema := storage.NewSchema(storage.Column{Name: "s", Kind: storage.KindString})
	strRows := []storage.Row{{storage.Str("x")}}
	if _, err := SuggestPolicy(stringSchema, []string{"s"}, strRows, nil, AdvisorConfig{}); err == nil {
		t.Error("string dimension accepted")
	}
}

func TestSuggestPolicySingleValueDim(t *testing.T) {
	// A dimension where every record has the same value must not divide by
	// zero or produce a zero interval.
	schema := storage.NewSchema(storage.Column{Name: "x", Kind: storage.KindInt64})
	rows := make([]storage.Row, 100)
	for i := range rows {
		rows[i] = storage.Row{storage.Int64(42)}
	}
	adv, err := SuggestPolicy(schema, []string{"x"}, rows, nil, AdvisorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Policy.Dims[0].IntervalI < 1 {
		t.Errorf("interval = %d", adv.Policy.Dims[0].IntervalI)
	}
}

// TestSuggestedPolicyBuildsWorkingIndex closes the loop: the advised policy
// must build an index that answers queries correctly.
func TestSuggestedPolicyBuildsWorkingIndex(t *testing.T) {
	schema := advisorSchema()
	sample := advisorSample(500, 11, 10, 4)
	history := historyOf(10, 100, 3)
	adv, err := SuggestPolicy(schema, []string{"regionId", "userId", "ts"}, sample, history,
		AdvisorConfig{TotalRows: int64(len(sample))})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(1 << 20)
	if err := storage.WriteTextRows(fs, "/tbl/data", sample); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Name: "advised", Policy: adv.Policy,
		Precompute: []AggSpec{{Func: AggSum, Col: "power"}}}
	ix, _, err := Build(testCfg(), fs, kvstore.New(), spec, schema, Source{Dir: "/tbl"}, "/tbl_dgf")
	if err != nil {
		t.Fatal(err)
	}
	q := history[0]
	plan, err := ix.Plan(testCfg(), q, []AggSpec{{Func: AggSum, Col: "power"}}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := scanSum(t, ix, plan, q, 3)
	if plan.Aggregation {
		got += preHeader(plan)[0].Value
	}
	var want float64
	for _, r := range sample {
		ok := true
		for name, rng := range q {
			if !rng.Contains(r[schema.ColIndex(name)]) {
				ok = false
				break
			}
		}
		if ok {
			want += r[3].F
		}
	}
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("advised-policy query = %v, want %v", got, want)
	}
}

// Property: the advisor always returns a valid policy within its cell
// budget, whatever the sample and history shapes.
func TestSuggestPolicyAlwaysValidProperty(t *testing.T) {
	schema := advisorSchema()
	f := func(seedRaw uint8, usersRaw, extentRaw uint16, budgetRaw uint8) bool {
		users := int(usersRaw%2000) + 10
		sample := advisorSample(users, 11, 5, int64(seedRaw))
		history := historyOf(5, int64(extentRaw%1000)+1, 2)
		budget := int64(budgetRaw)*100 + 100
		adv, err := SuggestPolicy(schema, []string{"regionId", "userId", "ts"}, sample, history,
			AdvisorConfig{MaxCells: budget, MinRowsPerCell: 1, TotalRows: int64(len(sample))})
		if err != nil {
			return false
		}
		if adv.Policy.Validate() != nil {
			return false
		}
		// The budget may be infeasible (cells cannot drop below 1 per dim);
		// accept hitting the floor.
		return adv.EstimatedCells <= budget || adv.EstimatedCells <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
