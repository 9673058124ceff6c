package bench

import (
	"context"

	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
)

func init() {
	register(Experiment{
		ID:       "advisor",
		Title:    "Splitting-policy advisor vs hand-picked policies",
		PaperRef: "Section 8 (future work)",
		Run:      expAdvisor,
	})
}

// expAdvisor implements the paper's future work — choosing the splitting
// policy from the data distribution and the query history — and pits the
// advised policy against the hand-picked Large/Medium/Small grids on the
// same mixed workload.
func expAdvisor(e *Env) (*Report, error) {
	m, err := e.Meter()
	if err != nil {
		return nil, err
	}
	// The query history: the workload the figures use.
	var history []map[string]gridfile.Range
	for _, k := range []selKind{selPoint, sel5, sel5, sel12} {
		history = append(history, m.query(k).Ranges())
	}

	// Advise from a sample of the data plus the history.
	sampleSize := len(m.rows)
	if sampleSize > 50000 {
		sampleSize = 50000
	}
	tRef, _ := m.WM.Table("meterdata")
	advice, err := dgf.SuggestPolicy(tRef.Schema, []string{"regionId", "userId", "ts"},
		m.rows[:sampleSize], history, dgf.AdvisorConfig{TotalRows: int64(len(m.rows))})
	if err != nil {
		return nil, err
	}

	// Build a warehouse with the advised policy.
	wAdv := hive.NewWarehouse(dfs.New(e.Scale.BlockSize), e.Base.Scaled(m.sf), "/warehouse")
	if err := loadMeter(wAdv, m.cfg, m.rows); err != nil {
		return nil, err
	}
	tAdv, _ := wAdv.Table("meterdata")
	spec := dgf.Spec{Name: "idx_advised", Policy: advice.Policy}
	specPre, err := dgf.ParseAggSpecs("sum(powerConsumed);count(*)")
	if err != nil {
		return nil, err
	}
	spec.Precompute = specPre
	if _, err := wAdv.BuildDgfIndex(tAdv, spec); err != nil {
		return nil, err
	}

	r := &Report{ID: "advisor", Title: "Splitting-policy advisor vs hand-picked policies",
		PaperRef: "Section 8 (future work)",
		Header:   []string{"policy", "index size", "point (s)", "5% (s)", "12% (s)", "records@5%"}}
	variants := append(m.dgfVariants(), struct {
		Name string
		W    *hive.Warehouse
	}{"advised", wAdv})
	for _, v := range variants {
		tb, _ := v.W.Table("meterdata")
		cells := make([]string, 0, 6)
		cells = append(cells, v.Name, bytesHuman(tb.Dgf.SizeBytes()))
		var rec5 int64
		for _, k := range []selKind{selPoint, sel5, sel12} {
			res, err := v.W.ExecContext(context.Background(), aggSQL(m.query(k)), hive.ExecOptions{})
			if err != nil {
				return nil, err
			}
			cells = append(cells, secs(res.Stats.SimTotalSec()))
			if k == sel5 {
				rec5 = res.Stats.RecordsRead
			}
		}
		cells = append(cells, count(rec5))
		r.AddRow(cells...)
	}
	r.Notef("advised IDXPROPERTIES: %s (projected %d cells, %.0f rows/GFU)",
		advice.String(), advice.EstimatedCells, advice.EstimatedRowsPerCell)
	r.Notef("the advisor (the paper's stated future work) sizes intervals so a typical historical query spans ~12 cells per dimension under index-size and Slice-population budgets")
	return r, nil
}
