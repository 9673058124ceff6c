package hive

import (
	"context"
	"fmt"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// TraceSelect runs TRACE SELECT: run executes the SELECT under a fresh root
// span, and the rendered span tree is returned instead of its rows, with the
// query's stats. A warehouse and the shard router both answer TRACE through
// it, each passing its own SELECT path.
func TraceSelect(ctx context.Context, run func(context.Context) (*Result, error)) (*Result, error) {
	root := trace.New("query")
	root.Set("sql", "TRACE SELECT")
	res, err := run(trace.NewContext(ctx, root))
	root.Finish()
	if err != nil {
		return nil, err
	}
	out := renderTrace(root.Snapshot())
	out.Stats = res.Stats
	return out, nil
}

// renderTrace flattens a span tree into the two-column tabular shape EXPLAIN
// established: one row per span, depth-indented, wall duration alongside the
// span's annotations; events render as their own indented rows. The same
// tree that /query?trace=1 returns as JSON, readable from a SQL client.
func renderTrace(root trace.SpanSnapshot) *Result {
	res := &Result{Columns: []string{"span", "wall_ms", "detail"}}
	var walk func(sn trace.SpanSnapshot, depth int)
	walk = func(sn trace.SpanSnapshot, depth int) {
		indent := strings.Repeat("  ", depth)
		details := make([]string, 0, len(sn.Attrs))
		for _, a := range sn.Attrs {
			details = append(details, a.Key+"="+a.Value)
		}
		res.Rows = append(res.Rows, storage.Row{
			storage.Str(indent + sn.Name),
			storage.Str(fmt.Sprintf("%.3f", sn.WallMs)),
			storage.Str(strings.Join(details, " ")),
		})
		for _, e := range sn.Events {
			res.Rows = append(res.Rows, storage.Row{
				storage.Str(indent + "  @" + fmt.Sprintf("%.3f", e.OffsetMs) + "ms"),
				storage.Str(""),
				storage.Str(e.Msg),
			})
		}
		if sn.DroppedEvents > 0 {
			res.Rows = append(res.Rows, storage.Row{
				storage.Str(indent + "  ..."),
				storage.Str(""),
				storage.Str(fmt.Sprintf("%d events dropped", sn.DroppedEvents)),
			})
		}
		for _, c := range sn.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	res.Stats.RowsOut = len(res.Rows)
	return res
}
