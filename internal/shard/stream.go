// Streaming: the router's cursor is hive.NewCursor over one producer that
// follows the routeSelect decision. A pass-through streams shard 0 alone; an
// aggregate (no row exists until every shard's partial state merges) runs
// the scatter-gather and pushes its finalized rows; any other SELECT streams
// every target shard through fanOut into the cursor's one sink. Each shard's
// stream is one withFailover call, the same loop every other read uses: its
// attempt runs the replica's Warehouse.SelectStream inline under kill
// supervision, so no router code opens a warehouse cursor and no row
// crosses a second channel.
package shard

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// SelectCursor opens a streaming cursor over one SELECT across the fleet,
// consuming the same routeSelect decision execution does. A pass-through
// (one-shard fleets, shard-0-only tables) keeps the warehouse's own stats; a
// scatter's stats merge the way the gather's do, under the "sharded(k/n)"
// label. It returns once every target shard has planned the statement, or
// with the root cause of the shard that could not. Rows arrive in shard
// completion order; a LIMIT is enforced globally at delivery and cancels
// the shard scans once satisfied, as does Close.
func (r *Router) SelectCursor(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (hive.Cursor, error) {
	targets, passthrough, err := r.routeSelect(s)
	if err != nil {
		return nil, err
	}
	return hive.NewCursor(ctx, s.Limit, func(ctx context.Context, cols func([]string), sink func(storage.Row) bool) (hive.QueryStats, error) {
		switch {
		case passthrough:
			return r.streamShard(ctx, 0, s, opts, cols, sink)
		case hive.IsAggregate(s):
			res, err := r.scatter(ctx, s, opts, targets)
			if err != nil {
				return hive.QueryStats{}, err
			}
			cols(res.Columns)
			return res.Stats, push(ctx, res.Rows, sink)
		}
		return r.streamScatter(ctx, s, opts, targets, cols, sink)
	})
}

// streamScatter streams every target shard into sink through fanOut. cols
// is called once every target has planned, so a dead shard fails the open;
// a shard that planned waits for its siblings before its rows flow, so no
// row can fill the cursor's buffer before the cursor exists.
func (r *Router) streamScatter(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions, targets []int, cols func([]string), sink func(storage.Row) bool) (hive.QueryStats, error) {
	var unplanned atomic.Int64
	unplanned.Store(int64(len(targets)))
	planned := make(chan struct{})
	stats := make([]hive.QueryStats, len(targets))
	err := fanOut(ctx, targets, func(ctx context.Context, i, si int) (err error) {
		counted := false
		shardCols := func(names []string) {
			if !counted {
				counted = true
				if unplanned.Add(-1) == 0 {
					cols(names)
					close(planned)
				}
			}
			select {
			case <-planned:
			case <-ctx.Done():
			}
		}
		stats[i], err = r.streamShard(ctx, si, s, opts, shardCols, sink)
		return err
	})
	merged := stats[0]
	for _, st := range stats[1:] {
		mergeStats(&merged, st)
	}
	merged.AccessPath = fmt.Sprintf("sharded(%d/%d):%s", len(targets), len(r.sets), stats[0].AccessPath)
	return merged, err
}

// streamShard streams one shard's rows into sink: one withFailover call
// whose attempt runs SelectStream on the chosen replica. While the shard has
// another candidate, the attempt buffers its rows and they reach sink only
// once its scan completed cleanly, so a replica that dies mid-scan replays
// on a sibling without duplicating a row already delivered (a warehouse's
// row order is split-completion order, so skipping the rows already
// delivered would be unsound). The shard's last candidate (always, when
// Replicas is 1) pushes rows the moment they arrive. The stats are those of
// the attempt that delivered the rows.
func (r *Router) streamShard(ctx context.Context, si int, s *hive.SelectStmt, opts hive.ExecOptions, cols func([]string), sink func(storage.Row) bool) (hive.QueryStats, error) {
	var stats hive.QueryStats
	var buf []storage.Row
	err := r.sets[si].withFailover(ctx, func(kctx context.Context, rep *replica, last bool) (err error) {
		buf = buf[:0]
		put := sink
		if !last {
			put = func(row storage.Row) bool {
				buf = append(buf, row)
				return s.Limit <= 0 || len(buf) < s.Limit
			}
		}
		stats, err = rep.w.SelectStream(kctx, s, opts, cols, put)
		return err
	})
	if err != nil {
		return stats, err
	}
	return stats, push(ctx, buf, sink)
}

// push delivers rows into sink until it refuses one: a satisfied LIMIT
// (nil) or an ended ctx (its error).
func push(ctx context.Context, rows []storage.Row, sink func(storage.Row) bool) error {
	for _, row := range rows {
		if !sink(row) {
			return ctx.Err()
		}
	}
	return nil
}
