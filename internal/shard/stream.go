// Scatter streaming: the router's cursor fans a plain-projection SELECT out
// to the target shards through fanOut and forwards rows into one merged
// stream. Each shard's stream is one withFailover call, the same loop every
// other read uses: its attempt opens the replica's warehouse cursor under
// kill supervision and drains it. While the shard still has another
// candidate, the attempt buffers its rows and they reach the merged stream
// only once the scan completed cleanly, so a replica that dies mid-scan
// replays on a sibling without duplicating rows already delivered; the
// shard's last candidate (always, when Replicas is 1) forwards rows the
// moment they arrive. Aggregations cannot stream before the gather (no row
// exists until every shard's partial state merges), so their cursor
// materializes the scatter-gather result and replays it.
package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// SelectCursor opens a streaming cursor over one SELECT across the fleet,
// consuming the same routeSelect decision execution does. A pass-through
// (one-shard fleets, shard-0-only tables) streams shard 0 alone, keeping the
// warehouse's own stats; an aggregate (hive.IsAggregate) replays the merged
// scatter-gather result; any other SELECT streams every target shard. It
// returns once every stream has opened its cursor, or with the root cause
// of the shard that could not open one. Cancelling ctx (or closing the
// cursor) aborts every shard's scan at its next split boundary.
func (r *Router) SelectCursor(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (hive.Cursor, error) {
	targets, passthrough, err := r.routeSelect(s)
	if err != nil {
		return nil, err
	}
	switch {
	case passthrough:
		return r.newMergeCursor(ctx, s, opts, []int{0}, false)
	case hive.IsAggregate(s):
		res, err := r.scatter(ctx, s, opts, targets)
		if err != nil {
			return nil, err
		}
		return hive.NewRowsCursor(res), nil
	}
	return r.newMergeCursor(ctx, s, opts, targets, true)
}

// scatterCursor merges the target shards' row streams. Rows arrive in shard
// completion order; a LIMIT is enforced globally at delivery and cancels the
// shard scans once satisfied.
type scatterCursor struct {
	cancel context.CancelFunc
	cols   []string

	ch   chan storage.Row
	done chan struct{}

	limit     int
	delivered int
	row       storage.Row

	// stopped marks a deliberate shutdown (LIMIT satisfied or Close): the
	// ctx errors it induces in shard cursors are not failures.
	stopped atomic.Bool

	stats hive.QueryStats
	err   error
}

// newMergeCursor starts one stream per target and waits until each has
// opened. prefix marks a real scatter: the merged stats get the
// "sharded(k/n)" access-path label, while a pass-through reports its single
// stream's stats untouched.
func (r *Router) newMergeCursor(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions, targets []int, prefix bool) (hive.Cursor, error) {
	cctx, cancel := context.WithCancel(ctx)
	c := &scatterCursor{
		cancel: cancel,
		// The warehouse cursor's depth: deep enough to decouple the shard
		// scans from a briefly slow consumer, shallow enough that an
		// abandoned cursor applies backpressure.
		ch:    make(chan storage.Row, 64),
		done:  make(chan struct{}),
		limit: s.Limit,
	}
	// Each stream reports its open exactly once: nil when a replica's cursor
	// opened (the first target hands over the column set first), or the
	// error its failover loop ended with when none did.
	opens := make(chan error, len(targets))
	stats := make([]hive.QueryStats, len(targets))
	stream := func(ctx context.Context, i, si int) error {
		var buf []storage.Row
		opened := false
		err := r.sets[si].withFailover(ctx, func(kctx context.Context, rep *replica, last bool) error {
			cur, err := rep.w.SelectCursor(kctx, s, opts)
			if err != nil {
				return err
			}
			if !opened {
				if i == 0 {
					c.cols = cur.Columns()
				}
				opened = true
				opens <- nil
			}
			buf = buf[:0]
			if last {
				err = forwardRows(kctx, cur, c.ch)
			} else {
				// Another candidate remains: hold the rows back until the
				// scan completed cleanly, so a replay on the next replica
				// cannot duplicate any (a warehouse cursor's row order is
				// split-completion order, so skipping the rows already
				// delivered would be unsound).
				for cur.Next() {
					buf = append(buf, cur.Row())
				}
				err = cur.Err()
			}
			cur.Close()
			stats[i] = cur.Stats()
			return err
		})
		if !opened {
			opens <- err
		}
		if err != nil {
			return err
		}
		for _, row := range buf {
			select {
			case c.ch <- row:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}

	// The merging goroutine is joined structurally, not locally: it closes
	// c.ch and then c.done, and Close drains c.ch then blocks on <-c.done.
	//dgflint:ignore goroutinejoin joined by scatterCursor.Close via c.done
	go func() {
		defer close(c.done)
		start := time.Now()
		err := fanOut(cctx, targets, stream)
		// Merge costs the way the gather does: volumes sum, the slowest
		// shard bounds the simulated time, the first target names the
		// access path.
		c.stats = stats[0]
		for _, st := range stats[1:] {
			mergeStats(&c.stats, st)
		}
		if prefix {
			c.stats.AccessPath = fmt.Sprintf("sharded(%d/%d):%s", len(targets), len(r.sets), stats[0].AccessPath)
		}
		c.stats.Wall = time.Since(start)
		if err != nil && !(isCtxErr(err) && c.stopped.Load()) {
			// Our own LIMIT/Close shutdown is not a failure.
			c.err = err
		}
		close(c.ch)
	}()

	for range targets {
		if err := <-opens; err != nil {
			// Report fanOut's root cause, not this stream's error: a real
			// failure outranks the cancellations it induced in siblings.
			c.shutdown()
			return nil, c.err
		}
	}
	return c, nil
}

// forwardRows pumps rows from cur into ch until the cursor ends or ctx is
// cancelled. The cancellation exit still closes the cursor and reads its
// terminal error: a real shard failure racing with the cancel must surface
// as the root cause, not be dropped on the floor or reported as a bare
// cancel (context errors are filtered here like everywhere else — the
// caller's aggregation handles its own cancellation).
func forwardRows(ctx context.Context, cur hive.Cursor, ch chan<- storage.Row) error {
	for cur.Next() {
		select {
		case ch <- cur.Row():
		case <-ctx.Done():
			cur.Close()
			if err := cur.Err(); err != nil && !isCtxErr(err) {
				return err
			}
			return ctx.Err()
		}
	}
	return cur.Err()
}

func (c *scatterCursor) Next() bool {
	if c.limit > 0 && c.delivered >= c.limit {
		if !c.stopped.Swap(true) {
			c.cancel()
		}
		c.row = nil
		return false
	}
	row, ok := <-c.ch
	if !ok {
		c.row = nil
		return false
	}
	c.row = row
	c.delivered++
	return true
}

func (c *scatterCursor) Row() storage.Row { return c.row }

func (c *scatterCursor) Columns() []string { return c.cols }

func (c *scatterCursor) Stats() hive.QueryStats {
	<-c.done
	stats := c.stats
	stats.RowsOut = c.delivered
	return stats
}

func (c *scatterCursor) Err() error {
	<-c.done
	return c.err
}

func (c *scatterCursor) Close() error {
	c.stopped.Store(true)
	c.shutdown()
	return nil
}

// shutdown cancels the streams, drains the rows so none blocks on a send,
// and joins them.
func (c *scatterCursor) shutdown() {
	c.cancel()
	for range c.ch {
	}
	<-c.done
}
