package hive

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// Cursor is an incremental view of one SELECT's result. Plain projections
// stream rows as their batches are projected: row order is split-completion
// order (shard completion order on a router), not the source order of
// ExecContext. Aggregations deliver their rows once the reduce phase (or the
// router's gather) finalizes. A cursor over `LIMIT n` stops consuming input
// at the next split boundary once n rows have been delivered, so a limited
// scan reads strictly less data than a full one.
//
// The usage contract is the database/sql one: call Next until it returns
// false, then inspect Err; Stats carries the final QueryStats (partial
// progress when the scan was aborted). Close aborts an unfinished scan and
// releases its resources; it is always safe to call. A Cursor must not be
// used from multiple goroutines concurrently.
type Cursor interface {
	// Next advances to the next row, blocking until one is available or the
	// scan ends. It returns false when the rows are exhausted, the scan was
	// aborted, or the cursor closed.
	Next() bool
	// Row returns the current row. Valid after a true Next, until the next
	// call to Next.
	Row() storage.Row
	// Columns returns the output column names, known once the cursor opened.
	Columns() []string
	// Stats returns the query's cost breakdown: final stats after a
	// complete scan, partial progress (records and splits consumed before
	// the abort) after a cancelled one. RowsOut is the number of rows Next
	// delivered. It blocks until the scan goroutine finishes, so call it
	// after Next returned false or after Close.
	Stats() QueryStats
	// Err returns the terminal error: nil after a clean end-of-rows, a
	// satisfied LIMIT or a caller Close, the (wrapped) ctx error after a
	// cancellation or missed deadline, or the execution error that stopped
	// the scan.
	Err() error
	// Close aborts the scan if still running, drains and releases the
	// cursor. Always returns nil; inspect Err for the scan's outcome.
	Close() error
}

// cursorBuffer is the row channel depth of a streaming cursor: deep enough
// to decouple producer splits from a briefly slow consumer, shallow enough
// that an abandoned cursor applies backpressure instead of materializing the
// result.
const cursorBuffer = 64

// SelectCursor opens a streaming cursor over one SELECT: SelectStream on the
// cursor's goroutine. It returns once the statement is planned and bound, or
// with the error that stopped it before then (an unknown table or column).
// Cancelling ctx (or closing the cursor) aborts the scan within one split
// boundary. INSERT OVERWRITE DIRECTORY sinks cannot stream.
func (w *Warehouse) SelectCursor(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (Cursor, error) {
	return NewCursor(ctx, stmt.Limit, func(ctx context.Context, cols func([]string), sink func(storage.Row) bool) (QueryStats, error) {
		return w.SelectStream(ctx, stmt, opts, cols, sink)
	})
}

// SelectStream runs one SELECT, pushing its rows into sink instead of
// collecting them. It plans and binds under the catalog read lock, releases
// the lock, reports the output columns through cols, and then runs the job:
// a plain projection pushes each row as its batch is projected (sink calls
// are serialized), an aggregation pushes its finalized rows. A false return
// from sink stops the scan at the next split boundary. An error returned
// before cols is called means the statement did not plan or bind; the
// returned stats are the run's, partial after an abort.
//
// The lock is not held across the job: the scan phase is paced by the sink
// (possibly a slow HTTP client), and holding a read lock across it would let
// one stalled stream block every writer — and then every other query — on
// the warehouse. The job reads the files the plan named; a concurrent DROP
// surfaces as a read error, never as a hang.
func (w *Warehouse) SelectStream(ctx context.Context, stmt *SelectStmt, opts ExecOptions, cols func([]string), sink func(storage.Row) bool) (QueryStats, error) {
	if stmt.InsertDir != "" {
		return QueryStats{}, fmt.Errorf("hive: INSERT OVERWRITE DIRECTORY cannot be streamed through a cursor")
	}
	w.mu.RLock()
	p, err := w.prepareSelectLocked(ctx, stmt, opts)
	w.mu.RUnlock()
	if err != nil {
		return QueryStats{}, err
	}
	cols(p.pr.Columns)
	pr, err := w.runPreparedSelect(ctx, p, sink)
	if err != nil || (pr.Agg == nil && pr.Rows == nil) {
		return pr.Stats, err
	}
	// Aggregations (and the agg-index rewrite) only have rows after the
	// merge: finalize, then push them.
	res := pr.Finalize(stmt.Limit)
	for _, row := range res.Rows {
		if !sink(row) {
			return res.Stats, ctx.Err()
		}
	}
	return res.Stats, nil
}

// NewCursor runs produce on the cursor's goroutine and delivers the rows it
// pushes into sink. produce reports the output columns through cols before
// its first row; NewCursor returns once it has, or with the error produce
// returned without calling it. The sink is safe for concurrent use: it
// blocks while the row buffer is full, and returns false once limit (if
// positive) rows were pushed or the cursor's ctx ended. The cursor owns the
// LIMIT (Next stops at limit rows and cancels produce), the drain on Close,
// and the self-cancel filter: the ctx error its own LIMIT stop or Close
// induced is not reported through Err. Stats are produce's, with RowsOut the
// rows Next delivered and Wall the producer's run time.
func NewCursor(ctx context.Context, limit int, produce func(ctx context.Context, cols func([]string), sink func(storage.Row) bool) (QueryStats, error)) (Cursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hive: cursor not opened: %w", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &cursor{
		ch:     make(chan storage.Row, cursorBuffer),
		cancel: cancel,
		done:   make(chan struct{}),
		limit:  limit,
	}
	ready := make(chan struct{})
	var once sync.Once
	cols := func(names []string) {
		once.Do(func() {
			c.cols = names
			close(ready)
		})
	}
	var sent atomic.Int64
	sink := func(row storage.Row) bool {
		if limit > 0 && sent.Load() >= int64(limit) {
			return false
		}
		select {
		case c.ch <- row:
		case <-cctx.Done():
			return false
		}
		return limit <= 0 || sent.Add(1) < int64(limit)
	}
	// The goroutine is joined through c.done: it closes c.ch and then
	// c.done, and Close drains c.ch and then blocks on <-c.done.
	//dgflint:ignore goroutinejoin joined by cursor.Close via c.done
	go func() {
		defer close(c.done)
		start := time.Now()
		c.stats, c.err = produce(cctx, cols, sink)
		c.stats.Wall = time.Since(start)
		if c.stopped.Load() && errors.Is(c.err, context.Canceled) {
			// The cursor cancelled itself (LIMIT satisfied or Close): a
			// clean shutdown, not an error.
			c.err = nil
		}
		close(c.ch)
	}()
	select {
	case <-ready:
	case <-c.done:
		select {
		case <-ready:
		default:
			if c.err != nil {
				cancel()
				return nil, c.err
			}
		}
	}
	return c, nil
}

// cursor is the one Cursor: a bounded row channel fed by the producer
// goroutine. cols is written before ready closes and read after NewCursor
// returns; stats and err are written by the producer before done closes and
// read after it.
type cursor struct {
	ch     chan storage.Row
	cancel context.CancelFunc
	done   chan struct{}
	limit  int

	// stopped marks a deliberate shutdown (LIMIT satisfied or Close): the
	// ctx errors it induces are not failures.
	stopped atomic.Bool

	cols  []string
	stats QueryStats
	err   error

	row       storage.Row // consumer-side current row
	delivered int
}

func (c *cursor) Next() bool {
	c.row = nil
	if c.limit > 0 && c.delivered >= c.limit {
		c.stop()
		return false
	}
	row, ok := <-c.ch
	if !ok {
		return false
	}
	c.row = row
	c.delivered++
	return true
}

func (c *cursor) Row() storage.Row  { return c.row }
func (c *cursor) Columns() []string { return c.cols }

func (c *cursor) Stats() QueryStats {
	<-c.done
	stats := c.stats
	stats.RowsOut = c.delivered
	return stats
}

func (c *cursor) Err() error {
	<-c.done
	return c.err
}

func (c *cursor) Close() error {
	c.stop()
	for range c.ch {
		// Drain so the producer never blocks on a send.
	}
	<-c.done
	return nil
}

// stop cancels the producer as a deliberate shutdown.
func (c *cursor) stop() {
	c.stopped.Store(true)
	c.cancel()
}
