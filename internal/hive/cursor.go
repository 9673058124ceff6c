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
// stream rows as their batches are projected (row order is completion order,
// not the source order of ExecContext); aggregations deliver their rows
// once the reduce phase finalizes. A cursor over `LIMIT n` stops consuming
// input at the next split boundary once n rows have been delivered, so a
// limited scan reads strictly less data than a full one.
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
	// Columns returns the output column names. It blocks until the
	// statement is planned (shortly after the cursor opens, before any table
	// data is read).
	Columns() []string
	// Stats returns the query's cost breakdown: final stats after a
	// complete scan, partial progress (records and splits consumed before
	// the abort) after a cancelled one. It blocks until the scan goroutine
	// finishes, so call it after Next returned false or after Close.
	Stats() QueryStats
	// Err returns the terminal error: nil after a clean end-of-rows or a
	// caller Close, the (wrapped) ctx error after a cancellation or missed
	// deadline, or the execution error that stopped the scan.
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

// SelectCursor opens a streaming cursor over one SELECT. The scan runs on a
// background goroutine holding the catalog read lock; cancelling ctx (or
// closing the cursor) aborts it within one split boundary. INSERT OVERWRITE
// DIRECTORY sinks cannot stream.
func (w *Warehouse) SelectCursor(ctx context.Context, stmt *SelectStmt, opts ExecOptions) (Cursor, error) {
	if stmt.InsertDir != "" {
		return nil, fmt.Errorf("hive: INSERT OVERWRITE DIRECTORY cannot be streamed through a cursor")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hive: cursor not opened: %w", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &streamCursor{
		ch:     make(chan storage.Row, cursorBuffer),
		cancel: cancel,
		done:   make(chan struct{}),
		ready:  make(chan struct{}),
	}
	go c.run(w, cctx, stmt, opts)
	return c, nil
}

// streamCursor is the Warehouse cursor: a bounded row channel fed by the
// scan goroutine. Fields below ch/cancel/done/ready are written by the scan
// goroutine before done closes and read by the consumer after it — the
// channel close orders them.
type streamCursor struct {
	ch     chan storage.Row
	cancel context.CancelFunc
	done   chan struct{}
	ready  chan struct{} // closed once cols is set (or planning failed)

	readyOnce sync.Once
	closed    atomic.Bool // caller called Close; suppress the self-inflicted ctx error

	cols  []string
	stats QueryStats
	err   error

	row storage.Row // consumer-side current row
}

func (c *streamCursor) run(w *Warehouse, ctx context.Context, stmt *SelectStmt, opts ExecOptions) {
	defer close(c.done)
	start := time.Now()
	limit := stmt.Limit
	sent := 0
	sink := func(row storage.Row) bool {
		select {
		case c.ch <- row:
		case <-ctx.Done():
			return false
		}
		sent++
		return limit <= 0 || sent < limit
	}

	// Plan and bind under the catalog lock, then release it before the job
	// runs: the scan phase is paced by the consumer (possibly a slow HTTP
	// client), and holding a read lock across it would let one stalled
	// stream block every writer — and then every other query — on the
	// warehouse. Columns unblocks as soon as the plan is made. The job reads
	// the files the plan named; a concurrent DROP surfaces as a read error
	// through Err, never as a hang.
	w.mu.RLock()
	sp, err := w.planSelectLocked(stmt, opts)
	var p *preparedSelect
	if err == nil {
		c.cols = sp.q.columns()
		c.readyOnce.Do(func() { close(c.ready) })
		p, err = w.bindSelectLocked(ctx, sp)
	}
	w.mu.RUnlock()
	c.readyOnce.Do(func() { close(c.ready) }) // planning failed: unblock Columns
	var pr *PartialResult
	if err == nil {
		pr, err = w.runPreparedSelect(ctx, p, sink)
	}

	if err == nil && pr != nil && (pr.Agg != nil || pr.Rows != nil) {
		// Aggregations (and the agg-index rewrite) only have rows after the
		// merge: finalize, then stream them out.
		res := pr.Finalize(stmt.Limit)
		for _, row := range res.Rows {
			select {
			case c.ch <- row:
				sent++
			case <-ctx.Done():
				err = ctx.Err()
			}
			if err != nil {
				break
			}
		}
		c.stats = res.Stats
	} else if pr != nil {
		c.stats = pr.Stats
	}
	c.stats.RowsOut = sent
	c.stats.Wall = time.Since(start)
	if c.closed.Load() && errors.Is(err, context.Canceled) {
		// The caller closed the cursor; the resulting self-cancellation is
		// a clean shutdown, not an error.
		err = nil
	}
	c.err = err
	close(c.ch)
}

func (c *streamCursor) Next() bool {
	row, ok := <-c.ch
	if !ok {
		c.row = nil
		return false
	}
	c.row = row
	return true
}

func (c *streamCursor) Row() storage.Row { return c.row }

func (c *streamCursor) Columns() []string {
	<-c.ready
	return c.cols
}

func (c *streamCursor) Stats() QueryStats {
	<-c.done
	return c.stats
}

func (c *streamCursor) Err() error {
	<-c.done
	return c.err
}

func (c *streamCursor) Close() error {
	c.closed.Store(true)
	c.cancel()
	for range c.ch {
		// Drain so the scan goroutine never blocks on a send.
	}
	<-c.done
	return nil
}

// rowsCursor replays an already-materialized result as a Cursor — the
// adapter backends without a native streaming path (or fully merged
// scatter-gather aggregations) hand to streaming consumers.
type rowsCursor struct {
	cols  []string
	rows  []storage.Row
	stats QueryStats
	pos   int
}

// NewRowsCursor wraps a finished Result in a Cursor.
func NewRowsCursor(res *Result) Cursor {
	return &rowsCursor{cols: res.Columns, rows: res.Rows, stats: res.Stats}
}

func (c *rowsCursor) Next() bool {
	if c.pos >= len(c.rows) {
		return false
	}
	c.pos++
	return true
}

func (c *rowsCursor) Row() storage.Row {
	if c.pos == 0 || c.pos > len(c.rows) {
		return nil
	}
	return c.rows[c.pos-1]
}

func (c *rowsCursor) Columns() []string { return c.cols }
func (c *rowsCursor) Stats() QueryStats { return c.stats }
func (c *rowsCursor) Err() error        { return nil }
func (c *rowsCursor) Close() error      { c.pos = len(c.rows); return nil }
