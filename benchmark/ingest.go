package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ingestState is what the loader, the query client and the oracle share.
type ingestState struct {
	// visible counts the leading batches made queryable by a sync=1 ack;
	// posted counts the batches whose POST has started. The loader posts one
	// batch at a time, in order, so both are prefixes of the batch sequence.
	visible, posted atomic.Int64

	bodies [][]byte // pre-encoded /load bodies, by batch index
	next   int      // next batch to post

	ackMs      []float64 // steady phase, async batches, from due time
	visibleMs  []float64 // steady phase, sync=1 batches, from due time
	maxLate    time.Duration
	backlogMax int
	opCount
}

// post sends the next batch and keeps the visible/posted prefixes current.
func (s *ingestState) post(ctx context.Context, f *fleet, hv *harvest) (sent time.Time, rtt time.Duration, b batch, ok bool) {
	b = ingestBatch(s.next)
	s.posted.Store(int64(s.next + 1))
	s.attempted++
	sent, rtt, err := f.load(ctx, s.bodies[s.next], b.sync)
	s.next++
	if err != nil {
		s.fail("batch %d: %v", b.index, err)
		return sent, rtt, b, false
	}
	if b.sync {
		s.visible.Store(int64(b.index + 1))
	}
	if hv != nil {
		hv.addLoad(b, sent, rtt)
	}
	return sent, rtt, b, true
}

// steady runs the open-loop loader for dur: one batch is due every
// loadPeriod whether or not the fleet keeps up, and its latency is timed
// from the due time, so a stall is charged to every batch it delayed.
func (s *ingestState) steady(ctx context.Context, f *fleet, dur time.Duration, hv *harvest) {
	loop := openLoop{start: time.Now(), period: loadPeriod}
	for i := 0; ; i++ {
		due := loop.due(i)
		if due.Sub(loop.start) >= dur || s.next >= len(s.bodies) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		sent, rtt, b, ok := s.post(ctx, f, hv)
		if !ok {
			continue
		}
		if late := loop.lateness(i, sent); late > s.maxLate {
			s.maxLate = late
		}
		lat := ms(loop.latency(i, sent.Add(rtt)))
		if b.sync {
			s.visibleMs = append(s.visibleMs, lat)
		} else {
			s.ackMs = append(s.ackMs, lat)
		}
	}
}

// pendingRows is the backlog: rows acknowledged but not yet applied on the
// slowest replica of each shard.
func pendingRows(f *fleet) int {
	total := 0
	for _, sh := range f.srv.WALStats() {
		worst := 0
		for _, rep := range sh.Replicas {
			if rep.PendingRows > worst {
				worst = rep.PendingRows
			}
		}
		total += worst
	}
	return total
}

// steadyPhase runs loader, backlog sampler and query client side by side for
// dur; the query client continues the statement list at from.
func (r *run) steadyPhase(ctx context.Context, ing *ingestState, dur time.Duration, source func(int) *stmt, from int, traced bool) *pass {
	var hv *harvest
	if traced {
		hv = newHarvest(r.def.clients + 1) // the loader records into the last slot
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // backlog sampler
		defer wg.Done()
		tick := time.NewTicker(backlogPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := pendingRows(r.f); n > ing.backlogMax {
					ing.backlogMax = n
				}
			}
		}
	}()
	go func() { // loader
		defer wg.Done()
		ing.steady(ctx, r.f, dur, hv)
	}()
	p := r.queryPass(ctx, passOpts{dur: dur, hv: hv, ing: ing, source: func(i int) *stmt { return source(from + i) }})
	close(stop)
	wg.Wait()
	return p
}

func (r *run) drain(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	return r.f.router.DrainWAL(dctx)
}

// ingestMixed is the write-beside-read workload.
func (r *run) ingestMixed(ctx context.Context) error {
	dur := r.duration()
	steadyBatches := int(dur/loadPeriod) + 1
	total := warmupBatches + steadyBatches + burstBatches
	r.ds.extend(baseDays + (total+batchesInDay-1)/batchesInDay)
	ing := &ingestState{bodies: make([][]byte, total)}
	table := r.def.tables[0].name
	for i := range ing.bodies {
		ing.bodies[i] = r.ds.loadBody(ingestBatch(i), table)
	}

	// Warm-up: one day of batches back to back (the last one sync, so the
	// frontier is never empty), then the warm-up statements.
	for ing.next < warmupBatches {
		ing.post(ctx, r.f, nil)
	}
	r.warm(ctx, r.listSource(r.seed+1))

	source := r.listSource(r.seed)
	var plain, traced *pass
	if !r.traced {
		plain = r.steadyPhase(ctx, ing, dur, source, 0, false)
	} else {
		plain = r.steadyPhase(ctx, ing, dur/2, source, 0, false)
	}
	r.verify(plain)
	r.queryMetrics(plain)
	r.add(&plain.opCount)
	r.m.set("load_ack_p50_ms", median(ing.ackMs), len(ing.ackMs))
	r.m.set("load_visible_p50_ms", median(ing.visibleMs), len(ing.visibleMs))
	r.m.set("server.load_ack_p95_ms", percentile(ing.ackMs, 95), len(ing.ackMs))
	r.m.set("server.load_ack_p99_ms", percentile(ing.ackMs, 99), len(ing.ackMs))
	r.m.set("loadgen.max_late_ms", ms(ing.maxLate), 0)
	snap := r.f.srv.Stats()
	if r.traced {
		// The traced half continues both sequences: loads cannot be replayed
		// onto the same fleet.
		traced = r.steadyPhase(ctx, ing, dur/2, source, plain.attempted, true)
		r.verify(traced)
		r.add(&traced.opCount)
	}
	r.m.set("wal.backlog_max_rows", float64(ing.backlogMax), 0)
	r.simCluster(ctx, plain)

	// Burst: back-to-back batches from an empty backlog, no queries, then
	// drain. Acked rows/s is capacity at the log; applied rows/s is capacity
	// of the whole write path.
	if err := r.drain(ctx); err != nil {
		return fmt.Errorf("drain before burst: %w", err)
	}
	before := r.appliedBatches()
	burstStart := time.Now()
	var lastAck time.Time
	posted := 0
	for ; posted < burstBatches && ing.next < len(ing.bodies); posted++ {
		if sent, rtt, _, ok := ing.post(ctx, r.f, nil); ok {
			lastAck = sent.Add(rtt)
		}
	}
	if err := r.drain(ctx); err != nil {
		return fmt.Errorf("drain after burst: %w", err)
	}
	drained := time.Now()
	burstRows := float64(posted * batchRows)
	if !lastAck.IsZero() {
		r.m.set("load_acked_rows_per_s", burstRows/lastAck.Sub(burstStart).Seconds(), posted)
		r.m.set("load_applied_rows_per_s", burstRows/drained.Sub(burstStart).Seconds(), posted)
		r.m.set("wal.drain_ms", ms(drained.Sub(lastAck)), 0)
	}
	if applied := r.appliedBatches() - before; applied > 0 {
		// Every replica applies every row, so rows per apply call is the
		// burst's rows over the calls of one replica set.
		r.m.set("wal.rows_per_apply_batch", burstRows*numReplicas/float64(applied), int(applied))
	}

	r.checkTotals(ctx, ing)
	r.add(&ing.opCount)
	if err := r.storageMetrics(ing.next); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	r.layerMetrics(plain, traced, snap)
	return r.probes(ctx, plain)
}

// appliedBatches sums the apply calls of every replica's applier.
func (r *run) appliedBatches() int64 {
	var n int64
	for _, sh := range r.f.srv.WALStats() {
		for _, rep := range sh.Replicas {
			n += rep.AppliedBatches
		}
	}
	return n
}

// checkTotals is the end-of-run oracle: after the burst drains, the table
// must hold exactly the generator's rows and every replica must have applied
// its whole log. Each check counts as one operation.
func (r *run) checkTotals(ctx context.Context, ing *ingestState) {
	all := stmt{Class: classFrontier, Table: r.def.tables[0].name, Select: selCountSum}
	all.render()
	ing.attempted++
	reply, err := r.f.query(ctx, all.SQL, false)
	if err != nil {
		ing.fail("final totals: %v", err)
	} else {
		base := r.ds.answer(&all, baseDays).groups[""]
		count, sumCents := r.ds.batchTotals(&all, ing.next)
		want := expected{groups: map[string][]float64{"": {base[0] + float64(count), base[1] + float64(sumCents)/100}}}
		if err := want.compare(&all, reply.Rows); err != nil {
			ing.fail("final totals: %v", err)
		}
	}
	ing.attempted++
	for _, sh := range r.f.srv.WALStats() {
		for _, rep := range sh.Replicas {
			if rep.AppliedLSN != rep.LastLSN {
				ing.fail("shard %d replica %d applied LSN %d of %d after drain", sh.Shard, rep.Replica, rep.AppliedLSN, rep.LastLSN)
				return
			}
		}
	}
}
