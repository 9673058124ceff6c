package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloadDef is one traffic mix. Counts that are not time-bound are fixed
// here so both sides of any comparison do identical work around the timed
// pass.
type workloadDef struct {
	name    string
	why     string
	tables  []tableSpec
	join    bool // also create the replicated userinfo table
	wal     bool // put the fleet behind a WAL (interval fsync)
	clients int  // closed-loop query clients (never more than nproc)
	setups  int  // set-ups per untraced run; the median is reported
	warmup  int  // warm-up statements, drawn from seed+1
	// simStatements is the fixed prefix of the measured statement list whose
	// simulated cluster seconds are summed into sim_cluster_s.
	simStatements int
	stmts         func(g *stmtGen, i int) stmt
	// execute runs the workload on the standing fleet.
	execute func(r *run, ctx context.Context) error
}

const (
	hotSetSize     = 64 // cache_hot working set, below the 256-entry result cache
	loadPeriod     = 250 * time.Millisecond
	warmupBatches  = batchesInDay // ingest_mixed: one day, ending in a sync ack
	burstBatches   = 40           // ingest_mixed burst: 80,000 rows
	backlogPeriod  = 50 * time.Millisecond
	drainTimeout   = 60 * time.Second
	maxFailureLogs = 10
)

var workloads = []*workloadDef{
	{
		name: "mdrq_index",
		why:  "the paper's headline use: distinct 3-D range aggregates, group-bys, joins and point reads over TextFile and RCFile tables with a DGFIndex; planning, KV lookups, slice reads and scatter/merge dominate",
		tables: []tableSpec{
			{name: "meterdata", format: "TEXTFILE", indexed: true},
			{name: "meterdata_rc", format: "RCFILE", indexed: true},
		},
		join: true, clients: 1, setups: 2, warmup: 100, simStatements: 300, stmts: mdrqStmt, execute: (*run).readWorkload,
	},
	{
		name:    "scan_agg",
		why:     "same engine, opposite layer mix: an RCFile table with no DGFIndex, so decode, predicate kernels, the typed per-split fold and projection do the work and dgf/kvstore do none",
		tables:  []tableSpec{{name: "meterlog", format: "RCFILE", vendor: true}},
		clients: 1, setups: 3, warmup: 20, simStatements: 40, stmts: scanStmt, execute: (*run).readWorkload,
	},
	{
		name:    "cache_hot",
		why:     "64 repeated statements that fit the result cache: every request is a hit, so only HTTP, cache lookup and key building run; an engine change predicts no move here",
		tables:  []tableSpec{{name: "meterdata", format: "TEXTFILE", indexed: true}},
		clients: 2, setups: 3, warmup: 2000, simStatements: hotSetSize, stmts: hotStmt, execute: (*run).cacheHot,
	},
	{
		name:    "ingest_mixed",
		why:     "writes beside reads: an open-loop loader posts 2,000-row batches through the WAL every 250 ms while a client queries, then a back-to-back burst; a gain on one side that costs the other shows",
		tables:  []tableSpec{{name: "meterdata", format: "TEXTFILE", indexed: true}},
		wal:     true,
		clients: 1, setups: 3, warmup: 20, simStatements: 80, stmts: ingestStmt, execute: (*run).ingestMixed,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generator yields the workload's statements for a seed.
func (w *workloadDef) generator(seed int64) *stmtGen {
	names := make([]string, len(w.tables))
	for i, t := range w.tables {
		names[i] = t.name
	}
	return newStmtGen(seed, w.stmts, names...)
}

// stmtList hands out statement i of a generator to any number of clients.
type stmtList struct {
	mu       sync.Mutex
	workload string
	g        *stmtGen
	list     []*stmt
}

// at ends the run, with exit code 2, when the generator is exhausted: a run
// that outpaces its statement space has no result to report.
func (l *stmtList) at(i int) *stmt {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.list) <= i {
		s, err := l.g.next()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", l.workload, err))
		}
		l.list = append(l.list, &s)
	}
	return l.list[i]
}

// sample is one successful query.
type sample struct {
	i      int
	rttMs  float64
	wallMs float64 // the server's own wall time, from the response
	simSec float64
}

// kept is a reply held back for the oracle.
type kept struct {
	i       int
	rows    [][]any
	visible int // ingest batches made visible by sync acks before the query was sent
	posted  int // ingest batches posted before the reply arrived
}

// opCount counts operations and keeps the first few failure messages.
type opCount struct {
	attempted int
	failed    int
	failures  []string
}

func (c *opCount) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < maxFailureLogs {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *opCount) add(o *opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, f := range o.failures {
		if len(c.failures) < maxFailureLogs {
			c.failures = append(c.failures, f)
		}
	}
}

// tally is one client's record of a pass; clients never share one.
type tally struct {
	opCount
	samples []sample
	kept    []kept

	recordsRead, bytesRead, splits         int64
	groupsSkipped, dictProbes, runsSkipped int64
	vectorized, fanout, cached             int64
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.kept = append(t.kept, o.kept...)
	t.add(&o.opCount)
	t.recordsRead += o.recordsRead
	t.bytesRead += o.bytesRead
	t.splits += o.splits
	t.groupsSkipped += o.groupsSkipped
	t.dictProbes += o.dictProbes
	t.runsSkipped += o.runsSkipped
	t.vectorized += o.vectorized
	t.fanout += o.fanout
	t.cached += o.cached
}

func (t *tally) observe(i int, r *queryReply) {
	t.samples = append(t.samples, sample{i: i, rttMs: ms(r.rtt), wallMs: r.WallMs, simSec: r.Stats.SimTotalSec})
	t.fanout += int64(fanoutOf(r.Stats.AccessPath))
	if r.Cached {
		// A hit repeats the stats of the execution that filled the cache;
		// no engine work happened for it.
		t.cached++
		return
	}
	t.recordsRead += r.Stats.RecordsRead
	t.bytesRead += r.Stats.BytesRead
	t.splits += int64(r.Stats.Splits)
	t.groupsSkipped += r.Stats.GroupsSkipped
	t.dictProbes += r.Stats.DictProbes
	t.runsSkipped += r.Stats.RunsSkipped
	if r.Stats.Vectorized {
		t.vectorized++
	}
}

// fanoutOf reads k from a router access path "sharded(k/n):...".
func fanoutOf(path string) int {
	rest, ok := strings.CutPrefix(path, "sharded(")
	if !ok {
		return 1
	}
	k, _, _ := strings.Cut(rest, "/")
	n, err := strconv.Atoi(k)
	if err != nil {
		return 1
	}
	return n
}

// closedLoop runs clients goroutines that each take the next operation
// number from a shared counter — so the operation sequence is the same for
// any client count — until dur has passed (dur > 0) or limit operations have
// been handed out (limit > 0). It returns the wall time of the pass.
func closedLoop(clients int, dur time.Duration, limit int, do func(client, i int)) time.Duration {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for dur <= 0 || time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if limit > 0 && i >= limit {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// pass is one stretch of queries, measured or warm-up.
type pass struct {
	tally
	wall   time.Duration
	source func(i int) *stmt
	mem    runtime.MemStats // Mallocs, TotalAlloc, PauseTotalNs over the pass
	hv     *harvest         // traced passes only
}

// passOpts shapes a query pass.
type passOpts struct {
	dur    time.Duration // run this long...
	limit  int           // ...or exactly this many statements
	hv     *harvest      // set on traced passes: every query asks for its span tree
	source func(i int) *stmt
	// check, when set, judges each reply on the spot; otherwise replies the
	// oracle wants are held back for verify.
	check func(t *tally, i int, s *stmt, reply *queryReply)
	ing   *ingestState
}

// run is one benchmark run of one workload.
type run struct {
	def     *workloadDef
	seed    int64
	seconds float64
	traced  bool
	outDir  string

	ds *dataset
	f  *fleet
	m  *metricSet
	tf *traceFile // traced runs: what out/<workload>.trace.json will hold
	// qualifying is the oracle's row count per checked statement of the
	// untraced pass (the probes turn it into qualifying rows/s).
	qualifying map[int]int64
	classes    []classStat // per-class latency of the untraced measured pass

	opCount
}

// listSource is the statement list of the workload for a seed.
func (r *run) listSource(seed int64) func(int) *stmt {
	l := &stmtList{workload: r.def.name, g: r.def.generator(seed)}
	return l.at
}

// verifies reports whether the oracle checks statement i: every point, join,
// project and frontier statement, and one in ten of the rest.
func verifies(i int, s *stmt) bool {
	switch s.Class {
	case classPoint, classJoin, classProject, classFrontier:
		return true
	}
	return i%10 == 0
}

// queryPass drives the workload's closed-loop clients.
func (r *run) queryPass(ctx context.Context, o passOpts) *pass {
	p := &pass{source: o.source, hv: o.hv}
	tallies := make([]tally, r.def.clients)
	traced := o.hv != nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.wall = closedLoop(r.def.clients, o.dur, o.limit, func(c, i int) {
		t := &tallies[c]
		s := o.source(i)
		visible := 0
		if o.ing != nil {
			visible = int(o.ing.visible.Load())
		}
		t.attempted++
		reply, err := r.f.query(ctx, s.SQL, traced)
		if err != nil {
			t.fail("statement %d (%s): %v", i, s.Class, err)
			return
		}
		t.observe(i, reply)
		if p.hv != nil {
			p.hv.addQuery(c, i, s, reply)
		}
		switch {
		case o.check != nil:
			o.check(t, i, s, reply)
		case verifies(i, s):
			k := kept{i: i, rows: reply.Rows, visible: visible}
			if o.ing != nil {
				k.posted = int(o.ing.posted.Load())
			}
			t.kept = append(t.kept, k)
		}
	})
	runtime.ReadMemStats(&after)
	p.mem = runtime.MemStats{
		Mallocs:      after.Mallocs - before.Mallocs,
		TotalAlloc:   after.TotalAlloc - before.TotalAlloc,
		PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
	}
	for i := range tallies {
		p.tally.merge(&tallies[i])
	}
	return p
}

// verify runs the oracle over the replies a pass held back; a mismatch is a
// failed operation. It returns the qualifying-row count of each checked
// statement.
func (r *run) verify(p *pass) map[int]int64 {
	qualifying := map[int]int64{}
	for _, k := range p.kept {
		s := p.source(k.i)
		var err error
		if s.Class == classFrontier {
			err = r.ds.checkFrontier(s, k.rows, k.visible, k.posted)
		} else {
			want := r.ds.answer(s, baseDays)
			qualifying[k.i] = want.qualifying
			err = want.compare(s, k.rows)
		}
		if err != nil {
			p.fail("statement %d (%s) %q: %v", k.i, s.Class, s.SQL, err)
		}
	}
	p.kept = nil
	return qualifying
}

// setup builds the fleet def.setups times (once on a traced run, which
// reports no set-up metric) and keeps the last. One set-up is a single sample
// of a multi-second operation, so the medians are reported.
func (r *run) setup(ctx context.Context) error {
	var walls, heaps, builds []float64
	walParent := ""
	if r.def.wal {
		walParent = r.outDir
	}
	setups := r.def.setups
	if r.traced {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		if r.f != nil {
			err := r.f.close()
			r.f = nil
			if err != nil {
				return err
			}
		}
		f, st, err := newFleet(ctx, r.ds, r.def.tables, r.def.join, walParent)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.f = f
		walls = append(walls, st.wall.Seconds())
		heaps = append(heaps, st.heapMB)
		builds = append(builds, st.buildWall.Seconds())
	}
	r.m.set("setup_s", median(walls), len(walls))
	r.m.set("setup_heap_mb", median(heaps), len(heaps))
	r.m.set("dgf.build_s", median(builds), len(builds))
	return r.storageMetrics(0)
}

// storageMetrics reports bytes stored per byte of user data: replica 0 of
// every shard (files, sidecars, index key-values, plus its WAL) over the CSV
// size of the rows loaded so far (base days and ingestBatches batches).
func (r *run) storageMetrics(ingestBatches int) error {
	files, index, err := r.f.storedBytes()
	if err != nil {
		return err
	}
	user := r.ds.csvBytes(0, baseDays) * int64(len(r.def.tables))
	var walBytes, ingested int64
	if r.def.wal {
		var buf []byte
		for i := 0; i < ingestBatches; i++ {
			b := ingestBatch(i)
			for _, u := range r.ds.batchUsers(b) {
				buf = r.ds.csvLine(buf[:0], b.day, int(u))
				ingested += int64(len(buf))
			}
		}
		logs, err := filepath.Glob(filepath.Join(r.f.walDir, "shard-*", "replica-0.wal"))
		if err != nil {
			return err
		}
		for _, l := range logs {
			info, err := os.Stat(l)
			if err != nil {
				return err
			}
			walBytes += info.Size()
		}
		// The WAL also logged the base days (set-up loads through it).
		r.m.set("wal.bytes_per_user_byte", float64(walBytes)/float64(user+ingested), 0)
	}
	r.m.set("dgf.index_bytes", float64(index), 0)
	r.m.set("storage_bytes_per_user_byte", float64(files+index+walBytes)/float64(user+ingested), 0)
	return nil
}

// queryMetrics turns a measured pass into the end-to-end query metrics.
func (r *run) queryMetrics(p *pass) {
	rtts := make([]float64, len(p.samples))
	for i, s := range p.samples {
		rtts[i] = s.rttMs
	}
	r.classLatency(p)
	n := len(rtts)
	r.m.set("query_qps", float64(n)/p.wall.Seconds(), n)
	r.m.set("query_p50_ms", percentile(rtts, 50), n)
	r.m.set("query_p95_ms", percentile(rtts, 95), n)
	r.m.set("server.query_p99_ms", percentile(rtts, 99), n)
}

// simCluster sums stats.sim_total_sec — the paper's clock — over the first
// simStatements statements of the measured list. The list is fixed, so the
// sum repeats exactly for a seed: statements the timed pass did not reach are
// run now, untimed. Frontier answers depend on how far the loader got and are
// left out.
func (r *run) simCluster(ctx context.Context, p *pass) {
	sim := make(map[int]float64, r.def.simStatements)
	for _, s := range p.samples {
		if s.i < r.def.simStatements {
			sim[s.i] = s.simSec
		}
	}
	sum, n := 0.0, 0
	for i := 0; i < r.def.simStatements; i++ {
		s := p.source(i)
		if s.Class == classFrontier {
			continue
		}
		v, done := sim[i]
		if !done {
			r.attempted++
			reply, err := r.f.query(ctx, s.SQL, false)
			if err != nil {
				r.fail("statement %d (%s): %v", i, s.Class, err)
				continue
			}
			v = reply.Stats.SimTotalSec
		}
		sum += v
		n++
	}
	r.m.set("sim_cluster_s", sum, n)
}

// classLatency keeps the round-trip percentiles of each statement class for
// the report: they say which class an end-to-end percentile sits in.
func (r *run) classLatency(p *pass) {
	byClass := map[string][]float64{}
	for _, s := range p.samples {
		c := p.source(s.i).Class
		byClass[c] = append(byClass[c], s.rttMs)
	}
	r.classes = nil
	for c, v := range byClass {
		r.classes = append(r.classes, classStat{c, len(v), percentile(v, 50), percentile(v, 95)})
	}
	sort.Slice(r.classes, func(i, j int) bool { return r.classes[i].p50 < r.classes[j].p50 })
}

type classStat struct {
	class    string
	n        int
	p50, p95 float64
}

func (r *run) duration() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

// warm runs the warm-up statements, drawn from seed+1 so they fill no cache
// entry the measured statements could hit.
func (r *run) warm(ctx context.Context, source func(int) *stmt) {
	p := r.queryPass(ctx, passOpts{limit: r.def.warmup, source: source})
	p.kept = nil
	r.add(&p.opCount)
}

// readWorkload is mdrq_index and scan_agg: distinct statements, closed loop.
func (r *run) readWorkload(ctx context.Context) error {
	r.warm(ctx, r.listSource(r.seed+1))
	if !r.traced {
		p := r.queryPass(ctx, passOpts{dur: r.duration(), source: r.listSource(r.seed)})
		r.verify(p)
		r.queryMetrics(p)
		r.simCluster(ctx, p)
		r.add(&p.opCount)
		return nil
	}
	// Traced run: half the time untraced, then the same statements traced on
	// a fresh server (cold caches, as in the first half) over the same fleet.
	plain := r.queryPass(ctx, passOpts{dur: r.duration() / 2, source: r.listSource(r.seed)})
	r.qualifying = r.verify(plain)
	r.queryMetrics(plain)
	r.add(&plain.opCount)
	snap := r.f.srv.Stats()
	r.simCluster(ctx, plain)
	if err := r.f.freshServer(); err != nil {
		return err
	}
	r.warm(ctx, r.listSource(r.seed+1))
	traced := r.queryPass(ctx, passOpts{limit: plain.attempted, hv: newHarvest(r.def.clients), source: plain.source})
	r.verify(traced)
	r.add(&traced.opCount)
	r.layerMetrics(plain, traced, snap)
	return r.probes(ctx, plain)
}

// cacheHot fills a 64-statement working set once and then draws from it:
// every measured request must be a result-cache hit carrying the fill's rows.
func (r *run) cacheHot(ctx context.Context) error {
	hot := r.listSource(r.seed)
	fill := r.queryPass(ctx, passOpts{limit: hotSetSize, source: hot, check: func(t *tally, i int, s *stmt, reply *queryReply) {
		t.kept = append(t.kept, kept{i: i, rows: reply.Rows})
	}})
	rows := make([][][]any, hotSetSize)
	sim := 0.0
	for _, k := range fill.kept {
		rows[k.i] = k.rows
	}
	for _, s := range fill.samples {
		sim += s.simSec
	}
	r.verify(fill) // every fill answer goes through the oracle
	r.add(&fill.opCount)
	if fill.failed > 0 {
		return fmt.Errorf("cache_hot: %d of %d fill statements failed", fill.failed, hotSetSize)
	}
	r.m.set("sim_cluster_s", sim, hotSetSize)

	draw := func(seed int64) func(int) *stmt {
		return func(i int) *stmt { return hot(hotDraw(seed, i, hotSetSize)) }
	}
	mustHit := func(seed int64) func(*tally, int, *stmt, *queryReply) {
		return func(t *tally, i int, s *stmt, reply *queryReply) {
			switch idx := hotDraw(seed, i, hotSetSize); {
			case !reply.Cached:
				t.fail("request %d: working-set statement %d missed the result cache", i, idx)
			case !sameRows(reply.Rows, rows[idx]):
				t.fail("request %d: cached rows of statement %d differ from its fill", i, idx)
			}
		}
	}
	warm := r.queryPass(ctx, passOpts{limit: r.def.warmup, source: draw(r.seed + 1), check: mustHit(r.seed + 1)})
	r.add(&warm.opCount)

	dur := r.duration()
	if r.traced {
		dur /= 2
	}
	plain := r.queryPass(ctx, passOpts{dur: dur, source: draw(r.seed), check: mustHit(r.seed)})
	r.queryMetrics(plain)
	r.add(&plain.opCount)
	if !r.traced {
		return nil
	}
	snap := r.f.srv.Stats()
	traced := r.queryPass(ctx, passOpts{dur: dur, hv: newHarvest(r.def.clients), source: draw(r.seed), check: mustHit(r.seed)})
	r.add(&traced.opCount)
	r.layerMetrics(plain, traced, snap)
	return r.probes(ctx, plain)
}
