package main

// Layer probes: after the end-to-end passes of a traced run, each layer's
// public, ctx-first functions are called directly on the workload's own fleet
// and statements, from one goroutine, and timed from outside. Every timed
// repetition is wrapped in a harness-side span that lands in the trace file.
// None of the //dgflint:compat ctx-free wrappers is used.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/wal"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

const (
	probeBudget    = 200 * time.Millisecond // per probe, unless it needs longer for minReps
	probeMinReps   = 5
	probeMaxReps   = 5000
	probeStmts     = 40 // statements a statement-driven probe cycles through
	maxProbeSpans  = 4000
	shufflePairs   = baseRowCount // mapreduce.shuffle_pairs_per_s input size
	shuffleSplits  = 4
	walRecordRows  = batchRows / numShards // rows of one shard's slice of a batch
	fsyncReps      = 40
	probeLoadBatch = 8 // batches per side of the /load decode comparison
)

// prober times probe repetitions and keeps their spans.
type prober struct {
	r       *run
	start   time.Time
	maxReps int // when > 0, a probe with a fixed stock of inputs caps its repetitions

	// stmts are the first statements of the measured list, the ones the
	// statement-driven probes replay in rotation.
	stmts []parsed
	at    int
}

func (p *prober) nextStmt() parsed {
	p.at++
	return p.stmts[p.at%len(p.stmts)]
}

// measure calls fn until the probe's budget is spent (at least probeMinReps
// times) and returns each repetition's duration in seconds.
func (p *prober) measure(name string, calls int, fn func() error) ([]float64, error) {
	var out []float64
	begin := time.Now()
	limit := probeMaxReps
	if p.maxReps > 0 {
		limit = p.maxReps
	}
	for rep := 0; rep < limit && (rep < probeMinReps || time.Since(begin) < probeBudget); rep++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		t1 := time.Now()
		out = append(out, t1.Sub(t0).Seconds())
		if tf := p.r.tf; tf != nil && len(tf.Probes) < maxProbeSpans {
			tf.Probes = append(tf.Probes, probeRec{Name: name, Calls: calls, StartMs: ms(t0.Sub(p.start)), EndMs: ms(t1.Sub(p.start))})
		}
	}
	return out, nil
}

// perCall reports the median repetition as a per-call time in the unit's
// scale (1e6 for microseconds, 1e9 for nanoseconds, 1e3 for milliseconds).
func (p *prober) perCall(metric, name string, calls int, scale float64, fn func() error) error {
	reps, err := p.measure(name, calls, fn)
	if err != nil {
		return err
	}
	p.r.m.set(metric, median(reps)/float64(calls)*scale, len(reps))
	return nil
}

// rate reports units/s of the median repetition.
func (p *prober) rate(metric, name string, units float64, fn func() error) error {
	reps, err := p.measure(name, 1, fn)
	if err != nil {
		return err
	}
	p.r.m.set(metric, units/median(reps), len(reps))
	return nil
}

// parsed is one statement ready for direct calls into the layers.
type parsed struct {
	s   *stmt
	sel *hive.SelectStmt
}

// probes runs every probe that applies to the workload.
func (r *run) probes(ctx context.Context, plain *pass) error {
	if r.tf == nil {
		r.tf = &traceFile{Workload: r.def.name, Seed: r.seed}
	}
	p := &prober{r: r, start: time.Now()}

	for i := 0; i < probeStmts; i++ {
		s := plain.source(i)
		if s.Class == classFrontier {
			continue
		}
		st, err := hive.Parse(s.SQL)
		if err != nil {
			return err
		}
		p.stmts = append(p.stmts, parsed{s: s, sel: st.(*hive.SelectStmt)})
	}

	w0 := r.f.router.Shard(0)
	main, err := w0.Table(r.def.tables[0].name)
	if err != nil {
		return err
	}

	steps := []func() error{
		func() error { return p.serverProbes(ctx) },
		func() error { return p.hiveProbes(ctx) },
		func() error { return p.dgfProbes(main) },
		func() error { return p.storageProbes(w0) },
		func() error { return p.mapreduceProbes(ctx, w0.Cluster) },
	}
	if r.def.wal {
		steps = append(steps, func() error { return p.walProbes(ctx, main) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// serverProbes: the cache-hit path without HTTP, and the router without the
// server.
func (p *prober) serverProbes(ctx context.Context) error {
	r := p.r
	hot := p.stmts[0].s.SQL
	if _, err := r.f.srv.Query(ctx, dgfindex.QueryRequest{SQL: hot}); err != nil {
		return err
	}
	const hits = 200
	err := p.perCall("server.cache_hit_us", "Server.Query(hit)", hits, 1e6, func() error {
		for i := 0; i < hits; i++ {
			resp, err := r.f.srv.Query(ctx, dgfindex.QueryRequest{SQL: hot})
			if err != nil {
				return err
			}
			if !resp.Cached {
				return fmt.Errorf("filled statement missed the result cache")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return p.perCall("shard.exec_us", "Router.ExecParsedContext", 1, 1e6, func() error {
		_, err := r.f.router.ExecParsedContext(ctx, p.nextStmt().sel, hive.ExecOptions{})
		return err
	})
}

// hiveProbes: parse, explain, per-shard partials, merge.
func (p *prober) hiveProbes(ctx context.Context) error {
	r, stmts := p.r, p.stmts
	if err := p.perCall("hive.parse_us", "hive.Parse", len(stmts), 1e6, func() error {
		for _, st := range stmts {
			if _, err := hive.Parse(st.s.SQL); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	w0 := r.f.router.Shard(0)
	if err := p.perCall("hive.explain_us", "Warehouse.Explain", 1, 1e6, func() error {
		_, err := w0.Explain(p.nextStmt().sel, hive.ExecOptions{})
		return err
	}); err != nil {
		return err
	}
	partials := func(sel *hive.SelectStmt) ([]*hive.PartialResult, error) {
		parts := make([]*hive.PartialResult, numShards)
		for sh := range parts {
			pr, err := r.f.router.Shard(sh).SelectPartialContext(ctx, sel, hive.ExecOptions{})
			if err != nil {
				return nil, err
			}
			parts[sh] = pr
		}
		return parts, nil
	}
	// CPU work per statement: every shard's partial, one after another.
	if err := p.perCall("hive.partial_ms", "Warehouse.SelectPartialContext x4", 1, 1e3, func() error {
		_, err := partials(p.nextStmt().sel)
		return err
	}); err != nil {
		return err
	}

	// Merge + Finalize of one group-by partial set. Merge mutates its
	// receiver, so every repetition computes fresh partials, untimed.
	var grouped *parsed
	for i := range stmts {
		if stmts[i].s.GroupBy != "" && stmts[i].s.Class != classFull {
			grouped = &stmts[i]
			break
		}
	}
	if grouped != nil {
		var merges []float64
		for rep := 0; rep < probeMinReps; rep++ {
			parts, err := partials(grouped.sel)
			if err != nil {
				return err
			}
			reps, err := p.measureOnce("PartialResult.Merge x3 + Finalize", func() error {
				merged := parts[0]
				for _, o := range parts[1:] {
					if err := merged.Merge(o); err != nil {
						return err
					}
				}
				merged.Finalize(0)
				return nil
			})
			if err != nil {
				return err
			}
			merges = append(merges, reps)
		}
		r.m.set("shard.merge_us", median(merges)*1e6, len(merges))
	}

	// The typed-aggregation target: qualifying and scanned rows per second
	// of CPU on the class where almost every row qualifies.
	for i := range stmts {
		st := stmts[i]
		if st.s.Class != classFull {
			continue
		}
		qualifying := float64(r.ds.answer(st.s, baseDays).qualifying)
		var records float64
		reps, err := p.measure("Warehouse.SelectPartialContext x4 (full)", 1, func() error {
			parts, err := partials(st.sel)
			records = 0
			for _, pr := range parts {
				if pr != nil {
					records += float64(pr.Stats.RecordsRead)
				}
			}
			return err
		})
		if err != nil {
			return err
		}
		r.m.set("hive.qualifying_rows_per_s", qualifying/median(reps), len(reps))
		r.m.set("hive.scanned_rows_per_s", records/median(reps), len(reps))
		break
	}
	return nil
}

// measureOnce times a single call and records its span.
func (p *prober) measureOnce(name string, fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	if tf := p.r.tf; tf != nil && len(tf.Probes) < maxProbeSpans {
		tf.Probes = append(tf.Probes, probeRec{Name: name, Calls: 1, StartMs: ms(t0.Sub(p.start)), EndMs: ms(t1.Sub(p.start))})
	}
	return t1.Sub(t0).Seconds(), err
}

// wantAggs lists the aggregations a statement asks the index for.
func wantAggs(s *stmt) []dgf.AggSpec {
	sum := dgf.AggSpec{Func: dgf.AggSum, Col: "powerConsumed"}
	count := dgf.AggSpec{Func: dgf.AggCount}
	switch s.Select {
	case selSum:
		return []dgf.AggSpec{sum}
	case selMax:
		return []dgf.AggSpec{{Func: dgf.AggMax, Col: "powerConsumed"}}
	case selAvg, selCountSum, selCountAvg:
		return []dgf.AggSpec{sum, count}
	}
	return nil
}

// dgfProbes: Index.Plan with each statement's ranges, its exact cell and
// slice counts over the four shards, and the key-value store underneath at
// its real key count. Nothing is reported for a table without a DGFIndex.
func (p *prober) dgfProbes(main *hive.Table) error {
	r, stmts := p.r, p.stmts
	if main.Dgf == nil {
		return nil
	}
	type planArgs struct {
		ix     *dgf.Index
		ranges map[string]dgfindex.GridRange
		want   []dgf.AggSpec
	}
	var shard0 []planArgs
	var inner, boundary, missing, slices, sliceBytes float64
	for _, st := range stmts {
		for sh := 0; sh < numShards; sh++ {
			w := r.f.router.Shard(sh)
			t, err := w.Table(st.s.Table)
			if err != nil {
				return err
			}
			args := planArgs{ix: t.Dgf, ranges: hive.WhereRanges(st.sel, t.Schema), want: wantAggs(st.s)}
			if st.s.GroupBy != "" || st.s.Select == selJoin {
				args.want = nil // group-bys and joins read their slices
			}
			plan, err := args.ix.Plan(w.Cluster, args.ranges, args.want, dgf.PlanOptions{})
			if err != nil {
				return err
			}
			inner += float64(plan.InnerCells)
			boundary += float64(plan.BoundaryCells)
			missing += float64(plan.MissingCells)
			slices += float64(len(plan.Slices))
			sliceBytes += float64(plan.SliceBytes)
			if sh == 0 {
				shard0 = append(shard0, args)
			}
		}
	}
	n := float64(len(stmts))
	r.m.set("dgf.inner_cells", inner/n, len(stmts))
	r.m.set("dgf.boundary_cells", boundary/n, len(stmts))
	r.m.set("dgf.missing_cells", missing/n, len(stmts))
	r.m.set("dgf.slices", slices/n, len(stmts))
	r.m.set("dgf.slice_bytes", sliceBytes/n, len(stmts))
	if inner+boundary > 0 {
		r.m.set("dgf.precompute_share", inner/(inner+boundary), len(stmts))
	}
	cfg := r.f.router.Shard(0).Cluster
	if err := p.perCall("dgf.plan_us", "Index.Plan", len(shard0), 1e6, func() error {
		for _, a := range shard0 {
			if _, err := a.ix.Plan(cfg, a.ranges, a.want, dgf.PlanOptions{}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	kv := main.DgfKV
	keys := kv.Keys()
	if len(keys) == 0 {
		return nil
	}
	const gets = 2000
	at := 0
	if err := p.perCall("kvstore.get_ns", "Store.Get", gets, 1e9, func() error {
		for i := 0; i < gets; i++ {
			at = (at + 7919) % len(keys)
			if _, ok := kv.Get(keys[at]); !ok {
				return fmt.Errorf("key %q vanished", keys[at])
			}
		}
		return nil
	}); err != nil {
		return err
	}
	const multi = 64
	batchKeys := make([]string, multi)
	return p.perCall("kvstore.multiget_ns_per_key", "Store.MultiGet", gets, 1e9, func() error {
		for i := 0; i < gets/multi; i++ {
			for j := range batchKeys {
				at = (at + 7919) % len(keys)
				batchKeys[j] = keys[at]
			}
			kv.MultiGet(batchKeys)
		}
		return nil
	})
}

// storageProbes: decode by encoding and the read floor over the workload's
// own files; writers over one day of rows on a scratch filesystem.
func (p *prober) storageProbes(w0 *hive.Warehouse) error {
	r := p.r
	largestFile := func(t *hive.Table) (dfs.FileInfo, error) {
		files, err := w0.FS.ListFiles(t.Dir)
		if err != nil {
			return dfs.FileInfo{}, err
		}
		if len(files) == 0 {
			return dfs.FileInfo{}, fmt.Errorf("table %s has no data files", t.Name)
		}
		largest := files[0]
		for _, f := range files {
			if f.Size > largest.Size {
				largest = f
			}
		}
		return largest, nil
	}
	for _, spec := range r.def.tables {
		t, err := w0.Table(spec.name)
		if err != nil {
			return err
		}
		file, err := largestFile(t)
		if err != nil {
			return err
		}
		if spec.format == "RCFILE" {
			err = p.decodeProbes(w0.FS, t, file.Path)
		} else {
			err = p.textDecodeProbe(w0.FS, t, file.Path)
		}
		if err != nil {
			return err
		}
	}
	main, err := w0.Table(r.def.tables[0].name)
	if err != nil {
		return err
	}
	largest, err := largestFile(main)
	if err != nil {
		return err
	}
	if err := p.rate("dfs.read_mb_per_s", "FS.ReadFile", float64(largest.Size)/(1<<20), func() error {
		_, err := w0.FS.ReadFile(largest.Path)
		return err
	}); err != nil {
		return err
	}

	// Writers, on a throw-away filesystem so the fleet is not touched.
	vendor := r.def.tables[0].vendor
	rows := r.ds.rows(0, vendor)
	scratch := dfs.New(w0.FS.BlockSize())
	seq := 0
	var rcBytes int64
	if err := p.rate("storage.rc_write_rows_per_s", "RCWriter", numUsers, func() error {
		seq++
		fw, err := scratch.Create(fmt.Sprintf("/probe/rc-%d", seq))
		if err != nil {
			return err
		}
		rc := storage.NewRCWriter(fw, main.Schema, main.RowGroupRows)
		for _, row := range rows {
			if err := rc.WriteRow(row); err != nil {
				return err
			}
		}
		if err := rc.Close(); err != nil {
			return err
		}
		rcBytes = rc.Offset()
		return nil
	}); err != nil {
		return err
	}
	var textBytes int64
	if err := p.rate("storage.text_write_rows_per_s", "TextWriter", numUsers, func() error {
		seq++
		fw, err := scratch.Create(fmt.Sprintf("/probe/text-%d", seq))
		if err != nil {
			return err
		}
		tw := storage.NewTextWriter(fw)
		for _, row := range rows {
			if err := tw.WriteRow(row); err != nil {
				return err
			}
		}
		if err := tw.Close(); err != nil {
			return err
		}
		textBytes = tw.Offset()
		return nil
	}); err != nil {
		return err
	}
	bytesPerRow := float64(textBytes) / numUsers
	if r.def.tables[0].format == "RCFILE" {
		bytesPerRow = float64(rcBytes) / numUsers
	}
	r.m.set("storage.bytes_per_row", bytesPerRow, 0)
	return nil
}

// decodeProbes times ReadGroupColumns one column at a time over one RCFile's
// row groups, split by how each (group, column) is encoded.
func (p *prober) decodeProbes(fs *dfs.FS, t *hive.Table, path string) error {
	offsets, err := storage.ReadGroupIndex(fs, path)
	if err != nil {
		return err
	}
	stats, err := storage.ReadColStats(fs, path)
	if err != nil {
		return err
	}
	if len(stats) != len(offsets) {
		return fmt.Errorf("probe decode: %d group stats for %d groups of %s", len(stats), len(offsets), path)
	}
	reader, err := fs.Open(path)
	if err != nil {
		return err
	}
	type cell struct {
		offset  int64
		project []bool
		rows    int
	}
	byEnc := map[byte][]cell{}
	ncols := t.Schema.Len()
	for g, st := range stats {
		for c := 0; c < ncols; c++ {
			project := make([]bool, ncols)
			project[c] = true
			byEnc[st.Enc(c)] = append(byEnc[st.Enc(c)], cell{offsets[g], project, st.Rows})
		}
	}
	batch := storage.NewColumnBatch(t.Schema)
	metrics := map[byte]string{
		storage.EncPlain: "storage.decode_plain_rows_per_s",
		storage.EncDict:  "storage.decode_dict_rows_per_s",
		storage.EncRLE:   "storage.decode_rle_rows_per_s",
	}
	for enc, cells := range byEnc {
		rows := 0
		for _, c := range cells {
			rows += c.rows
		}
		if err := p.rate(metrics[enc], "ReadGroupColumns("+storage.EncodingName(enc)+")", float64(rows), func() error {
			for _, c := range cells {
				if _, err := storage.ReadGroupColumns(reader, c.offset, t.Schema, c.project, batch); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	// Allocations of a full-width decode, per group.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, off := range offsets {
		if _, err := storage.ReadGroupColumns(reader, off, t.Schema, nil, batch); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	p.r.m.set("storage.decode_allocs_per_group", float64(after.Mallocs-before.Mallocs)/float64(len(offsets)), len(offsets))
	return nil
}

func (p *prober) textDecodeProbe(fs *dfs.FS, t *hive.Table, path string) error {
	reader, err := fs.Open(path)
	if err != nil {
		return err
	}
	lines, err := storage.ReadAllLines(reader)
	if err != nil {
		return err
	}
	if len(lines) > numUsers {
		lines = lines[:numUsers]
	}
	return p.rate("storage.text_decode_rows_per_s", "DecodeTextRow", float64(len(lines)), func() error {
		for _, l := range lines {
			if _, err := storage.DecodeTextRow(t.Schema, l); err != nil {
				return err
			}
		}
		return nil
	})
}

// syntheticInput is an in-memory InputFormat: splits of n records each.
type syntheticInput struct {
	splits, perSplit int
}

type syntheticSplit struct{ i, n int }

func (s syntheticSplit) Label() string { return fmt.Sprintf("synthetic-%d", s.i) }

func (in *syntheticInput) Splits() ([]mapreduce.InputSplit, error) {
	out := make([]mapreduce.InputSplit, in.splits)
	for i := range out {
		out[i] = syntheticSplit{i, in.perSplit}
	}
	return out, nil
}

func (in *syntheticInput) Open(split mapreduce.InputSplit) (mapreduce.RecordReader, error) {
	sp := split.(syntheticSplit)
	return &syntheticReader{left: sp.n, at: sp.i * sp.n}, nil
}

type syntheticReader struct{ left, at int }

func (r *syntheticReader) Next() (mapreduce.Record, bool, error) {
	if r.left == 0 {
		return mapreduce.Record{}, false, nil
	}
	r.left--
	r.at++
	return mapreduce.Record{Offset: int64(r.at)}, true, nil
}

func (r *syntheticReader) BytesRead() int64 { return 0 }
func (r *syntheticReader) Seeks() int64     { return 0 }

// mapreduceProbes: what a job costs before it reads a byte, and what the
// text shuffle costs per pair.
func (p *prober) mapreduceProbes(ctx context.Context, cfg *cluster.Config) error {
	empty := &mapreduce.Job{
		Name:  "probe-empty",
		Input: &syntheticInput{splits: 4},
		Map:   func(mapreduce.Record, mapreduce.Emit) error { return nil },
	}
	if err := p.perCall("mapreduce.job_overhead_us", "mapreduce.RunContext(empty)", 1, 1e6, func() error {
		_, err := mapreduce.RunContext(ctx, cfg, empty)
		return err
	}); err != nil {
		return err
	}
	one := []byte("1")
	keys := make([]string, numRegions)
	for i := range keys {
		keys[i] = fmt.Sprint(i + 1)
	}
	sum := func(values [][]byte) []byte {
		n := 0
		for _, v := range values {
			k := 0
			for _, c := range v {
				k = k*10 + int(c-'0')
			}
			n += k
		}
		return []byte(fmt.Sprint(n))
	}
	shuffle := &mapreduce.Job{
		Name:  "probe-shuffle",
		Input: &syntheticInput{splits: shuffleSplits, perSplit: shufflePairs / shuffleSplits},
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			emit(keys[int(rec.Offset)%numRegions], one)
			return nil
		},
		Combine: func(_ string, values [][]byte) [][]byte { return [][]byte{sum(values)} },
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			emit(key, sum(values))
			return nil
		},
		Output: func(string, []byte) {},
	}
	secs, err := p.measureOnce("mapreduce.RunContext(shuffle)", func() error {
		_, err := mapreduce.RunContext(ctx, cfg, shuffle)
		return err
	})
	if err != nil {
		return err
	}
	p.r.m.set("mapreduce.shuffle_pairs_per_s", shufflePairs/secs, 1)
	return nil
}

// noopStore is a WAL apply target that drops rows: commit cost without apply.
type noopStore struct{}

func (noopStore) LoadRowsByName(string, []storage.Row) error { return nil }

// walProbes runs last on ingest_mixed: they load further days into the fleet
// and finally append to one replica's index directly.
func (p *prober) walProbes(ctx context.Context, main *hive.Table) error {
	r := p.r
	dir, err := os.MkdirTemp(r.outDir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Every probe input is a batch the fleet has not seen, made before the
	// clock starts.
	table := r.def.tables[0].name
	used := (len(r.ds.order) - baseDays) * batchesInDay
	fresh := func(n int) []batch {
		out := make([]batch, n)
		for i := range out {
			out[i] = ingestBatch(used)
			used++
		}
		r.ds.extend(out[n-1].day + 1)
		return out
	}
	const inputs = 12
	limited := func(fn func() error) error {
		p.maxReps = inputs
		defer func() { p.maxReps = 0 }()
		return fn()
	}

	// Log.Append without fsync, then Log.Sync after one append.
	log, _, err := wal.OpenLog(filepath.Join(dir, "append.wal"))
	if err != nil {
		return err
	}
	rec := wal.Record{Table: table, Rows: r.ds.batchRows(fresh(1)[0])[:walRecordRows]}
	const appends = 50
	if err := p.perCall("wal.append_us_per_record", "Log.Append", appends, 1e6, func() error {
		for i := 0; i < appends; i++ {
			rec.LSN++
			if err := log.Append(rec, wal.PolicyOff); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var syncs []float64
	for i := 0; i < fsyncReps; i++ {
		rec.LSN++
		if err := log.Append(rec, wal.PolicyInterval); err != nil {
			return err
		}
		secs, err := p.measureOnce("Log.Sync", log.Sync)
		if err != nil {
			return err
		}
		syncs = append(syncs, secs*1e3)
	}
	r.m.set("wal.fsync_p50_ms", percentile(syncs, 50), len(syncs))
	r.m.set("wal.fsync_p95_ms", percentile(syncs, 95), len(syncs))
	if err := log.Close(wal.PolicyOff); err != nil {
		return err
	}

	// Engine.Commit over stores that drop the rows: the log's share of an ack.
	stores := make([][]wal.Store, numShards)
	for i := range stores {
		stores[i] = make([]wal.Store, numReplicas)
		for j := range stores[i] {
			stores[i][j] = noopStore{}
		}
	}
	eng, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "engine"), Fsync: wal.PolicyInterval}, stores)
	if err != nil {
		return err
	}
	shard := 0
	err = p.perCall("wal.commit_us_per_row", "Engine.Commit(no-op stores)", walRecordRows, 1e6, func() error {
		shard = (shard + 1) % numShards
		_, err := eng.Commit(ctx, shard, table, rec.Rows)
		return err
	})
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Commit + WaitApplied on the real fleet: whole batches, one at a time.
	var applyRows [][]storage.Row
	for _, b := range fresh(inputs) {
		applyRows = append(applyRows, r.ds.batchRows(b))
	}
	at := 0
	if err := limited(func() error {
		return p.rate("wal.apply_rows_per_s", "Router.LoadRowsDurable(sync)", batchRows, func() error {
			at++
			_, err := r.f.router.LoadRowsDurable(ctx, table, applyRows[at-1], true)
			return err
		})
	}); err != nil {
		return err
	}

	// HTTP /load against Server.LoadRowsCtx on equivalent batches: what the
	// wire format and row coercion add to an ack.
	var viaHTTP, direct []float64
	for _, b := range fresh(2 * probeLoadBatch) {
		if b.index%2 == 0 {
			body := r.ds.loadBody(b, table)
			secs, err := p.measureOnce("http /load", func() error {
				_, _, err := r.f.load(ctx, body, false)
				return err
			})
			if err != nil {
				return err
			}
			viaHTTP = append(viaHTTP, secs)
			continue
		}
		rows := r.ds.batchRows(b)
		secs, err := p.measureOnce("Server.LoadRowsCtx", func() error {
			_, err := r.f.srv.LoadRowsCtx(ctx, table, rows, false)
			return err
		})
		if err != nil {
			return err
		}
		direct = append(direct, secs)
	}
	r.m.set("server.load_decode_us_per_row", (median(viaHTTP)-median(direct))/batchRows*1e6, probeLoadBatch)
	if err := r.drain(ctx); err != nil {
		return err
	}

	// Replay: reopen a copy of one replica's own log, as a restart would.
	replay := filepath.Join(dir, "replay.wal")
	if err := copyFile(filepath.Join(r.f.walDir, "shard-000", "replica-0.wal"), replay); err != nil {
		return err
	}
	replayed := 0
	secs, err := p.measureOnce("wal.OpenLog(replay)", func() error {
		l, recs, err := wal.OpenLog(replay)
		if err != nil {
			return err
		}
		for _, rc := range recs {
			replayed += len(rc.Rows)
		}
		return l.Close(wal.PolicyOff)
	})
	if err != nil {
		return err
	}
	r.m.set("wal.replay_rows_per_s", float64(replayed)/secs, 1)

	// Index.Append on one shard's slice of a batch, straight onto replica 0
	// of shard 0. That replica diverges from its twin, so this is the last
	// thing the run does.
	w0 := r.f.router.Shard(0)
	var staged []string
	for i, b := range fresh(inputs) {
		path := fmt.Sprintf("/probe/append-%d", i)
		if err := storage.WriteTextRows(w0.FS, path, r.ds.batchRows(b)[:walRecordRows]); err != nil {
			return err
		}
		staged = append(staged, path)
	}
	at = 0
	return limited(func() error {
		return p.perCall("dgf.append_us_per_row", "Index.Append", walRecordRows, 1e6, func() error {
			at++
			_, err := main.Dgf.Append(w0.Cluster, staged[at-1:at])
			return err
		})
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
