// Command benchmark is the repository's one benchmark: four HTTP workloads
// against an in-process 4-shard x 2-replica fleet, end-to-end metrics from an
// untraced run, per-layer metrics from a traced run plus layer probes, and an
// oracle that checks the answers. See README.md.
//
//	go run ./benchmark -workload mdrq_index -seed 20121201 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

const defaultSeed = 20121201

func main() {
	var (
		workload = flag.String("workload", "", "mdrq_index, scan_agg, cache_hot, ingest_mixed, or all")
		seed     = flag.Int64("seed", defaultSeed, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the measured pass")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run and layer probes")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files and the WAL")
		aa       = flag.Bool("aa", false, "self-check: run every workload twice on the same seed and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir}
	if *aa {
		os.Exit(selfCheck(cfg))
	}
	defs := workloads
	if *workload != "all" {
		def := findWorkload(*workload)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q (want mdrq_index, scan_agg, cache_hot, ingest_mixed or all)", *workload))
		}
		defs = []*workloadDef{def}
	}
	code := 0
	for _, def := range defs {
		r, err := cfg.run(def)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", def.name, err))
		}
		if !r.report() {
			code = 1
		}
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// A run's context expires at runDeadline, which fails whatever HTTP calls are
// still out and lets the run end by itself with those failures counted. The
// context reaches nothing that is not waiting on the network, so a watchdog
// stands behind it: a run still going unwindGrace later is ended from outside,
// inside the driver's 180 s.
const (
	runDeadline = 170 * time.Second
	unwindGrace = 5 * time.Second
)

// watchdog ends a run that is still going after d: every goroutine's stack
// goes to w, so the hang can be found, and the process exits 2. One hung run
// then costs one run. stop calls it off.
func watchdog(d time.Duration, workload string, w io.Writer, exit func(code int)) (stop func() bool) {
	return time.AfterFunc(d, func() {
		fmt.Fprintf(w, "benchmark: %s: still running after %v; every goroutine's stack follows\n", workload, d)
		pprof.Lookup("goroutine").WriteTo(w, 2)
		exit(2)
	}).Stop
}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// run sets the workload up, executes it and tears it down again, on every
// path: listeners, appliers and the WAL directory never outlive the run.
func (c runConfig) run(def *workloadDef) (r *run, err error) {
	if def.clients > runtime.NumCPU() {
		def.clients = runtime.NumCPU()
	}
	r = &run{def: def, seed: c.seed, seconds: c.seconds, traced: c.traced, outDir: c.outDir, m: newMetricSet()}
	r.ds = newDataset(c.seed, baseDays)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	defer watchdog(runDeadline+unwindGrace, def.name, os.Stderr, os.Exit)()
	defer func() {
		if r.f != nil {
			if cerr := r.f.close(); err == nil {
				err = cerr
			}
		}
	}()
	if err := r.setup(ctx); err != nil {
		return nil, err
	}
	if err := def.execute(r, ctx); err != nil {
		return nil, err
	}
	if err := r.writeTraceFile(); err != nil {
		return nil, err
	}
	return r, nil
}

// report prints every metric of the run by name and then the result line. It
// returns false when an operation failed or an end-to-end metric is missing.
func (r *run) report() bool {
	for k, v := range r.m.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.m.values[k] = 0
		}
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	note := ""
	if r.traced {
		note = " (untraced half of a traced run: not the gated numbers)"
	}
	r.m.print(os.Stdout, fmt.Sprintf("# %s seed %d: %d operations, %d failed; end to end%s", r.def.name, r.seed, r.attempted, r.failed, note), endToEnd)
	r.m.print(os.Stdout, "# per layer", perLayer)
	if n := r.m.samples["query_p95_ms"]; n > 0 {
		fmt.Printf("  %d query samples: the highest percentile with ten samples beyond it is p%.0f\n", n, highestPercentile(n, 90, 95, 99))
	}
	for _, c := range r.classes {
		fmt.Printf("  class %-10s n=%-7d p50 %10.4g ms  p95 %10.4g ms\n", c.class, c.n, c.p50, c.p95)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", f)
	}
	ok := r.failed == 0
	if !r.traced {
		if missing := r.m.missing(endToEnd); len(missing) > 0 {
			fmt.Fprintln(os.Stderr, "benchmark: end-to-end metrics not measured:", missing)
			ok = false
		}
	}
	line := r.m.result(defs, r.attempted, r.failed)
	line.Correct = ok
	if err := line.write(os.Stdout); err != nil {
		fatal(err)
	}
	return ok
}

// selfCheck is -aa: every workload twice on the same binary and seed, both
// sets printed with the relative difference of each end-to-end metric against
// its bound, in either direction, and of each ungated metric an untraced run
// measures. It returns the exit code: 1 on a breach or a failed operation.
func selfCheck(c runConfig) int {
	c.traced = false
	code := 0
	for _, def := range workloads {
		var sets [2]*metricSet
		for i := range sets {
			r, err := c.run(def)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", def.name, err))
			}
			if r.failed > 0 {
				for _, f := range r.failures {
					fmt.Fprintln(os.Stderr, "benchmark: failed:", f)
				}
				code = 1
			}
			sets[i] = r.m
		}
		fmt.Printf("# %s seed %d, A/A\n", def.name, c.seed)
		fmt.Printf("  %-30s %14s %14s %9s %9s %7s\n", "metric", "first", "second", "worse by", "apart", "bound")
		for _, d := range slices.Concat(endToEnd, perLayer) {
			a, measured := sets[0].values[d.Name]
			b := sets[1].values[d.Name]
			if !measured {
				continue // a traced run's metric
			}
			verdict := "ungated"
			if d.Bound > 0 {
				verdict = fmt.Sprintf("%6.1f%%", d.Bound*100)
				if apart(d, a, b) > d.Bound {
					verdict += "  BREACH"
					code = 1
				}
			}
			fmt.Printf("  %-30s %14.6g %14.6g %8.2f%% %8.2f%% %s\n", d.Name, a, b, worseBy(d, a, b)*100, apart(d, a, b)*100, verdict)
		}
	}
	return code
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// apart is how far two runs of the same code lie from each other: the larger
// of "b worse than a" and "a worse than b". An A/A pair has no better side, so
// a second run that is faster by more than the bound is as much a breach as a
// slower one.
func apart(d metricDef, a, b float64) float64 {
	return math.Max(worseBy(d, a, b), worseBy(d, b, a))
}
