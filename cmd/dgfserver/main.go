// Command dgfserver runs DGFServe: the concurrent HTTP query service over a
// fleet of -shards x -replicas in-process warehouses behind the
// scatter-gather router (the default 1x1 fleet is a single warehouse the
// router passes through to) — modelling the State Grid deployment where many
// operators share one Hive+DGFIndex cluster.
//
// Start it with a generated month of smart-meter data and a DGFIndex:
//
//	dgfserver -demo -addr :8080
//	dgfserver -demo -shards 4 -shard-key userId -addr :8080
//	dgfserver -demo -shards 4 -replicas 2 -addr :8080   # per-shard failover
//	dgfserver -demo -shards 4 -replicas 2 -wal-dir /tmp/dgf-wal -fsync interval   # loads survive restarts
//
// then query it:
//
//	curl -s localhost:8080/query --data '{"sql":
//	  "SELECT sum(powerConsumed) FROM meterdata WHERE userId>=100 AND userId<=4000 AND regionId=3 AND ts>='\''2012-12-05'\'' AND ts<'\''2012-12-12'\''"}'
//	curl -s localhost:8080/tables
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics      # Prometheus text exposition
//	curl -s localhost:8080/debug/slow   # slow-query flight recorder
//
// and push new readings over HTTP:
//
//	curl -s 'localhost:8080/load' --data '{"table":"meterdata",
//	  "rows":[[17,1,"2013-01-01 00:15:00",1.25]]}'
//
// Loads take one path — commit to the fleet's engine, apply in the
// background. With -wal-dir set the engine logs to disk and /load acks once
// the rows are in each touched shard's log ("durability":"logged"); add
// ?sync=1 to wait until they are applied and queryable. Without it nothing
// is stored and every ack waits for the apply ("durability":"applied").
//
// SIGINT/SIGTERM drains in-flight queries before exiting; SIGQUIT dumps the
// slow-query flight recorder to the log and keeps serving.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 8, "max queries executing in parallel")
	queue := flag.Int("queue", 64, "max queries waiting beyond the worker pool")
	cache := flag.Int("cache", 256, "result cache entries (negative disables)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache payload budget in bytes (0 = uncapped)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query timeout")
	shards := flag.Int("shards", 1, "warehouse shards behind the server (1 = unsharded)")
	replicas := flag.Int("replicas", 1, "warehouse replicas per shard (reads fail over, writes go to all)")
	shardKey := flag.String("shard-key", "userId", "routing column when -shards > 1")
	shardStrategy := flag.String("shard-strategy", "hash", "shard routing: hash or range")
	shardBounds := flag.String("shard-bounds", "", "comma-separated ascending split points for range routing (shards-1 values; -demo derives them when omitted)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: loads survive restarts and ack once logged, a down replica is owed what it misses and catches up by log replay (empty: nothing is stored, an ack means applied, a shard with a replica down refuses loads)")
	fsync := flag.String("fsync", "interval", "WAL append durability: always, interval, or off (acts on -wal-dir's logs)")
	maxLoadBytes := flag.Int64("max-load-bytes", 32<<20, "largest accepted POST /load body in bytes (negative = unlimited)")
	demo := flag.Bool("demo", false, "preload generated meter data with a DGFIndex")
	demoUsers := flag.Int("demo-users", 2000, "users in the demo dataset")
	drainWait := flag.Duration("drain", 30*time.Second, "max wait for in-flight queries on shutdown")
	slowMs := flag.Int("slow-ms", 500, "flight-recorder slow-query threshold in ms (negative records errors only)")
	traceRing := flag.Int("trace-ring", 64, "flight-recorder capacity in queries (negative disables)")
	flag.Parse()

	strategy, err := dgfindex.ParseShardStrategy(*shardStrategy)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dgfindex.ShardConfig{Shards: *shards, Replicas: *replicas, Key: *shardKey, Strategy: strategy}
	if strategy == dgfindex.ShardByRange {
		cfg.Bounds, err = rangeBounds(*shardBounds, *shards, *demo, *demoUsers)
		if err != nil {
			log.Fatal(err)
		}
	}
	router, err := dgfindex.NewShardedWithConfig(cfg, dgfindex.DefaultCluster().Scaled(500000), 2<<20)
	if err != nil {
		log.Fatal(err)
	}
	if *demo {
		if err := loadDemo(router, *demoUsers); err != nil {
			log.Fatal(err)
		}
	}

	srv := dgfindex.NewServerWithBackend(router, dgfindex.ServerConfig{
		MaxConcurrent:  *workers,
		MaxQueue:       *queue,
		CacheEntries:   *cache,
		MaxResultBytes: *cacheBytes,
		DefaultTimeout: *timeout,
		SlowQueryMs:    *slowMs,
		TraceRingSize:  *traceRing,
		WALDir:         *walDir,
		FsyncPolicy:    *fsync,
		MaxLoadBytes:   *maxLoadBytes,
	})
	if err := srv.WALError(); err != nil {
		log.Fatal(err)
	}
	if *walDir != "" {
		log.Printf("write path: logging to wal-dir=%s fsync=%s (logged records replayed on boot)", *walDir, *fsync)
	} else {
		log.Printf("write path: no -wal-dir, loads ack once applied and do not survive a restart")
	}

	// SIGQUIT dumps the slow-query flight recorder and keeps serving (this
	// replaces Go's default stack dump for that signal; use SIGABRT for
	// stacks). kill -QUIT <pid> is the operator's "why was it slow just now".
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			recs := srv.SlowTraces()
			log.Printf("flight recorder: %d retained slow/errored queries", len(recs))
			for _, rec := range recs {
				b, err := json.Marshal(rec)
				if err != nil {
					log.Printf("flight recorder: marshal: %v", err)
					continue
				}
				log.Printf("flight recorder: %s", b)
			}
		}
	}()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		log.Printf("dgfserver listening on %s (shards=%d replicas=%d workers=%d queue=%d cache=%d/%dMB)",
			*addr, *shards, *replicas, *workers, *queue, *cache, *cacheBytes>>20)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: draining %d in-flight queries...", srv.InFlight())
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	snap := srv.Stats()
	log.Printf("served %d queries (%d errors, %d cache hits), %.1f simulated cluster-seconds",
		snap.Server.Queries, snap.Server.Errors, snap.ResultCache.Hits, snap.Server.SimClusterSeconds)
}

// rangeBounds resolves the split points for range routing: explicit
// -shard-bounds win; otherwise -demo derives an even split of the demo user
// id space. Running range-sharded over real data requires explicit bounds.
func rangeBounds(spec string, shards int, demo bool, demoUsers int) ([]float64, error) {
	if spec != "" {
		var out []float64
		for _, part := range strings.Split(spec, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("-shard-bounds: bad split point %q: %w", part, err)
			}
			out = append(out, f)
		}
		return out, nil
	}
	if !demo {
		return nil, fmt.Errorf("-shard-strategy range needs -shard-bounds (or -demo to derive them from the demo user space)")
	}
	if demoUsers < shards {
		return nil, fmt.Errorf("-demo-users %d cannot range-split across %d shards; pass -shard-bounds or more users", demoUsers, shards)
	}
	var out []float64
	for i := 1; i < shards; i++ {
		out = append(out, float64((i*demoUsers)/shards))
	}
	return out, nil
}

func loadDemo(r *dgfindex.ShardRouter, users int) error {
	ctx := context.Background()
	cfg := dgfindex.DefaultMeterConfig()
	cfg.Users = users
	cfg.OtherMetrics = 0
	log.Printf("loading demo: %d meter readings across %d days...", cfg.Rows(), cfg.Days)
	if _, err := r.ExecContext(ctx, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, dgfindex.ExecOptions{}); err != nil {
		return err
	}
	if _, err := r.LoadRowsDurable(ctx, "meterdata", cfg.AllRows(), false); err != nil {
		return err
	}
	if _, err := r.ExecContext(ctx, `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`, dgfindex.ExecOptions{}); err != nil {
		return err
	}
	if _, err := r.LoadRowsDurable(ctx, "userInfo", cfg.UserInfoRows(), false); err != nil {
		return err
	}
	interval := max(users/100, 1)
	res, err := r.ExecContext(ctx, fmt.Sprintf(`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_%d',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`, interval), dgfindex.ExecOptions{})
	if err != nil {
		return err
	}
	log.Print(res.Message)
	return nil
}
