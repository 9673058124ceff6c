package main

// A fleet is the system under test: a 4-shard x 2-replica router behind one
// Server, served on a loopback listener and driven over real HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	dgfindex "github.com/smartgrid-oss/dgfindex"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
)

const (
	numShards   = 4
	numReplicas = 2

	meterCols = "userId bigint, regionId bigint, ts timestamp, powerConsumed double"
	dgfProps  = "'regionId'='1_1','userId'='1_400','ts'='2012-12-01_1d','precompute'='sum(powerConsumed);count(*)'"
)

// tableSpec is one table a workload's setup creates and loads.
type tableSpec struct {
	name    string
	format  string // TEXTFILE or RCFILE
	indexed bool   // build the DGFIndex after loading
	vendor  bool   // meterlog's extra dictionary-encodable column
}

// setupStats is what one setup cost.
type setupStats struct {
	wall      time.Duration
	buildWall time.Duration // inside CREATE INDEX, all tables
	heapMB    float64       // HeapAlloc after setup and a GC
}

type fleet struct {
	router *dgfindex.ShardRouter
	srv    *dgfindex.Server
	tables []tableSpec
	walDir string

	http   *http.Server
	served chan struct{}
	client *http.Client
	url    string
}

// newFleet builds the workload's fleet through the serving surface: DDL via
// Server.Query, rows via Server.LoadRowsCtx one day per call, so set-up time
// pays whatever the write path costs. walParent, when set, puts the fleet
// behind a WAL in a fresh directory under it.
func newFleet(ctx context.Context, ds *dataset, tables []tableSpec, join bool, walParent string) (f *fleet, st setupStats, err error) {
	start := time.Now()
	router, err := dgfindex.NewSharded(dgfindex.ShardConfig{Shards: numShards, Replicas: numReplicas, Key: "userId", Strategy: dgfindex.ShardByHash})
	if err != nil {
		return nil, st, err
	}
	// The zero ServerConfig: pacing off, default pool and caches.
	var cfg dgfindex.ServerConfig
	f = &fleet{router: router, tables: tables}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	if walParent != "" {
		if err := os.MkdirAll(walParent, 0o755); err != nil {
			return f, st, err
		}
		if f.walDir, err = os.MkdirTemp(walParent, "wal-"); err != nil {
			return f, st, err
		}
		cfg.WALDir, cfg.FsyncPolicy = f.walDir, "interval"
	}
	f.srv = dgfindex.NewServerWithBackend(router, cfg)
	if err := f.srv.WALError(); err != nil {
		return f, st, err
	}

	exec := func(sql string) error {
		_, err := f.srv.Query(ctx, dgfindex.QueryRequest{SQL: sql})
		return err
	}
	for _, t := range tables {
		cols := meterCols
		if t.vendor {
			cols += ", vendor string"
		}
		if err := exec(fmt.Sprintf("CREATE TABLE %s (%s) STORED AS %s", t.name, cols, t.format)); err != nil {
			return f, st, err
		}
		for day := 0; day < baseDays; day++ {
			if _, err := f.srv.LoadRowsCtx(ctx, t.name, ds.rows(day, t.vendor), true); err != nil {
				return f, st, err
			}
		}
		if t.indexed {
			t0 := time.Now()
			if err := exec(fmt.Sprintf("CREATE INDEX idx_%s ON TABLE %s(regionId, userId, ts) AS 'dgf' IDXPROPERTIES (%s)", t.name, t.name, dgfProps)); err != nil {
				return f, st, err
			}
			st.buildWall += time.Since(t0)
		}
	}
	if join {
		if err := exec("CREATE TABLE userinfo (uid bigint, userName string, regionId bigint, address string)"); err != nil {
			return f, st, err
		}
		if _, err := f.srv.LoadRowsCtx(ctx, "userinfo", userInfoRows(), true); err != nil {
			return f, st, err
		}
	}

	if err := f.serve(); err != nil {
		return f, st, err
	}

	// Set-up ends with the first successful query over HTTP.
	first := stmt{Table: tables[0].name, Select: selCountSum}
	first.render()
	resp, err := f.query(ctx, first.SQL, false)
	if err != nil {
		return f, st, fmt.Errorf("first query: %w", err)
	}
	want := ds.answer(&first, baseDays)
	if err := want.compare(&first, resp.Rows); err != nil {
		return f, st, fmt.Errorf("first query: %w", err)
	}
	st.wall = time.Since(start)

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	return f, st, nil
}

// close stops the listener, drains and closes the server (and its WAL) and
// removes the WAL directory. Safe on a partly built fleet.
func (f *fleet) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	keep(f.stopServing(ctx))
	if f.srv != nil {
		keep(f.srv.Close(ctx))
	}
	if f.walDir != "" {
		keep(os.RemoveAll(f.walDir))
	}
	return first
}

// queryStats mirrors the "stats" object of a /query response.
type queryStats struct {
	AccessPath    string  `json:"access_path"`
	SimTotalSec   float64 `json:"sim_total_sec"`
	RecordsRead   int64   `json:"records_read"`
	BytesRead     int64   `json:"bytes_read"`
	Splits        int     `json:"splits"`
	Vectorized    bool    `json:"vectorized"`
	GroupsSkipped int64   `json:"groups_skipped"`
	DictProbes    int64   `json:"dict_probes"`
	RunsSkipped   int64   `json:"runs_skipped"`
}

// queryReply is a decoded /query response plus the measured round trip.
type queryReply struct {
	Rows   [][]any             `json:"rows"`
	Cached bool                `json:"cached"`
	WallMs float64             `json:"wall_ms"`
	Stats  queryStats          `json:"stats"`
	Trace  *dgfindex.TraceSpan `json:"trace"`

	sent time.Time
	rtt  time.Duration
}

// post sends one request and decodes a 200 response into out; the round trip
// covers reading and decoding the body.
func (f *fleet) post(ctx context.Context, path string, body []byte, out any) (sent time.Time, rtt time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+path, bytes.NewReader(body))
	if err != nil {
		return sent, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sent = time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return sent, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return sent, 0, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return sent, 0, fmt.Errorf("%s: decode response: %w", path, err)
	}
	return sent, time.Since(sent), nil
}

func (f *fleet) query(ctx context.Context, sql string, trace bool) (*queryReply, error) {
	body, err := json.Marshal(struct {
		SQL   string `json:"sql"`
		Trace bool   `json:"trace,omitempty"`
	}{sql, trace})
	if err != nil {
		return nil, err
	}
	var r queryReply
	r.sent, r.rtt, err = f.post(ctx, "/query", body, &r)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// load posts one pre-encoded /load body.
func (f *fleet) load(ctx context.Context, body []byte, sync bool) (sent time.Time, rtt time.Duration, err error) {
	path := "/load"
	if sync {
		path += "?sync=1"
	}
	var ack struct {
		RowsLoaded int `json:"rows_loaded"`
	}
	sent, rtt, err = f.post(ctx, path, body, &ack)
	if err == nil && ack.RowsLoaded != batchRows {
		err = fmt.Errorf("/load acknowledged %d rows, want %d", ack.RowsLoaded, batchRows)
	}
	return sent, rtt, err
}

// storedBytes is what replica 0 of every shard keeps for the fleet's tables:
// every file under the warehouse root (data and sidecars) plus the DGFIndex
// key-value pairs.
func (f *fleet) storedBytes() (files, index int64, err error) {
	for i := 0; i < numShards; i++ {
		w := f.router.Shard(i)
		n, err := treeBytes(w.FS, w.Root)
		if err != nil {
			return 0, 0, err
		}
		files += n
		for _, t := range f.tables {
			tab, err := w.Table(t.name)
			if err != nil {
				return 0, 0, err
			}
			if tab.DgfKV != nil {
				index += tab.DgfKV.SizeBytes()
			}
		}
	}
	return files, index, nil
}

func treeBytes(fs *dfs.FS, dir string) (int64, error) {
	entries, err := fs.List(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !e.IsDir {
			n += e.Size
			continue
		}
		sub, err := treeBytes(fs, e.Path)
		if err != nil {
			return 0, err
		}
		n += sub
	}
	return n, nil
}

// serve starts the HTTP front-end of f.srv on a fresh loopback port.
func (f *fleet) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.http = &http.Server{Handler: f.srv.Handler()}
	f.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		srv.Serve(ln) // returns once stopServing shuts the server down
	}(f.http, f.served)
	f.url = "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8}}
	return nil
}

// stopServing shuts the HTTP front-end down and waits for it.
func (f *fleet) stopServing(ctx context.Context) error {
	if f.http == nil {
		return nil
	}
	err := f.http.Shutdown(ctx)
	<-f.served
	f.client.CloseIdleConnections()
	f.http = nil
	return err
}

// freshServer replaces the Server (and so its plan and result caches) with a
// new one over the same router and data. The old Server closes the load
// engine it opened and the new one opens its own, from the zero config: so not
// for a fleet with a WAL directory, which would go on without its log.
func (f *fleet) freshServer() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.stopServing(ctx); err != nil {
		return err
	}
	if err := f.srv.Close(ctx); err != nil {
		return err
	}
	f.srv = dgfindex.NewServerWithBackend(f.router, dgfindex.ServerConfig{})
	return f.serve()
}
