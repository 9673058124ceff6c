package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// queryRequest is the JSON body of POST /query. GET /query accepts the same
// fields as URL parameters (q/sql, session, timeout_ms, no_cache, stream).
type queryRequest struct {
	SQL       string `json:"sql"`
	Session   string `json:"session,omitempty"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
	// Stream selects the response framing: "" buffers the whole result into
	// one JSON object; "ndjson" streams rows as the scan produces them —
	// one JSON line for the header, one per row, one trailer with the final
	// stats — and honours a client disconnect by aborting the scan.
	Stream string `json:"stream,omitempty"`
	// Trace asks for the query's span tree in the response (the trailer,
	// for streaming responses). GET accepts it as ?trace=1.
	Trace bool `json:"trace,omitempty"`
}

// queryStatsJSON renders hive.QueryStats in the paper's terms, plus the
// vectorised-path counters (omitted when zero / on the row path).
type queryStatsJSON struct {
	AccessPath    string  `json:"access_path,omitempty"`
	IndexSimSec   float64 `json:"index_sim_sec"`
	DataSimSec    float64 `json:"data_sim_sec"`
	SimTotalSec   float64 `json:"sim_total_sec"`
	RecordsRead   int64   `json:"records_read"`
	BytesRead     int64   `json:"bytes_read"`
	Splits        int     `json:"splits"`
	Seeks         int64   `json:"seeks"`
	RowsOut       int     `json:"rows_out"`
	WallMs        float64 `json:"wall_ms"`
	Vectorized    bool    `json:"vectorized,omitempty"`
	GroupsSkipped int64   `json:"groups_skipped,omitempty"`
	DictProbes    int64   `json:"dict_probes,omitempty"`
	RunsSkipped   int64   `json:"runs_skipped,omitempty"`
	ShufflePairs  int64   `json:"shuffle_pairs,omitempty"`
	ShuffleBytes  int64   `json:"shuffle_bytes,omitempty"`
}

func newQueryStatsJSON(s hive.QueryStats) queryStatsJSON {
	return queryStatsJSON{
		AccessPath:    s.AccessPath,
		IndexSimSec:   s.IndexSimSec,
		DataSimSec:    s.DataSimSec,
		SimTotalSec:   s.SimTotalSec(),
		RecordsRead:   s.RecordsRead,
		BytesRead:     s.BytesRead,
		Splits:        s.Splits,
		Seeks:         s.Seeks,
		RowsOut:       s.RowsOut,
		WallMs:        float64(s.Wall.Microseconds()) / 1e3,
		Vectorized:    s.Vectorized,
		GroupsSkipped: s.GroupsSkipped,
		DictProbes:    s.DictProbes,
		RunsSkipped:   s.RunsSkipped,
		ShufflePairs:  s.ShufflePairs,
		ShuffleBytes:  s.ShuffleBytes,
	}
}

type queryResponse struct {
	Columns  []string            `json:"columns,omitempty"`
	Rows     [][]any             `json:"rows,omitempty"`
	RowCount int                 `json:"row_count"`
	Message  string              `json:"message,omitempty"`
	Cached   bool                `json:"cached"`
	Session  string              `json:"session"`
	WallMs   float64             `json:"wall_ms"`
	Stats    queryStatsJSON      `json:"stats"`
	Trace    *trace.SpanSnapshot `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP front-end:
//
//	POST/GET /query      execute one statement, JSON rows + QueryStats
//	POST     /load       push rows into a table (JSON or CSV body)
//	GET      /tables     catalog snapshot
//	GET      /stats      server, session and cache metrics
//	GET      /metrics    the same metrics in Prometheus text format
//	GET      /debug/slow the slow-query flight recorder's retained traces
//	GET      /healthz    liveness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/load", s.handleLoad)
	mux.HandleFunc("/tables", s.handleTables)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/slow", s.handleDebugSlow)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// writeJSON encodes v before it commits to a status, so a value encoding/json
// refuses is a 500 with a message, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		body.Reset()
		enc.Encode(errorResponse{Error: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body.Bytes())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON body: " + err.Error()})
			return
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.SQL = q.Get("q")
		if req.SQL == "" {
			req.SQL = q.Get("sql")
		}
		req.Session = q.Get("session")
		if ms := q.Get("timeout_ms"); ms != "" {
			v, err := strconv.ParseInt(ms, 10, 64)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad timeout_ms"})
				return
			}
			req.TimeoutMs = v
		}
		req.NoCache = q.Get("no_cache") == "1" || q.Get("no_cache") == "true"
		req.Stream = q.Get("stream")
		req.Trace = q.Get("trace") == "1" || q.Get("trace") == "true"
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET or POST"})
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing sql"})
		return
	}
	switch req.Stream {
	case "":
	case "ndjson":
		s.handleQueryStream(w, r, req)
		return
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "unknown stream mode " + strconv.Quote(req.Stream) + " (want ndjson)"})
		return
	}

	resp, err := s.Query(r.Context(), Request{
		SQL:     req.SQL,
		Session: req.Session,
		Timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		NoCache: req.NoCache,
		Trace:   req.Trace,
	})
	if err != nil {
		writeJSON(w, httpStatusOf(err), errorResponse{Error: err.Error()})
		return
	}

	res := resp.Result
	out := queryResponse{
		Columns:  res.Columns,
		RowCount: len(res.Rows),
		Message:  res.Message,
		Cached:   resp.Cached,
		Session:  resp.Session,
		WallMs:   float64(resp.Wall.Microseconds()) / 1e3,
		Trace:    resp.Trace,
		Stats:    newQueryStatsJSON(res.Stats),
	}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, jsonRow(row))
	}
	writeJSON(w, http.StatusOK, out)
}

// streamHeader is the first NDJSON line of a streaming response.
type streamHeader struct {
	Columns []string `json:"columns"`
	Session string   `json:"session"`
}

// streamTrailer is the last NDJSON line: the scan's outcome and final stats
// (partial when the scan was aborted — Error then says why).
type streamTrailer struct {
	Done     bool                `json:"done"`
	RowCount int                 `json:"row_count"`
	Error    string              `json:"error,omitempty"`
	WallMs   float64             `json:"wall_ms"`
	Stats    queryStatsJSON      `json:"stats"`
	Trace    *trace.SpanSnapshot `json:"trace,omitempty"`
}

// handleQueryStream serves one SELECT as NDJSON, writing rows as the cursor
// delivers them. The scan runs under r.Context(): a client that disconnects
// mid-stream aborts it within one split boundary.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request, req queryRequest) {
	start := time.Now()
	st, err := s.QueryStream(r.Context(), Request{
		SQL:     req.SQL,
		Session: req.Session,
		Timeout: time.Duration(req.TimeoutMs) * time.Millisecond,
		Trace:   req.Trace,
	})
	if err != nil {
		writeJSON(w, httpStatusOf(err), errorResponse{Error: err.Error()})
		return
	}
	defer st.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(streamHeader{Columns: st.Columns(), Session: st.Session})
	flush()

	rows := 0
	for st.Next() {
		enc.Encode(jsonRow(st.Row()))
		rows++
		if rows%64 == 0 {
			flush()
		}
	}

	// The scan is finished (or aborted); Stats/Err no longer block. Close
	// now (idempotent — the deferred call no-ops) so the trace tree in the
	// trailer is final rather than a mid-flight snapshot.
	st.Close()
	stats := st.Stats()
	trailer := streamTrailer{
		Done:     true,
		RowCount: rows,
		WallMs:   float64(time.Since(start).Microseconds()) / 1e3,
		Stats:    newQueryStatsJSON(stats),
	}
	if err := st.Err(); err != nil {
		trailer.Done = false
		trailer.Error = err.Error()
	}
	if req.Trace {
		trailer.Trace = st.TraceSnapshot()
	}
	enc.Encode(trailer)
	flush()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// debugSlowResponse is the /debug/slow body: the flight recorder's retained
// traces, newest first.
type debugSlowResponse struct {
	// Total counts records ever taken, including those the ring evicted.
	Total       int64          `json:"total"`
	SlowQueryMs int            `json:"slow_query_ms"`
	RingSize    int            `json:"ring_size"`
	Records     []trace.Record `json:"records"`
}

func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	writeJSON(w, http.StatusOK, debugSlowResponse{
		Total:       s.recorder.Total(),
		SlowQueryMs: s.cfg.SlowQueryMs,
		RingSize:    s.cfg.TraceRingSize,
		Records:     s.SlowTraces(),
	})
}

// jsonRow converts one storage.Row into JSON-encodable cells: numbers stay
// numbers, timestamps render as RFC 3339, and a float JSON has no number for
// (NaN, the average of no rows; an infinity) is null.
func jsonRow(row storage.Row) []any {
	cells := make([]any, len(row))
	for i, v := range row {
		switch v.Kind {
		case storage.KindInt64:
			cells[i] = v.I
		case storage.KindFloat64:
			if !math.IsNaN(v.F) && !math.IsInf(v.F, 0) {
				cells[i] = v.F
			}
		case storage.KindTime:
			cells[i] = time.Unix(v.I, 0).UTC().Format(time.RFC3339)
		default:
			cells[i] = v.S
		}
	}
	return cells
}

func httpStatusOf(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, shard.ErrReplicaDown), errors.Is(err, wal.ErrLogRefused):
		// Draining, a shard with no live replica left, or a shard log that
		// refuses appends: an availability failure the client can retry
		// elsewhere or later, not a bad request.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueryTimeout):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Tables []hive.TableInfo `json:"tables"`
	}{Tables: s.b.TableInfos()})
}

// loadRequest is the JSON body of POST /load. Cells may be numbers or
// strings; each is coerced to its column's kind. A text/csv body with a
// ?table= parameter is accepted instead, one comma-separated row per line.
type loadRequest struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
}

type loadResponse struct {
	Table       string `json:"table"`
	RowsLoaded  int    `json:"rows_loaded"`
	Invalidated int    `json:"invalidated"`
	// Durability is "applied" when the rows are queryable at ack time (no
	// log directory, or ?sync=1 with one) and "logged" when they are durable
	// in the write-ahead log but still draining into the warehouses.
	Durability string `json:"durability"`
	// LSN is the highest sequence number the load engine assigned the load.
	LSN uint64 `json:"lsn,omitempty"`
}

// readLoadBody reads at most limit bytes of the request body, failing with
// a distinguishable error when the body exceeds the bound (rather than
// silently truncating, which would load a prefix of the rows).
var errBodyTooLarge = errors.New("request body too large")

func readLoadBody(r io.Reader, limit int64) ([]byte, error) {
	if limit <= 0 { // unlimited
		return io.ReadAll(r)
	}
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("%w: exceeds the %d-byte limit (MaxLoadBytes); split the load into smaller batches", errBodyTooLarge, limit)
	}
	return body, nil
}

// handleLoad is the push half of streaming ingest: collectors POST readings
// over HTTP instead of going through the CLI, and the server routes them
// through LoadRowsCtx so metrics and cache invalidation stay exact. Behind
// a log directory the handler acks at log-durability speed and ?sync=1
// waits until the rows are applied and queryable; without one every ack
// waits.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST"})
		return
	}
	body, err := readLoadBody(r.Body, s.cfg.MaxLoadBytes)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}

	table := r.URL.Query().Get("table")
	var cells [][]any
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "text/csv") || strings.HasPrefix(ct, "text/plain") {
		records, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad CSV body: " + err.Error()})
			return
		}
		for _, rec := range records {
			row := make([]any, len(rec))
			for i, f := range rec {
				row[i] = f
			}
			cells = append(cells, row)
		}
	} else {
		// UseNumber keeps each number's literal: a cell parses exactly, as a
		// CSV field does.
		var req loadRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		err := dec.Decode(&req)
		if err == nil && dec.More() {
			err = errors.New("data after the top-level value")
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON body: " + err.Error()})
			return
		}
		if req.Table != "" {
			table = req.Table
		}
		cells = req.Rows
	}
	if table == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing table"})
		return
	}
	if len(cells) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no rows"})
		return
	}

	schema, err := s.b.TableSchema(table)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	rows := make([]storage.Row, len(cells))
	for i, rec := range cells {
		row, err := decodeLoadRow(schema, rec)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("row %d: %v", i+1, err)})
			return
		}
		rows[i] = row
	}

	syncParam := r.URL.Query().Get("sync")
	res, err := s.LoadRowsCtx(r.Context(), table, rows, syncParam == "1" || syncParam == "true")
	if err != nil {
		writeJSON(w, httpStatusOf(err), errorResponse{Error: err.Error()})
		return
	}
	out := loadResponse{
		Table:       table,
		RowsLoaded:  len(rows),
		Invalidated: res.Invalidated,
		Durability:  "applied",
		LSN:         res.LSN,
	}
	if res.Durable && !res.Applied {
		out.Durability = "logged"
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeLoadRow coerces one wire row (JSON cells or CSV fields) to the
// table schema. A JSON number arrives as its literal (json.Number) and
// parses for its column's kind like a string cell: a bigint keeps every
// digit, a fraction sent to a bigint column is an error, and a string
// column keeps the literal's text.
func decodeLoadRow(schema *storage.Schema, rec []any) (storage.Row, error) {
	if len(rec) != schema.Len() {
		return nil, fmt.Errorf("has %d cells, schema wants %d", len(rec), schema.Len())
	}
	row := make(storage.Row, len(rec))
	for i, cell := range rec {
		if n, ok := cell.(json.Number); ok {
			cell = string(n)
		}
		switch v := cell.(type) {
		case string:
			val, err := storage.ParseValue(schema.Col(i).Kind, v)
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", schema.Col(i).Name, err)
			}
			row[i] = val
		case bool:
			return nil, fmt.Errorf("column %s: booleans are not a supported cell type", schema.Col(i).Name)
		case nil:
			return nil, fmt.Errorf("column %s: null cells are not supported", schema.Col(i).Name)
		default:
			return nil, fmt.Errorf("column %s: unsupported cell type %T", schema.Col(i).Name, cell)
		}
	}
	if err := storage.CheckTextRow(row); err != nil {
		return nil, err
	}
	return row, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET"})
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// healthzResponse is the /healthz body. It carries the per-shard
// live-replica counts (a single-warehouse server is one shard with one
// replica; a draining server reports only its status), and DeadShards names
// shards with no replica left at all — those fail scatters, so the endpoint
// reports 503 "degraded" and a load balancer can stop routing here until
// they recover.
type healthzResponse struct {
	Status      string `json:"status"`
	Shards      int    `json:"shards,omitempty"`
	Replicas    int    `json:"replicas,omitempty"`
	LiveByShard []int  `json:"live_by_shard,omitempty"`
	DeadShards  []int  `json:"dead_shards,omitempty"`
}

// buildHealthz classifies a fleet health snapshot into the /healthz body
// and its HTTP status.
func buildHealthz(health []shard.SetHealth) (healthzResponse, int) {
	resp := healthzResponse{Status: "ok"}
	resp.Shards = len(health)
	for _, sh := range health {
		if sh.Replicas > resp.Replicas {
			resp.Replicas = sh.Replicas
		}
		resp.LiveByShard = append(resp.LiveByShard, sh.Live)
		if sh.Live == 0 {
			resp.DeadShards = append(resp.DeadShards, sh.Shard)
		}
	}
	if len(resp.DeadShards) > 0 {
		resp.Status = "degraded"
		return resp, http.StatusServiceUnavailable
	}
	return resp, http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, healthzResponse{Status: "draining"})
		return
	}
	resp, code := buildHealthz(s.ShardHealth())
	writeJSON(w, code, resp)
}
