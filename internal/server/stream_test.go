package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestQueryStreamDeliversRows: the programmatic streaming API delivers the
// same row count as Query, holds a worker slot only while open, and records
// the query in the metrics at Close.
func TestQueryStreamDeliversRows(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 2})
	want := mustQuery(t, s, `SELECT userId, powerConsumed FROM meterdata`)

	st, err := s.QueryStream(context.Background(), Request{SQL: `SELECT userId, powerConsumed FROM meterdata`})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for st.Next() {
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want.Result.Rows) {
		t.Fatalf("streamed %d rows, Query returned %d", n, len(want.Result.Rows))
	}
	if got := s.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d while stream open, want 1", got)
	}
	st.Close()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Close, want 0", got)
	}
	if snap := s.Stats(); snap.Server.Queries < 2 {
		t.Fatalf("stream not observed in metrics: %+v", snap.Server)
	}
}

// TestQueryStreamOnlySelect: non-SELECT statements cannot stream and the
// admission slot is returned.
func TestQueryStreamOnlySelect(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 1})
	if _, err := s.QueryStream(context.Background(), Request{SQL: `SHOW TABLES`}); err == nil {
		t.Fatal("streaming SHOW TABLES succeeded")
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after rejected stream, want 0", got)
	}
	// The one worker slot must still be available.
	mustQuery(t, s, `SELECT count(*) FROM meterdata`)
}

// TestQueryDeadlineMapsToTimeout: an expired request deadline surfaces as
// ErrQueryTimeout no matter where it catches the query (admission wait or
// mid-scan abort), and the metrics count it as a timeout.
func TestQueryDeadlineMapsToTimeout(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 2})
	_, err := s.Query(context.Background(), Request{
		SQL:     `SELECT count(*) FROM meterdata`,
		Timeout: time.Nanosecond,
	})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}
	if snap := s.Stats(); snap.Server.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", snap.Server.Timeouts)
	}

	// A caller cancellation is a cancellation, not a timeout.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.Query(ctx, Request{SQL: `SELECT count(*) FROM meterdata`})
	if err == nil || errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("cancelled request err = %v, want a non-timeout error", err)
	}
	if snap := s.Stats(); snap.Server.Timeouts != 1 {
		t.Fatalf("cancellation counted as timeout: %+v", snap.Server)
	}
}

// TestHTTPStreamNDJSON: /query?stream=ndjson frames the result as one
// header line, one line per row, and a trailer carrying done + final stats.
func TestHTTPStreamNDJSON(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + `/query?stream=ndjson&q=` +
		strings.ReplaceAll(`SELECT userId, powerConsumed FROM meterdata WHERE userId<=5`, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		t.Fatalf("got %d NDJSON lines", len(lines))
	}
	var header struct {
		Columns []string `json:"columns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil || len(header.Columns) != 2 {
		t.Fatalf("bad header line %q: %v", lines[0], err)
	}
	var trailer struct {
		Done     bool   `json:"done"`
		RowCount int    `json:"row_count"`
		Error    string `json:"error"`
		Stats    struct {
			AccessPath  string `json:"access_path"`
			RecordsRead int64  `json:"records_read"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", lines[len(lines)-1], err)
	}
	if !trailer.Done || trailer.Error != "" {
		t.Fatalf("trailer = %+v", trailer)
	}
	if got := len(lines) - 2; got != trailer.RowCount {
		t.Fatalf("trailer counts %d rows, body has %d", trailer.RowCount, got)
	}
	if trailer.Stats.AccessPath == "" || trailer.Stats.RecordsRead == 0 {
		t.Fatalf("trailer stats empty: %+v", trailer.Stats)
	}

	// The worker slot is back: the server still answers.
	if s.InFlight() != 0 {
		t.Fatalf("InFlight = %d after stream finished", s.InFlight())
	}

	// An unknown stream mode is a 400.
	bad, err := http.Get(srv.URL + `/query?stream=csv&q=SELECT+count(*)+FROM+meterdata`)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown stream mode status %d", bad.StatusCode)
	}
}

// TestHTTPStreamClientDisconnect: a client that walks away mid-stream
// cancels the scan; the server releases the slot and keeps serving.
func TestHTTPStreamClientDisconnect(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+`/query?stream=ndjson&q=SELECT+userId+FROM+meterdata`, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Read the header line, then disconnect.
	buf := make([]byte, 1)
	resp.Body.Read(buf)
	cancel()
	resp.Body.Close()

	// The slot must come back (MaxConcurrent is 1, so a stuck stream would
	// deadlock this query).
	deadline := time.Now().Add(10 * time.Second)
	for s.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream slot never released; InFlight = %d", s.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mustQuery(t, s, `SELECT count(*) FROM meterdata`)
}

// TestHTTPStreamPlanErrorFailsAtOpen: a SELECT that fails to plan fails
// before the stream opens, so /query?stream=ndjson answers with the status
// and JSON error body the non-streaming /query gives the same statement,
// not a 200 header followed by an error trailer.
func TestHTTPStreamPlanErrorFailsAtOpen(t *testing.T) {
	s, _ := testServer(t, Config{MaxConcurrent: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(params string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + `/query?q=SELECT+v+FROM+nosuchtable` + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: body is not a JSON error: %v", params, err)
		}
		return resp.StatusCode, body.Error
	}
	status, msg := get("")
	if status != http.StatusBadRequest || msg == "" {
		t.Fatalf("/query: status %d, error %q; want 400 with an error", status, msg)
	}
	streamStatus, streamMsg := get("&stream=ndjson")
	if streamStatus != status || streamMsg != msg {
		t.Fatalf("stream: status %d, error %q; /query: status %d, error %q", streamStatus, streamMsg, status, msg)
	}
	// The one worker slot came back.
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after a stream that failed to open", got)
	}
	mustQuery(t, s, `SELECT count(*) FROM meterdata`)
}
