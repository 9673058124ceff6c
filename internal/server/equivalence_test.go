package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/cluster"
	"github.com/smartgrid-oss/dgfindex/internal/dfs"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
)

// equivalenceServers builds the two ways one warehouse gets behind a Server:
// New over a warehouse that was populated directly (the router New builds
// has never heard of its tables), and NewWithBackend over an explicit 1x1
// router with a routing key, populated through the router (which therefore
// tracks the table and routes its rows). Both hold the same rows in the same
// files.
func equivalenceServers(t *testing.T) (bare, routed *httptest.Server) {
	t.Helper()
	bare = httptest.NewServer(New(testWarehouse(t), Config{}).Handler())
	t.Cleanup(bare.Close)

	cc := cluster.Default()
	cc.Workers = 4
	r, err := shard.New(shard.Config{Shards: 1, Key: "userId"}, func(int) *hive.Warehouse {
		return hive.NewWarehouse(dfs.New(1<<20), cc, "/warehouse")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecContext(context.Background(), `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp, powerConsumed double)`, hive.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadRowsDurable(context.Background(), "meterdata", meterRows(1, 60, 4, 4), false); err != nil {
		t.Fatal(err)
	}
	routed = httptest.NewServer(NewWithBackend(r, Config{}).Handler())
	t.Cleanup(routed.Close)
	return bare, routed
}

// fetch performs one request and returns the status plus the decoded JSON
// lines of the body (one for a plain response, several for NDJSON) with the
// wall-clock fields — the only legitimately different ones — removed.
func fetch(t *testing.T, method, url string, body []byte) (int, []map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := map[string]any{}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			// NDJSON row lines are arrays, not objects: keep them verbatim.
			line = map[string]any{"row": sc.Text()}
		}
		delete(line, "wall_ms")
		if stats, ok := line["stats"].(map[string]any); ok {
			delete(stats, "wall_ms")
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

// spanNames flattens a JSON span tree into its depth-indented span names.
func spanNames(node any, depth int, out *[]string) {
	sn, ok := node.(map[string]any)
	if !ok {
		return
	}
	*out = append(*out, strings.Repeat("  ", depth)+sn["name"].(string))
	children, _ := sn["children"].([]any)
	for _, c := range children {
		spanNames(c, depth+1, out)
	}
}

// TestBareAndRoutedServersEquivalent: a Server built by New(w) and one built
// by NewWithBackend over an explicit 1x1 router are the same server. Every
// statement below goes to both over HTTP and must come back with the same
// status and the same JSON — rows, stats, access path, cached flag, error
// text — and the same span names where a trace is involved.
func TestBareAndRoutedServersEquivalent(t *testing.T) {
	bare, routed := equivalenceServers(t)
	both := func(method, path string, body []byte) (a, b []map[string]any) {
		t.Helper()
		ca, a := fetch(t, method, bare.URL+path, body)
		cb, b := fetch(t, method, routed.URL+path, body)
		if ca != cb {
			t.Fatalf("%s %s: status %d (New) vs %d (1x1 router)\n%v\n%v", method, path, ca, cb, a, b)
		}
		return a, b
	}
	same := func(what string, a, b any) {
		t.Helper()
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s differs:\nNew:        %s\n1x1 router: %s", what, ja, jb)
		}
	}
	query := func(sql string) (a, b []map[string]any) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"sql": sql})
		return both(http.MethodPost, "/query", body)
	}

	const hot = `SELECT count(*), sum(powerConsumed) FROM meterdata WHERE userId>=5 AND userId<=40 AND regionId>=1 AND regionId<=4 AND ts>='2012-12-01' AND ts<'2012-12-04'`
	statements := []string{
		`CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts) AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_8', 'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`,
		hot,
		hot, // the repeat is a result-cache hit on both
		`SELECT regionId, avg(powerConsumed), count(*) FROM meterdata GROUP BY regionId`,
		`SELECT userId, powerConsumed FROM meterdata WHERE userId=11`,
		`SELECT userId, ts FROM meterdata WHERE userId>=7 AND userId<=9 LIMIT 5`,
		`EXPLAIN ` + hot,
		`EXPLAIN SELECT userId FROM meterdata WHERE powerConsumed > 5`,
		`SHOW TABLES`,
		`DESCRIBE meterdata`,
		`SELECT * FROM nosuch`,
		`SELEKT 1`,
		`CREATE TABLE meterdata (userId bigint)`, // a failed DDL reads the same through one store
	}
	for _, sql := range statements {
		a, b := query(sql)
		same(sql, a, b)
	}
	if a, _ := query(hot); a[0]["cached"] != true || !strings.HasPrefix(a[0]["stats"].(map[string]any)["access_path"].(string), "dgfindex") {
		t.Fatalf("hot statement should be a cached dgfindex answer on both, got %v", a[0])
	}

	// TRACE SELECT renders the span tree as rows whose wall column differs
	// run to run: the span-name column must not (event rows are named by
	// their "@offset" and are skipped).
	ta, tb := query(`TRACE ` + hot)
	names := func(resp []map[string]any) (out []string) {
		rows, _ := resp[0]["rows"].([]any)
		for _, r := range rows {
			if name := r.([]any)[0].(string); !strings.HasPrefix(strings.TrimSpace(name), "@") {
				out = append(out, name)
			}
		}
		return out
	}
	if len(names(ta)) == 0 {
		t.Fatalf("TRACE SELECT returned no spans: %v", ta)
	}
	same("TRACE SELECT span names", names(ta), names(tb))

	// ?trace=1 returns the serving tree (plan, result cache, admission, and
	// the warehouse's spans underneath).
	body, _ := json.Marshal(map[string]any{"sql": hot, "trace": true, "no_cache": true})
	qa, qb := both(http.MethodPost, "/query", body)
	var na, nb []string
	spanNames(qa[0]["trace"], 0, &na)
	spanNames(qb[0]["trace"], 0, &nb)
	if len(na) < 3 {
		t.Fatalf("traced query carries no span tree: %v", qa[0])
	}
	same("traced /query span names", na, nb)

	// NDJSON: same header, same trailer, same rows (a cursor delivers rows in
	// split-completion order, so the row lines compare as a sorted set).
	stream := "/query?stream=ndjson&q=" + url.QueryEscape(`SELECT userId, powerConsumed FROM meterdata WHERE userId<=5`)
	sa, sb := both(http.MethodGet, stream, nil)
	if len(sa) < 3 {
		t.Fatalf("stream returned %d lines", len(sa))
	}
	for _, lines := range [][]map[string]any{sa, sb} {
		rows := lines[1 : len(lines)-1]
		sort.Slice(rows, func(i, j int) bool { return rows[i]["row"].(string) < rows[j]["row"].(string) })
	}
	same("NDJSON stream", sa, sb)

	ca, cb := both(http.MethodGet, "/tables", nil)
	same("/tables", ca, cb)

	// A load through /load is applied at ack time on both, evicts the cached
	// hot result on both, and the next hot query re-executes to the same
	// new answer.
	la, lb := both(http.MethodPost, "/load", jsonLoadBody(t, 20, 6))
	same("/load", la, lb)
	if la[0]["durability"] != "applied" || la[0]["invalidated"].(float64) < 1 {
		t.Fatalf("/load ack = %v, want applied with at least one invalidation", la[0])
	}
	ha, hb := query(hot)
	same("hot statement after the load", ha, hb)
	if ha[0]["cached"] != false {
		t.Fatalf("load did not invalidate the cached result: %v", ha[0])
	}
	ca, cb = both(http.MethodGet, "/tables", nil)
	same("/tables after the load", ca, cb)
	ha2, hb2 := both(http.MethodGet, "/healthz", nil)
	same("/healthz", ha2, hb2)
}
