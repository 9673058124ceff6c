package hive

import "testing"

// parserSeeds are FuzzParseSQL's seed statements.
var parserSeeds = []string{
	// The statement shapes of the paper's Listings 1-7.
	"CREATE TABLE ts (mid BIGINT, ts TIMESTAMP, kwh DOUBLE) PARTITIONED BY (day STRING)",
	"CREATE INDEX dgf ON TABLE ts (mid, ts) AS 'DGFIndex' WITH DEFERRED REBUILD IDXPROPERTIES ('dgf.split'='mid:0:100:10')",
	"SELECT SUM(kwh), COUNT(*) FROM ts WHERE mid BETWEEN 10 AND 20 AND ts >= '2014-03-06 00:00:00'",
	"SELECT mid, AVG(kwh) FROM ts WHERE kwh > 1.5 GROUP BY mid ORDER BY mid DESC LIMIT 10",
	"SELECT a.mid FROM ts a JOIN meters b ON a.mid = b.mid WHERE b.city IN ('cq', 'bj')",
	"EXPLAIN SELECT COUNT(*) FROM ts WHERE mid = 7",
	"INSERT OVERWRITE DIRECTORY '/out' SELECT * FROM ts",
	"SHOW TABLES",
	"DESCRIBE ts",
	"DROP TABLE ts;",
	"SELECT SUM(kwh * price) FROM ts",
	"-- comment\nSELECT 'it''s' FROM ts",
	"SELECT ((((((1))))))",
}

// FuzzParseSQL feeds arbitrary statements to the HiveQL-subset parser. The
// parser fronts every query the server accepts over HTTP, so it must reject
// garbage with an error — never a panic, index-out-of-range, or stack
// overflow (expression nesting is bounded by maxExprDepth).
func FuzzParseSQL(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err == nil && stmt == nil {
			t.Fatal("Parse returned nil statement without an error")
		}
	})
}
