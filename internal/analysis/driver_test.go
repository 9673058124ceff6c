package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, &Package{Path: "fixture", Files: []*ast.File{f}}
}

func TestScanDirectivesMalformed(t *testing.T) {
	fset, pkg := parseOne(t, `package fixture

//dgflint:ignore errwrap
var a int

//dgflint:ignore
var b int

//dgflint:ignore shadow outer err is rewritten on the next line
var c int
`)
	sups, bad := scanDirectives(fset, pkg)
	if len(sups) != 1 {
		t.Fatalf("suppressions = %d, want 1 (only the directive with a reason counts)", len(sups))
	}
	if sups[0].analyzer != "shadow" {
		t.Fatalf("suppression analyzer = %q, want shadow", sups[0].analyzer)
	}
	if len(bad) != 2 {
		t.Fatalf("malformed findings = %d, want 2", len(bad))
	}
	for _, f := range bad {
		if f.Analyzer != "dgflint" {
			t.Errorf("malformed finding attributed to %q, want dgflint", f.Analyzer)
		}
		if !strings.Contains(f.Message, "reason") {
			t.Errorf("malformed finding message %q does not mention the missing reason", f.Message)
		}
	}
}

func TestSuppressedMatchesSameAndPreviousLine(t *testing.T) {
	sups := []suppression{{file: "x.go", line: 9, analyzer: "errwrap"}}
	cases := []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"errwrap", 9, true},   // same line
		{"errwrap", 10, true},  // directive on the line above
		{"errwrap", 11, false}, // too far
		{"errwrap", 8, false},  // directive below the finding
		{"ctxflow", 9, false},  // other analyzer
	}
	for _, c := range cases {
		pos := token.Position{Filename: "x.go", Line: c.line}
		if got := suppressed(sups, c.analyzer, pos); got != c.want {
			t.Errorf("suppressed(%s, line %d) = %v, want %v", c.analyzer, c.line, got, c.want)
		}
	}
	if suppressed([]suppression{{file: "x.go", line: 9, analyzer: "all"}}, "anything",
		token.Position{Filename: "x.go", Line: 9}) != true {
		t.Error(`analyzer "all" should match every analyzer`)
	}
}

func TestPathHasSegment(t *testing.T) {
	cases := []struct {
		path, seg string
		want      bool
	}{
		{"github.com/smartgrid-oss/dgfindex/internal/shard", "shard", true},
		{"github.com/smartgrid-oss/dgfindex/internal/sharded", "shard", false},
		{"goroutinejoin/shard", "shard", true},
		{"shard", "shard", true},
		{"internal/hive", "wal", false},
		{"", "shard", false},
	}
	for _, c := range cases {
		if got := PathHasSegment(c.path, c.seg); got != c.want {
			t.Errorf("PathHasSegment(%q, %q) = %v, want %v", c.path, c.seg, got, c.want)
		}
	}
}
