package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
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
	sups, bad := scanDirectives(fset, pkg, map[string]bool{"all": true, "errwrap": true, "shadow": true})
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

// TestIgnoreNamingNoAnalyzerIsAFinding: a directive whose name is no
// analyzer of the run, nor "all", is a finding and suppresses nothing — a
// mistyped name used to be accepted silently — while "all" and the run's
// own analyzers' names still suppress.
func TestIgnoreNamingNoAnalyzerIsAFinding(t *testing.T) {
	fset, pkg := parseOne(t, `package fixture

//dgflint:ignore errwarp the analyzer's name is mistyped
var a int

//dgflint:ignore all every analyzer may skip b
var b int

//dgflint:ignore errwrap c is a fixture
var c int
`)
	// errwrap reports every variable; the run has no other analyzer.
	errwrap := &Analyzer{Name: "errwrap", Run: func(pass *Pass) error {
		for _, d := range pass.Files[0].Decls {
			pass.Reportf(d.Pos(), "finding")
		}
		return nil
	}}
	findings, err := Run([]*Analyzer{errwrap}, fset, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%d %s: %s", f.Pos.Line, f.Analyzer, f.Message))
	}
	want := []string{
		`3 dgflint: dgflint:ignore names "errwarp", which is no analyzer of this run (nor "all")`,
		`4 errwrap: finding`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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
