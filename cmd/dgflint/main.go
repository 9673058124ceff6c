// Command dgflint is the repo's invariant checker: a multichecker in
// the spirit of golang.org/x/tools/go/analysis/multichecker, built on
// the stdlib-only framework in internal/analysis so the module stays
// dependency-free. It type-checks every package in the module (test
// files excluded — tests are entry points and may mint contexts) and
// runs the analyzers that encode contracts the codebase states in
// prose: ctxflow, lockedcalls, errwrap, goroutinejoin and shadow.
//
// Usage:
//
//	go run ./cmd/dgflint ./...          # check the whole module
//	go run ./cmd/dgflint -only errwrap  # report a subset's findings
//	go run ./cmd/dgflint -list          # describe the analyzers
//
// Suppressions: a finding is silenced by a same-line or line-above
// comment "//dgflint:ignore <analyzer> <reason>"; the reason is
// mandatory, and a name that is no analyzer (nor "all") is a finding. It
// is the only escape hatch, ctxflow's included. -only still runs every
// analyzer, so a directive naming one outside the subset stays known.
//
// Exit status is 1 when any finding survives suppression.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/analysis"
	"github.com/smartgrid-oss/dgfindex/internal/analysis/ctxflow"
	"github.com/smartgrid-oss/dgfindex/internal/analysis/errwrap"
	"github.com/smartgrid-oss/dgfindex/internal/analysis/goroutinejoin"
	"github.com/smartgrid-oss/dgfindex/internal/analysis/lockedcalls"
	"github.com/smartgrid-oss/dgfindex/internal/analysis/shadow"
)

var all = []*analysis.Analyzer{
	ctxflow.Analyzer,
	lockedcalls.Analyzer,
	errwrap.Analyzer,
	goroutinejoin.Analyzer,
	shadow.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	// report holds the analyzers whose findings are printed, and "dgflint"
	// for malformed directives.
	report := map[string]bool{"dgflint": true}
	for _, a := range all {
		report[a.Name] = *only == ""
	}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if _, ok := report[name]; !ok || name == "dgflint" {
				fmt.Fprintf(os.Stderr, "dgflint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			report[name] = true
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgflint:", err)
		os.Exit(2)
	}
	loader, paths, err := analysis.NewModuleLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgflint:", err)
		os.Exit(2)
	}
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dgflint:", err)
			os.Exit(2)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := analysis.Run(all, loader.Fset, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgflint:", err)
		os.Exit(2)
	}
	findings = slices.DeleteFunc(findings, func(f analysis.Finding) bool { return !report[f.Analyzer] })
	for _, f := range findings {
		rel := f.Pos.Filename
		if r, err := filepath.Rel(root, rel); err == nil {
			rel = r
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", rel, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dgflint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
