// Package analysis is a stdlib-only static-analysis framework shaped
// after golang.org/x/tools/go/analysis, hosting the dgflint analyzers
// that mechanically enforce this codebase's concurrency, context and
// error-wrapping invariants.
//
// Why not x/tools itself: the main module is deliberately
// dependency-free (every subsystem from the Prometheus writer to the
// WAL is stdlib-only), and the builds run hermetically with no module
// proxy. Instead of vendoring x/tools or carrying a separate tools
// module, the framework re-implements the small slice of the
// go/analysis contract dgflint needs — Analyzer/Pass/Diagnostic, a
// package loader, directive-based suppression, and an analysistest-like
// want-comment runner — on top of go/parser, go/types, and the
// stdlib source importer. Analyzers written against it keep the
// familiar shape, so porting them onto x/tools later is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//dgflint:ignore <name> <reason>" suppression directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced,
	// shown by "dgflint -list".
	Doc string
	// Run checks one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed, type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// PkgPath is the package's import path ("internal/shard"-style
	// suffixes are what scope checks match on).
	PkgPath   string
	TypesInfo *types.Info
	// Report records one finding. The driver applies suppression
	// directives afterwards, so analyzers always report.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FuncFor returns the *types.Func for a call's callee, unwrapping
// parenthesised expressions and method values. Returns nil for calls
// through function-typed variables, conversions, and builtins.
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		obj = info.Uses[fn.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// PathHasSegment reports whether pkgPath contains seg as a whole
// "/"-separated segment ("internal/shard" matches seg "shard"). It is
// how analyzers scope themselves to subsystems while remaining
// testable against analysistest packages named after those segments.
func PathHasSegment(pkgPath, seg string) bool {
	for len(pkgPath) > 0 {
		i := 0
		for i < len(pkgPath) && pkgPath[i] != '/' {
			i++
		}
		if pkgPath[:i] == seg {
			return true
		}
		if i == len(pkgPath) {
			return false
		}
		pkgPath = pkgPath[i+1:]
	}
	return false
}
