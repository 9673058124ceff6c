// Package ctxflow enforces the context-first execution contract:
// library code under internal/{hive,shard,server,mapreduce,wal} never
// mints its own root context — it threads the caller's.
//
// The rule: context.Background() and context.TODO() are forbidden there.
// Every operation has one ctx-first entry point, so the only exception is
// a call site carrying "//dgflint:ignore ctxflow <reason>".
package ctxflow

import (
	"go/ast"

	"github.com/smartgrid-oss/dgfindex/internal/analysis"
)

// scope names the library subsystems whose execution paths must thread
// ctx (matched as import-path segments, so analysistest packages named
// after a subsystem are in scope too).
var scope = []string{"hive", "shard", "server", "mapreduce", "wal"}

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "forbids context.Background()/TODO() in library code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, seg := range scope {
		if analysis.PathHasSegment(pass.PkgPath, seg) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := analysis.FuncFor(pass.TypesInfo, call)
			if f != nil && f.Pkg() != nil && f.Pkg().Path() == "context" && (f.Name() == "Background" || f.Name() == "TODO") {
				pass.Reportf(call.Pos(), "context.%s() in library code: thread the caller's ctx", f.Name())
			}
			return true
		})
	}
	return nil
}
