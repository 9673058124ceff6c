// Package goroutinejoin enforces the scatter-join contract from PR 5's
// failover work: goroutines launched in internal/shard and internal/wal
// must be visibly joined — a naked fire-and-forget goroutine in those
// packages has historically meant a leak under cancellation.
//
// A "go" statement passes if the enclosing function shows one of:
//
//   - a WaitGroup pairing: an X.Add(...) call before the go statement,
//     an X.Wait() anywhere, or a Y.Done() inside the goroutine body;
//   - a completion channel: the goroutine closes a channel the
//     enclosing function also mentions (receives/selects on);
//   - a quit channel: the goroutine receives from / selects on a
//     channel the enclosing function closes elsewhere;
//   - a context bound: the goroutine selects on v.Done() where v was
//     created by a context.With* call in the enclosing function (the
//     returned CancelFunc is the join handle).
//
// Goroutines joined structurally elsewhere (e.g. a cursor's producer
// joined by Close) carry "//dgflint:ignore goroutinejoin <join point>".
package goroutinejoin

import (
	"go/ast"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/analysis"
)

var scope = []string{"shard", "wal"}

var Analyzer = &analysis.Analyzer{
	Name: "goroutinejoin",
	Doc:  "go statements in internal/shard and internal/wal must be paired with a WaitGroup or channel join reachable in the enclosing function",
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
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Name.Name, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, funcName string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var goBody ast.Node = gs.Call
		if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
			goBody = lit.Body
		}
		ff := collectFacts(pass, body, gs)
		gf := collectGoFacts(goBody)
		joined := gf.doneCall || ff.hasWait || ff.hasAdd ||
			intersects(gf.closes, ff.received) ||
			intersects(gf.receives, ff.closed) ||
			intersects(gf.ctxDone, ff.ctxCreated)
		if !joined {
			pass.Reportf(gs.Pos(),
				"goroutine launched by %s is fire-and-forget: pair it with a WaitGroup or channel join reachable here, or //dgflint:ignore goroutinejoin naming the join point",
				funcName)
		}
		return true
	})
}

func intersects(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

type funcFacts struct {
	hasWait    bool
	hasAdd     bool // an X.Add(...) call positioned before the go statement
	closed     map[string]bool // channels closed outside the goroutine under test
	received   map[string]bool // channels received/selected on outside the goroutine
	ctxCreated map[string]bool // idents assigned from context.With*(...)
}

func collectFacts(pass *analysis.Pass, body ast.Node, skip ast.Node) *funcFacts {
	ff := &funcFacts{
		closed:     map[string]bool{},
		received:   map[string]bool{},
		ctxCreated: map[string]bool{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == skip {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if selName(n.Fun) == "Wait" {
				ff.hasWait = true
			}
			// wg.Add(1) immediately paired with the launch is the
			// canonical WaitGroup handoff; the Done lives inside the
			// spawned method and the Wait in whoever owns the group.
			if selName(n.Fun) == "Add" && n.Pos() < skip.Pos() {
				ff.hasAdd = true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if nm := baseName(n.Args[0]); nm != "" {
					ff.closed[nm] = true
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				f := analysis.FuncFor(pass.TypesInfo, call)
				if f == nil || f.Pkg() == nil || f.Pkg().Path() != "context" || !strings.HasPrefix(f.Name(), "With") {
					continue
				}
				for _, lhs := range n.Lhs {
					if nm := baseName(lhs); nm != "" {
						ff.ctxCreated[nm] = true
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if nm := recvChanName(n.X); nm != "" {
					ff.received[nm] = true
				}
			}
		case *ast.RangeStmt:
			if nm := baseName(n.X); nm != "" {
				ff.received[nm] = true
			}
		}
		return true
	})
	return ff
}

// goFacts summarises the goroutine body: channels it closes, channels
// it receives from, whether it calls Done() on something, and the
// receivers of v.Done() channel reads (context joins).
type goFacts struct {
	closes   map[string]bool
	receives map[string]bool
	doneCall bool            // X.Done() as a statement call (WaitGroup-style)
	ctxDone  map[string]bool // <-v.Done() receives
}

func collectGoFacts(body ast.Node) *goFacts {
	gf := &goFacts{closes: map[string]bool{}, receives: map[string]bool{}, ctxDone: map[string]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && selName(call.Fun) == "Done" {
				gf.doneCall = true
			}
		case *ast.DeferStmt:
			if selName(n.Call.Fun) == "Done" {
				gf.doneCall = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if nm := baseName(n.Args[0]); nm != "" {
					gf.closes[nm] = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if nm := recvChanName(n.X); nm != "" {
					gf.receives[nm] = true
				}
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && selName(call.Fun) == "Done" {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if nm := baseName(sel.X); nm != "" {
							gf.ctxDone[nm] = true
						}
					}
				}
			}
		}
		return true
	})
	return gf
}

func selName(e ast.Expr) string {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// baseName names an expression for channel-identity matching: the
// identifier itself, or the final selector field (c.done → done).
func baseName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// recvChanName names the channel of a receive expression; receives from
// Done() calls are named after the callee's receiver handled separately.
func recvChanName(e ast.Expr) string {
	if _, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return ""
	}
	return baseName(e)
}
