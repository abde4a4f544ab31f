// Package ctxflow checks that the service cone threads cancellation.
//
// The daemon (DESIGN.md §12) promises bounded shutdown: SIGTERM drains,
// a drain timeout aborts, and every request carries a context. That
// promise only holds if no function on the serving path blocks on
// something its context cannot interrupt. This analyzer enforces it
// structurally inside the service cone (see Cone):
//
// In any context-bearing function — one with a context.Context parameter
// or one that binds or captures a context variable — it flags:
//
//   - channel sends and receives outside a select that can escape (a
//     select with a `default` case or a `<-X.Done()` case on a context)
//   - select statements with neither a default nor a ctx.Done() case
//   - range over a channel (blocks until the sender closes it)
//   - time.Sleep, (*sync.WaitGroup).Wait, (*sync.Cond).Wait
//   - I/O constructors with a context-taking variant: net.Dial →
//     (*net.Dialer).DialContext, exec.Command → exec.CommandContext,
//     http.Get/Post/... and http.NewRequest → http.NewRequestWithContext
//
// A bare `<-ctx.Done()` receive is exempt: waiting for cancellation is
// the point. Receiving from any other single channel is not — pair it
// with ctx.Done() in a select, or justify the wait with an allow comment.
//
// Separately, context.Background() and context.TODO() are banned outside
// package main (where process-lifetime roots legitimately start) and
// outside tests: library code that mints a fresh context detaches itself
// from its caller's cancellation.
//
// Test files are skipped: tests block on plain channels as a matter of
// technique, and their deadlines come from the test framework.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alloysim/tools/analyzers/anzkit"
)

// Cone is the set of package-path segments under the context-threading
// discipline: the daemon stack, both CLI mains, the load harness, and the
// analyzer framework itself (the self-check).
var Cone = []string{
	"internal/serve",
	"internal/obs",
	"internal/experiments",
	"cmd/alloysimd",
	"cmd/alloysim",
	"scripts/sweepload",
	"tools/analyzers",
}

// Analyzer is the context-threading check.
var Analyzer = &anzkit.Analyzer{
	Name: "ctxflow",
	Doc:  "flag blocking operations that ignore an in-scope context, and fresh contexts outside main",
	Run:  run,
}

func run(pass *anzkit.Pass) error {
	if !anzkit.InCone(pass.Pkg.Path(), Cone) {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Type, fn.Body)
		}
	}
	return nil
}

// checkFunc analyzes one function body, then recurses into each nested
// function literal as its own function (a literal that captures a context
// variable is context-bearing even without a parameter).
func checkFunc(pass *anzkit.Pass, typ *ast.FuncType, body *ast.BlockStmt) {
	var nested []*ast.FuncLit
	shallowInspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			nested = append(nested, lit)
			return false
		}
		return true
	})

	checkBackground(pass, body)
	if bearsContext(pass, typ, body) {
		checkBlocking(pass, body)
	}

	for _, lit := range nested {
		checkFunc(pass, lit.Type, lit.Body)
	}
}

// shallowInspect walks the body but, when fn returns false for a node,
// does not descend into it. Used to keep nested literals out of the
// enclosing function's analysis.
func shallowInspect(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		return fn(n)
	})
}

// bearsContext reports whether the function has a context.Context
// parameter or references (binds or captures) a context-typed variable.
func bearsContext(pass *anzkit.Pass, typ *ast.FuncType, body *ast.BlockStmt) bool {
	if typ != nil && typ.Params != nil {
		for _, fld := range typ.Params.List {
			if tv, ok := pass.Info.Types[fld.Type]; ok && isContextType(tv.Type) {
				return true
			}
		}
	}
	found := false
	shallowInspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !found {
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkBackground bans context.Background/TODO outside package main.
func checkBackground(pass *anzkit.Pass, body *ast.BlockStmt) {
	if pass.Pkg.Name() == "main" {
		return
	}
	shallowInspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := anzkit.CalleeFunc(pass.Info, call); fn != nil {
			switch fn.FullName() {
			case "context.Background", "context.TODO":
				pass.Reportf(call.Pos(), "%s mints a context detached from the caller's cancellation; accept a ctx parameter instead", fn.FullName())
			}
		}
		return true
	})
}

// blockingCalls maps statically-resolved callees that block without
// consulting a context to the fix each message suggests.
var blockingCalls = map[string]string{
	"time.Sleep":                  "select on ctx.Done() and a timer instead",
	"(*sync.WaitGroup).Wait":      "close a done channel from the waiter and select on it with ctx.Done(), or bound the workers by ctx",
	"(*sync.Cond).Wait":           "wake the waiter on cancellation (context.AfterFunc + Broadcast) and re-check ctx in the loop",
	"net.Dial":                    "use (*net.Dialer).DialContext",
	"net.DialTimeout":             "use (*net.Dialer).DialContext",
	"os/exec.Command":             "use exec.CommandContext",
	"net/http.Get":                "use http.NewRequestWithContext",
	"net/http.Head":               "use http.NewRequestWithContext",
	"net/http.Post":               "use http.NewRequestWithContext",
	"net/http.PostForm":           "use http.NewRequestWithContext",
	"net/http.NewRequest":         "use http.NewRequestWithContext",
	"(*net/http.Client).Get":      "use http.NewRequestWithContext",
	"(*net/http.Client).Head":     "use http.NewRequestWithContext",
	"(*net/http.Client).Post":     "use http.NewRequestWithContext",
	"(*net/http.Client).PostForm": "use http.NewRequestWithContext",
}

// checkBlocking flags uninterruptible blocking operations in a
// context-bearing function body.
func checkBlocking(pass *anzkit.Pass, body *ast.BlockStmt) {
	// Communication operations owned by a select statement are judged at
	// the select level: an escaping select exempts them, a non-escaping
	// select is reported once as a whole.
	var commRanges [][2]token.Pos
	shallowInspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					commRanges = append(commRanges, [2]token.Pos{comm.Pos(), comm.End()})
				}
			}
		}
		return true
	})
	inComm := func(pos token.Pos) bool {
		for _, r := range commRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}

	shallowInspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if !inComm(n.Pos()) {
				pass.Reportf(n.Pos(), "channel send outside a select with ctx.Done(); a full channel blocks past cancellation")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm(n.Pos()) && !isDoneRecv(pass, n.X) {
				pass.Reportf(n.Pos(), "channel receive outside a select with ctx.Done(); an idle channel blocks past cancellation")
			}
		case *ast.SelectStmt:
			if !selectEscapes(pass, n) {
				pass.Reportf(n.Pos(), "select has neither a default nor a ctx.Done() case; add one so cancellation can interrupt it")
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over a channel blocks until the sender closes it; receive in a select with ctx.Done()")
				}
			}
		case *ast.CallExpr:
			if fn := anzkit.CalleeFunc(pass.Info, n); fn != nil {
				if fix, ok := blockingCalls[fn.FullName()]; ok {
					pass.Reportf(n.Pos(), "%s blocks without consulting ctx; %s", fn.FullName(), fix)
				}
			}
		}
		return true
	})
}

// selectEscapes reports whether a select can proceed on cancellation: it
// has a default case, or a case receiving from Done() on a context.
func selectEscapes(pass *anzkit.Pass, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		clause := c.(*ast.CommClause)
		if clause.Comm == nil {
			return true // default
		}
		var recv ast.Expr
		switch comm := clause.Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				recv = comm.Rhs[0]
			}
		}
		if u, ok := recv.(*ast.UnaryExpr); ok && u.Op == token.ARROW && isDoneRecv(pass, u.X) {
			return true
		}
	}
	return false
}

// isDoneRecv reports whether ch is a Done() call on a context-typed
// expression — `<-ctx.Done()` is the one bare receive that is exactly
// the cancellation wait this analyzer wants.
func isDoneRecv(pass *anzkit.Pass, ch ast.Expr) bool {
	call, ok := anzkit.Unparen(ch).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := anzkit.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	return ok && isContextType(tv.Type)
}
