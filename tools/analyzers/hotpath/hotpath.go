// Package hotpath checks functions annotated //alloyvet:hotpath for
// constructs that allocate on the Go heap. The simulator's measured loop
// (engine scheduling, cache lookup, DRAM bank decode) is engineered to run
// at 0 allocs/op — see BenchmarkFig4's CI guard — and this analyzer keeps
// new code from quietly reintroducing allocation.
//
// Flagged inside an annotated function:
//   - function literals that capture variables (each capture allocates a
//     closure object; non-capturing literals are static and free)
//   - calls into package fmt (formatting allocates; cold panic-formatting
//     branches carry //alloyvet:allow(hotpath))
//   - concrete-to-interface conversions at call arguments, explicit
//     conversions, and returns. Pointer-shaped types (pointers, channels,
//     maps, funcs) are exempt: the runtime stores them directly in the
//     interface word, which is exactly why sim.Handler implementations are
//     pointer receivers.
//   - append whose result is stored outside a local variable (growth of an
//     escaping backing array; local appends into reused buffers are
//     amortized-free and permitted)
//   - make, new, and address-taken composite literals
//
// Blocks guarded by the invariants idiom — `if invariants.Enabled { ... }`
// or `if invariants.Enabled && cond { ... }` — are exempt: invariants.Enabled
// is a build-tag-gated constant that is false in release builds, so the
// compiler deletes the guarded code and nothing in it can allocate at
// runtime.
//
// The check is syntactic and intraprocedural: callees are only checked if
// they carry the annotation themselves, and an escape the syntax does not
// show — a local whose address is passed to an interface method, say — is
// invisible to it. The compiler's escape analysis is the ground truth for
// those: scripts/escapegate runs `go build -gcflags=-m` over the model
// packages and fails on any "moved to heap" inside an annotated function.
//
// Two method families are implicitly hot, annotation or not: the Sample
// methods of obs.TimeSeries and obs.FlightRecorder. They run once per
// 2^16-cycle epoch inside the engine's quantum loop and are the reason
// phase telemetry can stay always-on; deleting the annotation comment must
// not silently exempt them.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"alloysim/tools/analyzers/anzkit"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &anzkit.Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation-causing constructs in //alloyvet:hotpath functions",
	Run:  run,
}

func run(pass *anzkit.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !anzkit.IsHotpath(fn) && !isSamplePathMethod(pass, fn) {
				continue
			}
			check(pass, fn)
		}
	}
	return nil
}

type checker struct {
	pass *anzkit.Pass
	fn   *ast.FuncDecl
	// parents is the ancestor stack of the node currently being visited,
	// outermost first; used to see where an append result lands.
	parents []ast.Node
	// deadRanges are source spans guarded by invariants.Enabled: dead code
	// in release builds, so allocation there is free.
	deadRanges [][2]token.Pos
}

func check(pass *anzkit.Pass, fn *ast.FuncDecl) {
	c := &checker{pass: pass, fn: fn}
	c.collectDeadRanges(fn.Body)
	c.walk(fn.Body)
}

// collectDeadRanges records the bodies of if-statements whose condition
// requires the invariants.Enabled constant to be true.
func (c *checker) collectDeadRanges(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if c.requiresInvariants(ifStmt.Cond) {
			c.deadRanges = append(c.deadRanges, [2]token.Pos{ifStmt.Body.Pos(), ifStmt.Body.End()})
		}
		return true
	})
}

// requiresInvariants reports whether the condition can only be true when
// invariants.Enabled is: the constant itself, or a conjunction containing
// it.
func (c *checker) requiresInvariants(cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return c.requiresInvariants(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return c.requiresInvariants(e.X) || c.requiresInvariants(e.Y)
		}
	case *ast.SelectorExpr:
		return c.isEnabledConst(e.Sel)
	case *ast.Ident:
		return c.isEnabledConst(e)
	}
	return false
}

func (c *checker) isEnabledConst(id *ast.Ident) bool {
	obj, ok := c.pass.Info.Uses[id].(*types.Const)
	return ok && obj.Name() == "Enabled" && obj.Pkg() != nil && obj.Pkg().Name() == "invariants"
}

func (c *checker) inDeadRange(pos token.Pos) bool {
	for _, r := range c.deadRanges {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			c.parents = c.parents[:len(c.parents)-1]
			return false
		}
		c.visit(n)
		c.parents = append(c.parents, n)
		return true
	})
}

func (c *checker) visit(n ast.Node) {
	switch n := n.(type) {
	case *ast.FuncLit:
		c.checkFuncLit(n)
	case *ast.CallExpr:
		c.checkCall(n)
	case *ast.ReturnStmt:
		c.checkReturn(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				c.report(n.Pos(), "address of composite literal allocates")
			}
		}
	}
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.inDeadRange(pos) {
		return
	}
	c.pass.Reportf(pos, "hot path %s: %s", c.fn.Name.Name, fmt.Sprintf(format, args...))
}

// checkFuncLit flags literals that capture variables from the enclosing
// function. A captured variable forces a heap-allocated closure (and often
// moves the variable itself to the heap).
func (c *checker) checkFuncLit(lit *ast.FuncLit) {
	info := c.pass.Info
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Package-level variables are not captures; neither is anything
		// declared inside the literal itself.
		if obj.Parent() == c.pass.Pkg.Scope() || obj.Parent() == types.Universe {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true
		}
		c.report(lit.Pos(), "closure captures %q; pre-bind the state in a sim.Handler instead", obj.Name())
		return false // one capture is enough to flag the literal
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	info := c.pass.Info
	// Conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			c.reportBoxing(call.Args[0], tv.Type)
		}
		return
	}
	// Builtin?
	if id := calleeIdent(call.Fun); id != nil {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				c.checkAppend(call)
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			}
			return
		}
	}
	// fmt call?
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			c.report(call.Pos(), "fmt.%s formats and allocates", obj.Name())
			return // boxing into ...any is implied, don't double-report
		}
		// obs.Registry method? Registry lookups hash the metric name and
		// consult a map — fine at setup, hostile per event. Hot paths must
		// bump their own stats.Counter field instead, registered once at
		// setup through RegisterCounterFunc.
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && isRegistryMethod(obj) {
			c.report(call.Pos(), "obs.Registry.%s is a registry lookup; hoist the metric into a struct field at setup", obj.Name())
			return
		}
	}
	// Concrete argument passed to an interface parameter?
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if types.IsInterface(param) {
			c.reportBoxing(arg, param)
		}
	}
}

// checkReturn flags concrete values returned as interface results.
func (c *checker) checkReturn(ret *ast.ReturnStmt) {
	sig, ok := c.pass.Info.Defs[c.fn.Name].(*types.Func)
	if !ok {
		return
	}
	results := sig.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		if types.IsInterface(results.At(i).Type()) {
			c.reportBoxing(r, results.At(i).Type())
		}
	}
}

// reportBoxing reports a concrete-to-interface conversion of expr, unless
// the expression is already interface-typed, is the nil literal, or has a
// pointer-shaped type the runtime stores directly in the interface word.
func (c *checker) reportBoxing(expr ast.Expr, to types.Type) {
	tv, ok := c.pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if types.IsInterface(tv.Type) {
		return
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: direct interface storage, no allocation
	}
	c.report(expr.Pos(), "%s boxed into %s may allocate", types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)), types.TypeString(to, types.RelativeTo(c.pass.Pkg)))
}

// checkAppend flags appends whose result lands anywhere but a plain local
// variable: growth of a field- or global-held slice escapes, and even the
// no-growth path keeps the backing array reachable beyond the call.
func (c *checker) checkAppend(call *ast.CallExpr) {
	parent := c.parent()
	if assign, ok := parent.(*ast.AssignStmt); ok {
		for i, rhs := range assign.Rhs {
			if rhs != ast.Expr(call) || i >= len(assign.Lhs) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if v, ok := c.pass.Info.ObjectOf(id).(*types.Var); ok && !v.IsField() && v.Parent() != c.pass.Pkg.Scope() {
					return // local-variable append: reused buffer, amortized-free
				}
			}
			c.report(call.Pos(), "append result escapes to %s", exprString(assign.Lhs[i]))
			return
		}
	}
	c.report(call.Pos(), "append result escapes the statement")
}

func (c *checker) parent() ast.Node {
	if len(c.parents) == 0 {
		return nil
	}
	return c.parents[len(c.parents)-1]
}

// isRegistryMethod reports whether fn is a method of obs.Registry
// (matched by package name, like the invariants.Enabled idiom, so the
// analyzer's testdata can provide a stub package).
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

// isSamplePathMethod reports whether fn is the per-epoch sample path of a
// phase-telemetry sink: a method named Sample on obs.TimeSeries or
// obs.FlightRecorder (matched by package name, like isRegistryMethod, so
// the testdata stub package triggers it too). These run inside the engine
// quantum loop and are hot whether or not the annotation survives edits.
func isSamplePathMethod(pass *anzkit.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || fn.Name.Name != "Sample" {
		return false
	}
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	if o.Pkg() == nil || o.Pkg().Name() != "obs" {
		return false
	}
	return o.Name() == "TimeSeries" || o.Name() == "FlightRecorder"
}

func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := fun.(type) {
	case *ast.Ident:
		return f
	case *ast.ParenExpr:
		return calleeIdent(f.X)
	}
	return nil
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "a non-local target"
}
