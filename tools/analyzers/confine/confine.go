// Package confine keeps concurrency out of the simulation model.
//
// The timing model is single-threaded: every result is a pure function of
// the configuration because exactly one goroutine advances simulated time,
// and all parallelism lives one level up, where the experiment runner
// spreads independent simulations across cores. A stray goroutine, mutex,
// or atomic introduced in the model would quietly void that argument —
// the race detector only catches the races a test happens to schedule,
// and a data race that changes event order corrupts results silently.
//
// So inside the strict cone (see Cone — the timing-model packages; the
// experiment runner and obs layer are deliberately outside, they are
// allowed ordinary locking) the analyzer flags every concurrency
// construct:
//
//   - go statements
//   - select statements and channel sends
//   - channel types (declarations, struct fields, make(chan ...))
//   - any reference into package sync or sync/atomic (types, functions,
//     and methods — sync.WaitGroup fields and atomic.Uint64.Load alike)
//
// The cone has no audited exceptions. Test files are skipped: tests may
// spawn goroutines (e.g. to scrape metrics while a simulation runs).
package confine

import (
	"go/ast"
	"go/types"
	"strings"

	"alloysim/tools/analyzers/anzkit"
)

// Cone is the set of package-path suffixes under confinement: the packages
// whose state is simulated time. Narrower than the determinism cone —
// internal/experiments and internal/obs coordinate real threads on purpose
// (the sweep scheduler, the debug server) and are exempt.
var Cone = []string{
	"internal/sim",
	"internal/core",
	"internal/cpu",
	"internal/dram",
	"internal/dramcache",
	"internal/cache",
}

// Analyzer is the concurrency-confinement check.
var Analyzer = &anzkit.Analyzer{
	Name: "confine",
	Doc:  "flag concurrency constructs in the timing-model cone",
	Run:  run,
}

// InCone reports whether a package import path is under confinement.
func InCone(path string) bool {
	for _, suffix := range Cone {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func run(pass *anzkit.Pass) error {
	if !InCone(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in the timing-model cone; the model is single-threaded, parallelism belongs to the experiment runner")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in the timing-model cone; the model is single-threaded")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in the timing-model cone; the model is single-threaded")
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type in the timing-model cone; the model is single-threaded")
				return false // don't re-flag the element type
			case *ast.SelectorExpr:
				checkSyncRef(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSyncRef flags any use of package sync or sync/atomic: function
// calls, method calls on their types, and the type names themselves
// (a sync.Mutex struct field is shared mutable state by declaration).
func checkSyncRef(pass *anzkit.Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	var pkg *types.Package
	switch o := obj.(type) {
	case *types.Func:
		pkg = o.Pkg()
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			// Method: attribute it to the receiver type's package, so
			// (atomic.Uint64).Load on a struct field is still caught.
			pkg = recvPkg(sig)
		}
	case *types.TypeName:
		pkg = o.Pkg()
	default:
		return
	}
	if pkg == nil {
		return
	}
	switch pkg.Path() {
	case "sync", "sync/atomic":
		pass.Reportf(sel.Pos(), "%s.%s in the timing-model cone; the model is single-threaded and shares no state", pkg.Name(), sel.Sel.Name)
	}
}

// recvPkg returns the defining package of a method's receiver type.
func recvPkg(sig *types.Signature) *types.Package {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Pkg()
	}
	return nil
}
