// Command escapegate fails when the compiler moves a variable to the heap
// inside a function annotated //alloyvet:hotpath. The hotpath analyzer
// checks syntax (closures, fmt, &lit, ...), so it cannot see an escape
// whose cause is semantic — a local whose address is passed to an
// interface method escapes because the compiler cannot see the callee.
// The compiler's own escape analysis is the ground truth, so this gate
// runs it and maps each "moved to heap" diagnostic onto the annotated
// functions.
//
//	go run ./scripts/escapegate
//
// It checks the model packages, prints one file:line:col line per heap
// move inside a hot function and exits 1 if there is any; it also fails if
// the packages contain no hot function at all, so a wrong package list
// cannot pass vacuously.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"alloysim/tools/analyzers/anzkit"
)

// modelPackages are the packages the simulated machine is built from:
// everything a demand access crosses, plus the statistics and
// observability code it updates on the way.
var modelPackages = []string{
	"./internal/core", "./internal/cache", "./internal/policy",
	"./internal/dramcache", "./internal/predictor", "./internal/dram",
	"./internal/sim", "./internal/trace", "./internal/cpu",
	"./internal/memaddr", "./internal/stats", "./internal/obs",
}

func main() {
	rep, err := check(modelPackages)
	if err != nil {
		fmt.Fprintf(os.Stderr, "escapegate: %v\n", err)
		os.Exit(2)
	}
	for _, f := range rep.findings {
		fmt.Println(f)
	}
	fmt.Fprintf(os.Stderr, "escapegate: %d hot functions in %d packages, %d heap moves inside them\n",
		rep.hotFuncs, len(modelPackages), len(rep.findings))
	if len(rep.findings) > 0 {
		os.Exit(1)
	}
}

// report is the outcome of one gate run.
type report struct {
	findings []string // sorted "file:line:col: moved to heap: x (in F)"
	hotFuncs int
}

// hotFunc is the line span of one annotated function declaration.
type hotFunc struct {
	name       string
	start, end int
}

// heapMove matches the compiler's escape diagnostic for a variable that
// had to be heap-allocated.
var heapMove = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): moved to heap: (\S+)$`)

// check builds pkgs with -gcflags=-m and returns the heap moves that fall
// inside //alloyvet:hotpath functions.
func check(pkgs []string) (report, error) {
	hot, err := hotFuncs(pkgs)
	if err != nil {
		return report{}, err
	}
	rep := report{}
	for _, fns := range hot {
		rep.hotFuncs += len(fns)
	}
	if rep.hotFuncs == 0 {
		return report{}, fmt.Errorf("no //alloyvet:hotpath functions in %s", strings.Join(pkgs, " "))
	}

	// The build cache replays compiler output, so a cached build still
	// prints every diagnostic. -o discards binaries of main packages.
	_, diags, err := goCmd(append([]string{"build", "-o", os.DevNull, "-gcflags=-m"}, pkgs...)...)
	if err != nil {
		return report{}, err
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(diags))
	for sc.Scan() {
		m := heapMove.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		abs, err := filepath.Abs(m[1])
		if err != nil {
			return report{}, err
		}
		line, _ := strconv.Atoi(m[2])
		for _, fn := range hot[abs] {
			if line < fn.start || line > fn.end {
				continue
			}
			f := fmt.Sprintf("%s:%s:%s: moved to heap: %s (in //alloyvet:hotpath %s)", m[1], m[2], m[3], m[4], fn.name)
			if !seen[f] {
				seen[f] = true
				rep.findings = append(rep.findings, f)
			}
		}
	}
	sort.Strings(rep.findings)
	return rep, sc.Err()
}

// hotFuncs parses the non-test Go files of pkgs and returns the annotated
// functions of each file, keyed by absolute path.
func hotFuncs(pkgs []string) (map[string][]hotFunc, error) {
	out, _, err := goCmd(append([]string{"list", "-f", `{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}`}, pkgs...)...)
	if err != nil {
		return nil, err
	}
	hot := map[string][]hotFunc{}
	fset := token.NewFileSet()
	for _, path := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path == "" {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !anzkit.IsHotpath(fn) {
				continue
			}
			hot[path] = append(hot[path], hotFunc{
				name:  funcName(fn),
				start: fset.Position(fn.Pos()).Line,
				end:   fset.Position(fn.End()).Line,
			})
		}
	}
	return hot, nil
}

// funcName renders fn as "F" or "T.M".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// goCmd runs the go tool and returns its stdout and stderr (where the
// compiler prints -m diagnostics); a failure carries stderr, since it
// holds the compile errors.
func goCmd(args ...string) (stdout, stderr []byte, err error) {
	var o, e bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go %s: %v\n%s", args[0], err, e.Bytes())
	}
	return o.Bytes(), e.Bytes(), nil
}
