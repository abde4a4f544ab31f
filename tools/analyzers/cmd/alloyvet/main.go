// Command alloyvet is the repo's static-analysis multichecker: the
// determinism, hotpath, cycleunits, confine, ctxflow, lockcheck, and
// goloop analyzers compiled into one binary.
// See DESIGN.md §9 and §13 for the annotation grammar the analyzers honor.
//
// Two modes:
//
//	alloyvet [-tags t1,t2] [-tests=false] [-json] [-unused-allows] [packages...]
//	    Standalone: load the packages (default ./...) and report findings
//	    as file:line:col: analyzer: message. Exit 1 when anything is found.
//	    -json emits the findings as a JSON array instead (for CI
//	    artifacts); -unused-allows additionally fails on //alloyvet:allow
//	    entries that suppressed nothing — only meaningful on whole-tree
//	    runs with tests included, since partial runs see partial usage.
//
//	go vet -vettool=$(go env GOPATH)/bin/alloyvet ./...
//	    Vet-tool: the go command drives alloyvet through the unitchecker
//	    protocol (one JSON config per package); see unitchecker.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"alloysim/tools/analyzers/anzkit"
	"alloysim/tools/analyzers/confine"
	"alloysim/tools/analyzers/ctxflow"
	"alloysim/tools/analyzers/cycleunits"
	"alloysim/tools/analyzers/determinism"
	"alloysim/tools/analyzers/goloop"
	"alloysim/tools/analyzers/hotpath"
	"alloysim/tools/analyzers/lockcheck"
)

var analyzers = []*anzkit.Analyzer{
	determinism.Analyzer,
	hotpath.Analyzer,
	cycleunits.Analyzer,
	confine.Analyzer,
	ctxflow.Analyzer,
	lockcheck.Analyzer,
	goloop.Analyzer,
}

func main() {
	// The go command probes its vet tool with -V=full and -flags before
	// use and then invokes it once per package with a single *.cfg argument.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("alloyvet version v1.1.0\n")
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		// JSON description of tool flags the go command may forward.
		// alloyvet takes none in vet-tool mode.
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheck(os.Args[1]))
	}

	tags := flag.String("tags", "", "comma-separated build tags for package loading")
	tests := flag.Bool("tests", true, "also analyze test files")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	unusedAllows := flag.Bool("unused-allows", false, "also fail on //alloyvet:allow entries that suppressed nothing (whole-tree runs only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: alloyvet [-tags t1,t2] [-tests=false] [-json] [-unused-allows] [packages...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := anzkit.LoadConfig{IncludeTests: *tests}
	if *tags != "" {
		cfg.BuildTags = strings.Split(*tags, ",")
	}
	pkgs, err := anzkit.Load(cfg, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloyvet: %v\n", err)
		os.Exit(2)
	}
	out, err := anzkit.RunAll(pkgs, analyzers, *unusedAllows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloyvet: %v\n", err)
		os.Exit(2)
	}
	diags := append(out.Diagnostics, out.StaleAllows...)
	if *asJSON {
		printJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable finding shape CI archives.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(diags []anzkit.Diagnostic) {
	out := make([]jsonDiag, len(diags))
	for i, d := range diags {
		out[i] = jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "alloyvet: %v\n", err)
		os.Exit(2)
	}
}
