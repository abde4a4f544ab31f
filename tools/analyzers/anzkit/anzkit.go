// Package anzkit is a minimal, dependency-free analysis framework in the
// shape of golang.org/x/tools/go/analysis. The container this repo builds
// in has no module proxy access, so instead of importing x/tools the kit
// re-implements the three pieces alloyvet needs: an Analyzer/Pass pair, a
// package loader built on `go list -export` plus go/types, and the
// annotation grammar shared by every analyzer:
//
//	//alloyvet:hotpath            marks a function whose body must not allocate
//	//alloyvet:allow(name,...)    suppresses the named analyzers' diagnostics
//
// An allow comment suppresses diagnostics on its own line, on the line
// below (when it stands alone), or in the whole function (when it appears
// in the function's doc comment).
package anzkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a Pass and reports findings
// through pass.Report; returning an error aborts the whole run (reserved
// for internal failures, not findings).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	allow    *allowIndex

	report func(Diagnostic)
}

// Reportf records a finding at pos unless an allow comment for this
// analyzer covers it. A suppressing allow comment is marked used, which
// keeps it out of the stale-allow report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allows(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the merged,
// position-sorted, deduplicated findings. Packages whose load failed are
// reported as errors by the loader, not here.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	out, err := RunAll(pkgs, analyzers, false)
	return out.Diagnostics, err
}

// RunResult is RunAll's output: the findings plus, when requested, the
// allow comments that suppressed nothing anywhere in the run.
type RunResult struct {
	Diagnostics []Diagnostic
	StaleAllows []Diagnostic
}

// RunAll applies every analyzer to every package. With checkAllows set it
// additionally reports every //alloyvet:allow entry that never suppressed
// a finding (or names an analyzer not in this run) — a stale allow marks
// code that moved or was fixed, and stale entries rot into blanket
// exemptions if they are allowed to accumulate. Only meaningful on runs
// that cover the whole tree including test variants; partial runs see
// partial usage.
func RunAll(pkgs []*Package, analyzers []*Analyzer, checkAllows bool) (RunResult, error) {
	var out RunResult
	seen := make(map[string]bool)
	tracker := newAllowTracker()
	for _, pkg := range pkgs {
		allow := buildAllowIndex(pkg.Fset, pkg.Files, tracker)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				allow:    allow,
				report: func(d Diagnostic) {
					// A file shared by a package and its test variant is
					// analyzed twice; keep one copy of each finding.
					key := d.Pos.String() + "\x00" + d.Analyzer + "\x00" + d.Message
					if !seen[key] {
						seen[key] = true
						out.Diagnostics = append(out.Diagnostics, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiags(out.Diagnostics)
	if checkAllows {
		known := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			known[a.Name] = true
		}
		out.StaleAllows = tracker.stale(known)
	}
	return out, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// InCone reports whether a package import path falls under any cone
// entry, matching whole path segments: an entry matches the path itself,
// a trailing suffix ("internal/serve" covers "alloysim/internal/serve"),
// a leading prefix, or an interior run ("tools/analyzers" covers
// "alloysim/tools/analyzers/anzkit").
func InCone(path string, cone []string) bool {
	for _, e := range cone {
		if path == e || strings.HasSuffix(path, "/"+e) ||
			strings.HasPrefix(path, e+"/") || strings.Contains(path, "/"+e+"/") {
			return true
		}
	}
	return false
}

// ---- annotation grammar ----

const (
	hotpathDirective = "//alloyvet:hotpath"
	allowPrefix      = "//alloyvet:allow("
)

// IsHotpath reports whether the function declaration carries the
// //alloyvet:hotpath directive in its doc comment.
func IsHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathDirective) {
			return true
		}
	}
	return false
}

// allowedNames parses "//alloyvet:allow(a,b)" into {"a","b"}; a non-allow
// comment yields nil.
func allowedNames(text string) []string {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	rest := text[len(allowPrefix):]
	close := strings.IndexByte(rest, ')')
	if close < 0 {
		return nil
	}
	var names []string
	for _, n := range strings.Split(rest[:close], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// Directive parses an "//alloyvet:<name> <arg>" comment and returns the
// trimmed argument text. The grammar beyond allow/hotpath:
//
//	//alloyvet:guard mu        struct field is protected by mutex field mu
//	//alloyvet:owner <who>     struct field has a single writer; no lock needed
//	//alloyvet:detached <why>  audited fire-and-forget goroutine
func Directive(text, name string) (arg string, ok bool) {
	text = strings.TrimSpace(text)
	prefix := "//alloyvet:" + name
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //alloyvet:guardian is not //alloyvet:guard
	}
	return strings.TrimSpace(rest), true
}

// FieldDirective scans a struct field's doc and trailing comments for an
// "//alloyvet:<name>" directive and returns its argument.
func FieldDirective(fld *ast.Field, name string) (arg string, ok bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if arg, ok := Directive(c.Text, name); ok {
				return arg, true
			}
		}
	}
	return "", false
}

// allowRecord is one (comment, analyzer-name) pair; used flips when the
// allow suppresses a finding anywhere in the run.
type allowRecord struct {
	pos  token.Position
	name string
	used bool
}

// allowTracker dedupes allow records across packages: a file shared by a
// package and its test variant contributes the same comment twice, and a
// suppression in either analysis keeps the entry fresh.
type allowTracker struct {
	recs map[string]*allowRecord
}

func newAllowTracker() *allowTracker {
	return &allowTracker{recs: make(map[string]*allowRecord)}
}

func (t *allowTracker) record(pos token.Position, name string) *allowRecord {
	key := fmt.Sprintf("%s\x00%d\x00%s", pos.Filename, pos.Line, name)
	if r := t.recs[key]; r != nil {
		return r
	}
	r := &allowRecord{pos: pos, name: name}
	t.recs[key] = r
	return r
}

// stale returns one diagnostic per allow entry that suppressed nothing,
// sorted by position. Entries naming analyzers outside the run set are
// always stale: they can never fire.
func (t *allowTracker) stale(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, r := range t.recs {
		if r.used {
			continue
		}
		msg := fmt.Sprintf("stale //alloyvet:allow(%s): no %s finding here; remove it or re-anchor it to the code it covers", r.name, r.name)
		if !known[r.name] {
			msg = fmt.Sprintf("//alloyvet:allow(%s) names an unknown analyzer", r.name)
		}
		out = append(out, Diagnostic{Pos: r.pos, Analyzer: "allowstale", Message: msg})
	}
	sortDiags(out)
	return out
}

// allowIndex resolves allow comments to (file, line, analyzer) coverage.
type allowIndex struct {
	// lines maps filename -> line -> allow entries covering that line.
	lines map[string]map[int][]*allowRecord
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File, tracker *allowTracker) *allowIndex {
	idx := &allowIndex{lines: make(map[string]map[int][]*allowRecord)}
	add := func(pos token.Position, recs []*allowRecord) {
		m := idx.lines[pos.Filename]
		if m == nil {
			m = make(map[int][]*allowRecord)
			idx.lines[pos.Filename] = m
		}
		m[pos.Line] = append(m[pos.Line], recs...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := allowedNames(c.Text)
				if names == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				recs := make([]*allowRecord, 0, len(names))
				for _, n := range names {
					recs = append(recs, tracker.record(pos, n))
				}
				// Cover the comment's own line (trailing form) and the
				// next line (standalone form above the flagged code).
				add(pos, recs)
				add(token.Position{Filename: pos.Filename, Line: pos.Line + 1}, recs)
			}
		}
		// Doc-comment form: cover the whole function body.
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Body == nil {
				continue
			}
			var recs []*allowRecord
			for _, c := range fn.Doc.List {
				cpos := fset.Position(c.Pos())
				for _, n := range allowedNames(c.Text) {
					recs = append(recs, tracker.record(cpos, n))
				}
			}
			if len(recs) == 0 {
				continue
			}
			start := fset.Position(fn.Pos())
			end := fset.Position(fn.Body.End())
			for line := start.Line; line <= end.Line; line++ {
				add(token.Position{Filename: start.Filename, Line: line}, recs)
			}
		}
	}
	return idx
}

func (idx *allowIndex) allows(analyzer string, pos token.Position) bool {
	m := idx.lines[pos.Filename]
	if m == nil {
		return false
	}
	for _, r := range m[pos.Line] {
		if r.name == analyzer {
			r.used = true
			return true
		}
	}
	return false
}
