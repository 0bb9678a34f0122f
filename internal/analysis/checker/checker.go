// Package checker drives kimbapvet analyzers over loaded packages,
// applies //kimbapvet:ignore suppressions, and formats diagnostics. It is
// shared by cmd/kimbapvet and by analysistest so the two agree on
// suppression and ordering semantics.
package checker

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"

	"kimbap/internal/analysis/framework"
	"kimbap/internal/analysis/load"
)

// SuppressionsName is the pseudo-analyzer under which the checker itself
// reports undocumented //kimbapvet:ignore directives. It is always on and
// cannot be suppressed.
const SuppressionsName = "suppressions"

// Run applies every analyzer to every loaded module package — dependencies
// first, so facts exported by upstream packages are available downstream —
// and returns the diagnostics that fall inside pkgs (the target set),
// sorted by position.
//
// A diagnostic is suppressed by a comment of the form
//
//	//kimbapvet:ignore name1,name2 -- reason
//
// placed on the diagnostic's line or on the line directly above it. The
// analyzer list may be "all". A directive whose reason is missing or empty
// is itself reported, under the name "suppressions": DESIGN.md §7 requires
// every suppression to document why it is sound.
func Run(prog *load.Program, pkgs []*load.Package, analyzers []*framework.Analyzer) ([]framework.Diagnostic, error) {
	store := framework.NewFactStore()
	targets := map[*load.Package]bool{}
	for _, pkg := range pkgs {
		targets[pkg] = true
	}
	order := topoOrder(prog)

	var diags []framework.Diagnostic
	ignores := map[*load.Package]ignoreSet{}
	for _, pkg := range pkgs {
		ig, bare := collectIgnores(prog.Fset, pkg)
		ignores[pkg] = ig
		for _, pos := range bare {
			diags = append(diags, framework.Diagnostic{
				Pos:      pos,
				Analyzer: SuppressionsName,
				Message:  "//kimbapvet:ignore without `-- reason`: document why the suppression is sound",
			})
		}
	}

	for _, a := range analyzers {
		for _, pkg := range order {
			ds, err := framework.RunAnalyzer(a, prog, pkg, store)
			if err != nil {
				return nil, err
			}
			if !targets[pkg] {
				continue // dependency analyzed for its facts only
			}
			for _, d := range ds {
				if !ignores[pkg].matches(prog.Fset, d) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// topoOrder returns every loaded package, dependencies before dependents,
// ties broken by import path for determinism.
func topoOrder(prog *load.Program) []*load.Package {
	all := prog.Packages() // sorted by path
	byTypes := map[string]*load.Package{}
	for _, pkg := range all {
		byTypes[pkg.Types.Path()] = pkg
	}
	var order []*load.Package
	visited := map[*load.Package]bool{}
	var visit func(*load.Package)
	visit = func(pkg *load.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, imp := range pkg.Types.Imports() {
			if dep := byTypes[imp.Path()]; dep != nil {
				visit(dep)
			}
		}
		order = append(order, pkg)
	}
	for _, pkg := range all {
		visit(pkg)
	}
	return order
}

// Print writes diagnostics in the usual file:line:col format and reports
// whether any were written.
func Print(w io.Writer, fset *token.FileSet, diags []framework.Diagnostic) bool {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	return len(diags) > 0
}

// PrintJSON writes diagnostics as newline-delimited JSON records of the
// form {"analyzer":...,"pos":"file:line:col","message":...} — one object
// per line so CI can annotate PR diffs — and reports whether any were
// written.
func PrintJSON(w io.Writer, fset *token.FileSet, diags []framework.Diagnostic) bool {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		rec := struct {
			Analyzer string `json:"analyzer"`
			Pos      string `json:"pos"`
			Message  string `json:"message"`
		}{d.Analyzer, fset.Position(d.Pos).String(), d.Message}
		enc.Encode(rec)
	}
	return len(diags) > 0
}

// ignoreSet maps file -> line -> analyzer names suppressed there.
type ignoreSet map[string]map[int][]string

// collectIgnores gathers the package's suppression directives. The second
// result lists the positions of directives with no `-- reason` (or an
// empty one), which the checker reports as diagnostics of their own.
func collectIgnores(fset *token.FileSet, pkg *load.Package) (ignoreSet, []token.Pos) {
	ig := ignoreSet{}
	var bare []token.Pos
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//kimbapvet:ignore")
				if !ok {
					continue
				}
				rest = strings.TrimSpace(rest)
				reason := ""
				if i := strings.Index(rest, "--"); i >= 0 {
					reason = strings.TrimSpace(rest[i+2:])
					rest = strings.TrimSpace(rest[:i])
				}
				if reason == "" {
					bare = append(bare, c.Pos())
				}
				names := strings.Split(rest, ",")
				for i := range names {
					names[i] = strings.TrimSpace(names[i])
				}
				pos := fset.Position(c.Pos())
				if ig[pos.Filename] == nil {
					ig[pos.Filename] = map[int][]string{}
				}
				ig[pos.Filename][pos.Line] = append(ig[pos.Filename][pos.Line], names...)
			}
		}
	}
	return ig, bare
}

func (ig ignoreSet) matches(fset *token.FileSet, d framework.Diagnostic) bool {
	if d.Analyzer == SuppressionsName {
		return false // the suppression lint cannot be suppressed
	}
	pos := fset.Position(d.Pos)
	lines := ig[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == "all" || name == d.Analyzer {
				return true
			}
		}
	}
	return false
}
