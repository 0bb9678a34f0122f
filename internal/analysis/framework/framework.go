// Package framework defines the analyzer interface for kimbapvet. It
// mirrors the shape of golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) so analyzers read like standard vet checks, but is built on
// the standard library alone: this module must build offline, so the real
// x/tools dependency is intentionally not used. A Pass additionally
// carries the whole loaded Program, because Kimbap's invariants
// (conflict-free reduce paths) cross package boundaries.
package framework

import (
	"fmt"
	"go/token"

	"kimbap/internal/analysis/load"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //kimbapvet:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant checked.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one (package, analyzer) unit of work.
type Pass struct {
	Analyzer *Analyzer
	// Prog is the whole loaded program; dependency packages retain their
	// syntax, so cross-package call paths can be followed.
	Prog *load.Program
	// Pkg is the package under analysis.
	Pkg *load.Package

	diags *[]Diagnostic
	store *FactStore
}

// Fset returns the program-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzer applies a to pkg and returns its diagnostics. store may be
// nil for single-package runs that need no cross-package facts.
func RunAnalyzer(a *Analyzer, prog *load.Program, pkg *load.Package, store *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags, store: store}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return diags, nil
}
