// Package wiretag machine-checks the wire-format tag discipline
// (DESIGN.md §10): a const block annotated
//
//	//kimbap:wiregroup <name>
//
// declares a closed set of wire tags (the comm message tags, the npm
// section body forms). Every switch whose case
// labels name a member of a group must then handle the whole group — a
// default arm does not count, because "panic on the tag we forgot to
// decode" is exactly the near-miss this analyzer exists for (PR 3
// shipped a decoder briefly missing the v2s arm). Blank members and
// names beginning with "num" (the count sentinel idiom, e.g. numTags)
// are not members.
//
// Group membership travels as object facts, so a switch in a downstream
// package over an upstream group (a switch over comm.Tag) is
// checked with the full member list. A Finish pass then reports tags
// that are emitted — used as values outside case labels and equality
// comparisons — but handled by no switch anywhere in the program; groups
// that no package switches over are exempt, since a pure emit-side
// selector has no decode switch to be exhaustive.
package wiretag

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kimbap/internal/analysis/framework"
)

// Analyzer is the wiretag check.
var Analyzer = &framework.Analyzer{
	Name:   "wiretag",
	Doc:    "require switches over //kimbap:wiregroup tag sets to be exhaustive and emitted tags to be handled (§10)",
	Run:    run,
	Finish: finish,
}

const directive = "//kimbap:wiregroup"

// memberFact marks a const as belonging to a wire group. Group is
// qualified as "<pkg path>:<name>".
type memberFact struct{ Group string }

func (*memberFact) AFact() {}

// emittedFact records the first position where a member is used as a
// value (outside case labels, comparisons, and its declaring block).
type emittedFact struct {
	Pos   token.Pos
	Group string
}

func (*emittedFact) AFact() {}

// handledFact marks a member that appears in some switch's case labels.
type handledFact struct{}

func (*handledFact) AFact() {}

// switchedFact marks every member of a group that at least one switch
// ranges over.
type switchedFact struct{}

func (*switchedFact) AFact() {}

func run(pass *framework.Pass) error {
	declBlocks := collectGroups(pass)

	// Full member lists, own package included: dependencies were analyzed
	// first, so their facts are already in the store.
	members := map[string][]types.Object{}
	for _, of := range pass.AllObjectFacts(&memberFact{}) {
		g := of.Fact.(*memberFact).Group
		members[g] = append(members[g], of.Obj)
	}

	for _, f := range pass.Pkg.Files {
		checkSwitches(pass, f, members)
		recordEmissions(pass, f, declBlocks)
	}
	return nil
}

// collectGroups finds this package's annotated const blocks, exports a
// memberFact per member, and returns the annotated GenDecls (their
// idents are not emissions).
func collectGroups(pass *framework.Pass) map[*ast.GenDecl]bool {
	blocks := map[*ast.GenDecl]bool{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			name, found := directiveName(gd.Doc)
			if !found {
				continue
			}
			if name == "" {
				pass.Reportf(gd.Pos(), "%s needs a group name", directive)
				continue
			}
			blocks[gd] = true
			group := pass.Pkg.Path + ":" + name
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if id.Name == "_" || strings.HasPrefix(id.Name, "num") {
						continue // the count sentinel is not a tag
					}
					if obj := pass.Pkg.Info.Defs[id]; obj != nil {
						pass.ExportObjectFact(obj, &memberFact{Group: group})
					}
				}
			}
		}
	}
	return blocks
}

// directiveName scans a comment group for the wiregroup directive and
// returns the group name following it.
func directiveName(g *ast.CommentGroup) (string, bool) {
	if g == nil {
		return "", false
	}
	for _, c := range g.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, directive) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(text, directive))
		if len(fields) == 0 {
			return "", true
		}
		return fields[0], true
	}
	return "", false
}

// checkSwitches associates each value switch with a group through its
// case labels, checks exhaustiveness, and records handled members.
func checkSwitches(pass *framework.Pass, f *ast.File, members map[string][]types.Object) {
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		var caseObjs []types.Object
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				if obj := resolveObj(pass.Pkg.Info, e); obj != nil {
					caseObjs = append(caseObjs, obj)
				}
			}
		}
		group := ""
		for _, obj := range caseObjs {
			var mf memberFact
			if pass.ImportObjectFact(obj, &mf) {
				group = mf.Group
				break
			}
		}
		if group == "" {
			return true
		}
		covered := map[types.Object]bool{}
		for _, obj := range caseObjs {
			var mf memberFact
			if pass.ImportObjectFact(obj, &mf) && mf.Group == group {
				covered[obj] = true
				pass.ExportObjectFact(obj, &handledFact{})
			}
		}
		var missing []string
		for _, m := range members[group] {
			pass.ExportObjectFact(m, &switchedFact{})
			if !covered[m] {
				missing = append(missing, m.Name())
			}
		}
		if len(missing) > 0 {
			pass.Reportf(sw.Pos(),
				"switch over wire group %s does not handle %s; every tag needs an arm (a default does not count)",
				shortGroup(group), strings.Join(missing, ", "))
		}
		return true
	})
}

// recordEmissions exports an emittedFact for each member used as a value
// outside case labels, ==/!= comparisons, and annotated const blocks.
func recordEmissions(pass *framework.Pass, f *ast.File, declBlocks map[*ast.GenDecl]bool) {
	skip := map[*ast.Ident]bool{}
	markIdents := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				skip[id] = true
			}
			return true
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			if declBlocks[n] {
				markIdents(n)
				return false
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				markIdents(e)
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				markIdents(n)
				return false
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		var mf memberFact
		if !pass.ImportObjectFact(obj, &mf) {
			return true
		}
		var ef emittedFact
		if !pass.ImportObjectFact(obj, &ef) {
			pass.ExportObjectFact(obj, &emittedFact{Pos: id.Pos(), Group: mf.Group})
		}
		return true
	})
}

// finish reports tags emitted somewhere in the program but handled by no
// switch, for groups that have at least one switch.
func finish(pass *framework.Pass) error {
	for _, of := range pass.AllObjectFacts(&emittedFact{}) {
		ef := of.Fact.(*emittedFact)
		var sw switchedFact
		if !pass.ImportObjectFact(of.Obj, &sw) {
			continue // emit-only group: no decode switch to appear in
		}
		var h handledFact
		if pass.ImportObjectFact(of.Obj, &h) {
			continue
		}
		pass.Reportf(ef.Pos,
			"wire tag %s is emitted but no switch over group %s handles it; bytes of this form would reach an unprepared decoder",
			of.Obj.Name(), shortGroup(ef.Group))
	}
	return nil
}

func shortGroup(g string) string {
	if i := strings.LastIndex(g, ":"); i >= 0 {
		return g[i+1:]
	}
	return g
}

// resolveObj resolves a case-label expression to the object it names.
func resolveObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}
