// Package cautiousop enforces the paper's §3.2 cautious-operator rule for
// Go-authored operators, mirroring what internal/compiler's Validate does
// for IR programs: within one application of an operator, no Read of a
// node-property map may follow a Reduce to that same map in forward
// control flow. Kimbap defers reductions to ReduceSync, so such a read
// either observes a stale value the author probably did not intend (Full,
// SGR variants) or a half-published one (the MC variant reduces through
// the external store immediately) — either way the operator's semantics
// silently depend on the runtime variant.
//
// Operators are the closures phaseorder.Operators finds — those handed to
// the runtime's per-node entry points (Host.ParFor, ParForNodes,
// ParForMasters, ParForActive, Loop.ParFor) and the round driver's phase
// bodies (a runtime.Phase's Body), written in place or bound to a local
// name — so both analyzers check one list of operators. Within a closure
// the analysis is structured and forward-only: loop back edges are
// ignored, exactly as the IR validator ignores the edge-loop back edge
// that separates operator applications, and sibling branches of an
// if/else do not see each other's reduces. A map is identified by the
// receiver expression it is called on ("parent", "m.ctot"); any receiver
// whose method set offers both Read and Reduce is treated as a
// reducible map (npm.Map variants and the runtime's distributed
// reducers alike). A local view (`lv := npm.Local(m)`) is its map:
// lv.Value is a Read of m and lv.Reduce a Reduce to m.
package cautiousop

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kimbap/internal/analysis/framework"
	"kimbap/internal/analysis/phaseorder"
)

// Analyzer is the cautiousop check.
var Analyzer = &framework.Analyzer{
	Name: "cautiousop",
	Doc:  "flag operator closures that Read a property map after Reducing to it (non-cautious operators, §3.2)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			views := localViews(fd.Body, info)
			for _, lit := range phaseorder.Operators(fd.Body, info) {
				op := &opAnalysis{pass: pass, info: info, views: views}
				op.stmts(lit.Body.List, map[string]token.Pos{})
			}
		}
	}
	return nil
}

// localViews maps local-view locals to the source path of their map:
// `lv := npm.Local(m)` yields {"lv": "m"}, as does one pair of
// `local, lv := h.HP.Local, npm.Local(m)`. Views arriving through fields
// or parameters stay unresolved and are not treated as maps.
func localViews(body *ast.BlockStmt, info *types.Info) map[string]string {
	views := map[string]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
			if !isCall || len(call.Args) != 1 || i >= len(as.Lhs) {
				continue
			}
			sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !isSel || sel.Sel.Name != "Local" {
				continue
			}
			fn, _ := info.Uses[sel.Sel].(*types.Func)
			if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/npm") {
				continue
			}
			id, isID := as.Lhs[i].(*ast.Ident)
			if !isID {
				continue
			}
			if mk, ok := exprKey(call.Args[0]); ok {
				views[id.Name] = mk
			}
		}
		return true
	})
	return views
}

type opAnalysis struct {
	pass  *framework.Pass
	info  *types.Info
	views map[string]string // view local -> its map's key
}

// stmts walks a statement list with the set of maps reduced-to so far
// (map key -> first reduce position), returning the updated set. Reads in
// each statement are checked against the set as of the statement's start;
// reduces inside one statement become visible to the next statement only
// (argument evaluation precedes the call, so a Read nested in the same
// expression as a Reduce is safe).
func (op *opAnalysis) stmts(list []ast.Stmt, reduced map[string]token.Pos) map[string]token.Pos {
	for _, s := range list {
		reduced = op.stmt(s, reduced)
	}
	return reduced
}

func (op *opAnalysis) stmt(s ast.Stmt, reduced map[string]token.Pos) map[string]token.Pos {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return op.stmts(s.List, reduced)
	case *ast.IfStmt:
		if s.Init != nil {
			reduced = op.stmt(s.Init, reduced)
		}
		reduced = op.exprs(reduced, s.Cond)
		out := cloneSet(reduced)
		merge(out, op.stmts(s.Body.List, cloneSet(reduced)))
		if s.Else != nil {
			merge(out, op.stmt(s.Else, cloneSet(reduced)))
		}
		return out
	case *ast.ForStmt:
		if s.Init != nil {
			reduced = op.stmt(s.Init, reduced)
		}
		reduced = op.exprs(reduced, s.Cond)
		// The body sees only reduces from before the loop and earlier in
		// the same iteration: the back edge separates operator work items,
		// exactly as in the IR validator.
		body := op.stmts(s.Body.List, cloneSet(reduced))
		if s.Post != nil {
			op.stmt(s.Post, body)
		}
		merge(reduced, body)
		return reduced
	case *ast.RangeStmt:
		reduced = op.exprs(reduced, s.X)
		merge(reduced, op.stmts(s.Body.List, cloneSet(reduced)))
		return reduced
	case *ast.SwitchStmt:
		if s.Init != nil {
			reduced = op.stmt(s.Init, reduced)
		}
		reduced = op.exprs(reduced, s.Tag)
		out := cloneSet(reduced)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			in := cloneSet(reduced)
			in = op.exprs(in, cc.List...)
			merge(out, op.stmts(cc.Body, in))
		}
		return out
	case *ast.ExprStmt:
		return op.exprs(reduced, s.X)
	case *ast.AssignStmt:
		reduced = op.exprs(reduced, s.Rhs...)
		return op.exprs(reduced, s.Lhs...)
	case *ast.ReturnStmt:
		return op.exprs(reduced, s.Results...)
	case *ast.IncDecStmt:
		return op.exprs(reduced, s.X)
	case *ast.SendStmt:
		return op.exprs(reduced, s.Chan, s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					reduced = op.exprs(reduced, vs.Values...)
				}
			}
		}
		return reduced
	case *ast.DeferStmt:
		return op.exprs(reduced, s.Call)
	}
	return reduced
}

// exprs checks Reads in the given expressions against the incoming
// reduced set, then records any Reduces they perform.
func (op *opAnalysis) exprs(reduced map[string]token.Pos, list ...ast.Expr) map[string]token.Pos {
	var newReduces []struct {
		key string
		pos token.Pos
	}
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // nested literals are separate operators
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			key, view, ok := op.mapReceiver(sel)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if view && name == "Value" {
				name = "Read"
			}
			switch name {
			case "Read":
				if redPos, found := reduced[key]; found {
					op.pass.Reportf(call.Pos(),
						"operator is not cautious: Read of %q follows a Reduce to it at line %d; the read observes a stale pre-reduce value (§3.2)",
						key, op.pass.Fset().Position(redPos).Line)
				}
			case "Reduce":
				newReduces = append(newReduces, struct {
					key string
					pos token.Pos
				}{key, call.Pos()})
			}
			return true
		})
	}
	for _, r := range newReduces {
		if _, ok := reduced[r.key]; !ok {
			reduced[r.key] = r.pos
		}
	}
	return reduced
}

// mapReceiver renders the receiver of a method selector if its type's
// method set offers both Read and Reduce (a node-property map or
// distributed reducer), or if it is a local view, which renders as its
// map and reports view.
func (op *opAnalysis) mapReceiver(sel *ast.SelectorExpr) (key string, view, ok bool) {
	if _, isMethod := op.info.Selections[sel]; !isMethod {
		return "", false, false
	}
	key, ok = exprKey(sel.X)
	if !ok {
		return "", false, false
	}
	if m, isView := op.views[key]; isView {
		return m, true, true
	}
	t := op.info.Types[sel.X].Type
	if t == nil || !hasMethod(t, "Read") || !hasMethod(t, "Reduce") {
		return "", false, false
	}
	return key, false, true
}

func hasMethod(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

func cloneSet(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func merge(dst, src map[string]token.Pos) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// exprKey renders a chain of identifiers/selections/simple indexes as a
// stable key for one map value.
func exprKey(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		if id, ok := e.Index.(*ast.Ident); ok {
			return base + "[" + id.Name + "]", true
		}
		if lit, ok := e.Index.(*ast.BasicLit); ok {
			return base + "[" + lit.Value + "]", true
		}
		return "", false
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.StarExpr:
		return exprKey(e.X)
	}
	return "", false
}
