// Package phaseorder machine-checks the activation part of the BSP phase
// discipline (DESIGN.md §9): per-node Frontier.Activate (and its
// single-writer word form, ActivateWordOwned) is only meaningful from an
// operator — a closure the runtime applies once per node (Operators) — or
// from a decode path that owns the frontier (a FrontierSink); activation
// from sequential driver code is almost always a missed operator or bulk
// ActivateRange.
//
// The other half of the discipline, no frontier advance while a Reduce is
// un-synced, holds by construction: the frontier's advance is unexported
// and the runtime's round driver (Loop.Run) calls it only after a round's
// last sync.
//
// Operators also tells cautiousop which closures are operators, so the
// two analyzers share one list of operator entry points.
//
// The internal/runtime package itself is exempt: it implements the
// primitives the discipline is about.
package phaseorder

import (
	"go/ast"
	"go/types"
	"strings"

	"kimbap/internal/analysis/framework"
)

// Analyzer is the phaseorder check.
var Analyzer = &framework.Analyzer{
	Name: "phaseorder",
	Doc:  "enforce BSP phase order: Activate only from operators or frontier-owning decoders (§9)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path, "internal/runtime") {
		return nil // the layer implementing the primitives is exempt
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				checkActivate(pass, decl)
			}
		}
	}
	return nil
}

// entryPoints are the methods whose func arguments are operators applied
// once per node or index: the host's parallel loops and the round
// driver's Loop.ParFor.
var entryPoints = map[string]bool{
	"ParFor":        true,
	"ParForNodes":   true,
	"ParForMasters": true,
	"ParForActive":  true,
}

// Operators returns the operator literals in body, once each: the func
// arguments of an entryPoints method call, and the Body of a Phase
// composite literal (the round driver's phase bodies), whether written in
// place or bound to a local name (body := func(...) {...}).
func Operators(body *ast.BlockStmt, info *types.Info) []*ast.FuncLit {
	named := namedLits(body)
	seen := map[*ast.FuncLit]bool{}
	var ops []*ast.FuncLit
	add := func(e ast.Expr) {
		var lit *ast.FuncLit
		switch e := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			lit = e
		case *ast.Ident:
			lit = named[e.Name]
		}
		if lit != nil && !seen[lit] {
			seen[lit] = true
			ops = append(ops, lit)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !entryPoints[sel.Sel.Name] {
				return true
			}
			if _, isMethod := info.Selections[sel]; !isMethod {
				return true
			}
			for _, a := range n.Args {
				add(a)
			}
		case *ast.CompositeLit:
			if t, ok := types.Unalias(info.TypeOf(n)).(*types.Named); !ok || t.Obj().Name() != "Phase" {
				return true
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Body" {
						add(kv.Value)
					}
				}
			}
		}
		return true
	})
	return ops
}

// checkActivate enforces the per-node activation contexts: an operator, a
// method of a type that owns a frontier (it has a SetFrontier method —
// the FrontierSink decode side), or the runtime package itself (excluded
// at the package level in run).
func checkActivate(pass *framework.Pass, decl *ast.FuncDecl) {
	info := pass.Pkg.Info
	if ownsFrontier(pass, decl) {
		return
	}
	ops := Operators(decl.Body, info)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || (fn.Name() != "Activate" && fn.Name() != "ActivateWordOwned") ||
			!strings.HasSuffix(fn.Pkg().Path(), "internal/runtime") {
			return true
		}
		// Legitimate if any enclosing closure is an operator.
		for _, lit := range ops {
			if call.Pos() >= lit.Body.Pos() && call.Pos() < lit.Body.End() {
				return true
			}
		}
		pass.Reportf(call.Pos(),
			"Frontier.%s outside an operator closure or frontier-owning decoder; per-node activation belongs in dispatched compute (use ActivateSet/ActivateAll for seeding)",
			fn.Name())
		return true
	})
}

// ownsFrontier reports whether decl is a method on a type that has a
// SetFrontier method — the FrontierSink decode side, which activates
// nodes as remote deltas arrive.
func ownsFrontier(pass *framework.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil {
		return false
	}
	obj, ok := pass.Pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(recv.Type(), true, pass.Pkg.Types, "SetFrontier")
	_, isFn := found.(*types.Func)
	return isFn
}

// namedLits maps closure-valued locals (the operator-body idiom: body :=
// func(tid, src) {...}) to their literals.
func namedLits(body *ast.BlockStmt) map[string]*ast.FuncLit {
	lits := map[string]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, isLit := ast.Unparen(rhs).(*ast.FuncLit)
			if !isLit {
				continue
			}
			if id, isID := as.Lhs[i].(*ast.Ident); isID {
				lits[id.Name] = lit
			}
		}
		return true
	})
	return lits
}

// calleeFunc resolves a call to its static *types.Func, if possible.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
