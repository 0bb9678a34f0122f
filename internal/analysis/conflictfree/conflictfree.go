// Package conflictfree turns the paper's "zero conflicts by construction"
// claim (§4, Figure 7) into a checked property: every function annotated
//
//	//kimbap:conflictfree
//
// in its doc comment must not acquire a lock — directly or through any
// statically resolvable call it can reach. The annotation belongs on the
// conflict-free reduce-compute paths (the Full map's Reduce and the
// key-range combine of ReduceSync, the SGR+CF thread-local reduce); the
// analyzer then proves no sync.Mutex/RWMutex Lock, TryLock, RLock, or
// shard lockCounting call is reachable from them. StarDist and the
// GraphLab engines get this guarantee from their DSL compilers; here the
// annotation plus the analyzer replace the compiler.
//
// The annotation is also accepted on a statement: written immediately
// above a par.Do / par.Static / par.Dynamic dispatch, it asserts that the
// worker closure passed to the dispatch is conflict-free (the ingestion
// pipeline's counting-sort scatters carry it). The analyzer proves the
// closure's call tree lock-free exactly as it does for an annotated
// function, and rejects the annotation on any other kind of statement so
// a mis-placed assertion cannot silently check nothing.
//
// The call graph is first-order: direct calls and method calls on
// concrete receivers are followed into any package loaded in the program
// (function literals inside a checked body are scanned as part of it);
// calls through interfaces or function values are not resolved and are
// assumed clean — the transport's Send, for example, may lock internally,
// but transport locks are not shard conflicts.
package conflictfree

import (
	"go/ast"
	"go/types"
	"strings"

	"kimbap/internal/analysis/framework"
	"kimbap/internal/analysis/load"
)

// Analyzer is the conflictfree check.
var Analyzer = &framework.Analyzer{
	Name: "conflictfree",
	Doc:  "prove //kimbap:conflictfree functions reach no Lock/TryLock/lockCounting call",
	Run:  run,
}

// annotation marks a function whose call tree must be lock-free.
const annotation = "//kimbap:conflictfree"

func run(pass *framework.Pass) error {
	cf := &checker{
		prog:    pass.Prog,
		results: map[*types.Func][]string{},
		active:  map[*types.Func]bool{},
	}
	for _, f := range pass.Pkg.Files {
		cmap := ast.NewCommentMap(pass.Fset(), f, f.Comments)
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if annotated(decl) {
				fn, _ := pass.Pkg.Info.Defs[decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if path := cf.check(fn.Origin(), decl, pass.Pkg); path != nil {
					pass.Reportf(decl.Name.Pos(),
						"conflict-free path acquires a lock: %s", strings.Join(path, " -> "))
				}
			}
			cf.checkAnnotatedDispatches(pass, decl, cmap)
		}
	}
	return nil
}

// checkAnnotatedDispatches handles statement-level annotations: a
// //kimbap:conflictfree comment attached to a par dispatch statement
// asserts the worker closure it dispatches is lock-free. An annotation on
// any other statement — a non-dispatch call, an assignment, a
// declaration — would check nothing, so it is reported.
func (c *checker) checkAnnotatedDispatches(pass *framework.Pass, decl *ast.FuncDecl, cmap ast.CommentMap) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		stmt, ok := n.(ast.Stmt)
		if !ok || !annotatedStmt(cmap, stmt) {
			return true
		}
		var call *ast.CallExpr
		if es, ok := stmt.(*ast.ExprStmt); ok {
			call, _ = es.X.(*ast.CallExpr)
		}
		dispatch := ""
		if call != nil {
			dispatch = parDispatchName(pass.Pkg.Info, call)
		}
		if dispatch == "" {
			pass.Reportf(stmt.Pos(),
				"%s on a statement must annotate a par.Do/Static/Dynamic dispatch", annotation)
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			if path := c.scan(dispatch+" closure", lit.Body, pass.Pkg); path != nil {
				pass.Reportf(call.Pos(),
					"conflict-free path acquires a lock: %s", strings.Join(path, " -> "))
			}
		}
		return true
	})
}

// parDispatchName returns "par.Do" (etc.) if call is a worker dispatch
// from kimbap/internal/par, or "".
func parDispatchName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/par") {
		return ""
	}
	switch fn.Name() {
	case "Do", "Static", "Dynamic":
		return "par." + fn.Name()
	}
	return ""
}

func annotated(decl *ast.FuncDecl) bool {
	return groupAnnotated(decl.Doc)
}

// annotatedStmt reports whether a comment group attached to stmt carries
// the annotation.
func annotatedStmt(cmap ast.CommentMap, stmt ast.Stmt) bool {
	for _, g := range cmap[stmt] {
		if groupAnnotated(g) {
			return true
		}
	}
	return false
}

func groupAnnotated(g *ast.CommentGroup) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), annotation) {
			return true
		}
	}
	return false
}

type checker struct {
	prog *load.Program
	// results memoizes the offending call chain from each function (nil =
	// proven clean).
	results map[*types.Func][]string
	active  map[*types.Func]bool // recursion guard
}

// check returns the call chain from fn to a lock acquisition, or nil.
func (c *checker) check(fn *types.Func, decl *ast.FuncDecl, pkg *load.Package) []string {
	if path, done := c.results[fn]; done {
		return path
	}
	if c.active[fn] {
		return nil // a cycle adds no new calls
	}
	c.active[fn] = true
	defer delete(c.active, fn)

	path := c.scan(fnName(fn), decl.Body, pkg)
	c.results[fn] = path
	return path
}

// scan walks one body (a function's or a dispatched closure's) and returns
// the call chain from root to a lock acquisition, or nil.
func (c *checker) scan(root string, body ast.Node, pkg *load.Package) []string {
	var path []string
	ast.Inspect(body, func(n ast.Node) bool {
		if path != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pkg.Info, call)
		if callee == nil {
			return true
		}
		if isLockAcquire(callee) {
			path = []string{root, fnName(callee)}
			return false
		}
		calleeDecl, calleePkg := c.prog.FuncDecl(callee)
		if calleeDecl == nil || calleeDecl.Body == nil {
			return true // no source: interface method or stdlib; assumed clean
		}
		if sub := c.check(callee.Origin(), calleeDecl, calleePkg); sub != nil {
			path = append([]string{root}, sub...)
			return false
		}
		return true
	})
	return path
}

// isLockAcquire reports whether fn is a lock acquisition: a Lock-family
// method on sync.Mutex/RWMutex, or a conflict-counting shard acquire.
func isLockAcquire(fn *types.Func) bool {
	if fn.Name() == "lockCounting" {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	switch fn.Name() {
	case "Lock", "TryLock", "RLock", "TryRLock":
		return true
	}
	return false
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

func fnName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
