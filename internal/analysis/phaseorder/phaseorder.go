// Package phaseorder machine-checks two parts of the BSP phase discipline
// (DESIGN.md §9). A superstep's npm Reduce calls buffer thread-local
// deltas that only become visible — and only stop referencing frontier
// state — after ReduceSync, so Frontier.Advance with an un-synced Reduce
// pending reorders the round. A host-local view's Reduce
// (`lv := npm.Local(m)`, then lv.Reduce) buffers on m's reduce buffers, so
// it is a pending reduce on m. And per-node Frontier.Activate (and its
// single-writer word form, ActivateWordOwned) is only meaningful from a
// dispatched operator closure — one handed to a ParFor* dispatch — or from
// a decode path that owns the frontier (a FrontierSink); activation from
// sequential driver code is almost always a missed ParForActive or bulk
// ActivateRange.
//
// The Advance rule runs as a forward may-dataflow over each function's
// CFG. Closures handed to the runtime's Time* sections are inlined (they
// run synchronously, exactly once); closures handed to dispatch
// primitives (ParFor*, par.Do/Static/Dynamic/PrefixSum) are scanned for
// the Reduces they contribute without applying their ReduceSyncs, since
// the dispatch order is not sequential. The Activate rule is a separate
// syntactic check per declaration.
//
// The internal/runtime package itself is exempt: it implements the
// primitives the discipline is about.
package phaseorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"kimbap/internal/analysis/cfg"
	"kimbap/internal/analysis/dataflow"
	"kimbap/internal/analysis/framework"
)

// Analyzer is the phaseorder check.
var Analyzer = &framework.Analyzer{
	Name: "phaseorder",
	Doc:  "enforce BSP phase order: ReduceSync before Advance, Activate only from operators or decoders (§9)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path, "internal/runtime") {
		return nil // the layer implementing the primitives is exempt
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			c := &checker{
				pass:     pass,
				info:     pass.Pkg.Info,
				lits:     namedLits(decl.Body),
				views:    LocalViews(decl.Body, pass.Pkg.Info),
				reported: map[string]bool{},
			}
			c.analyzeBody(decl.Body)
			// Function literals also get a standalone pass from an empty
			// state, so Advance misorderings inside a closure are caught
			// even when its call site is out of view.
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.analyzeBody(lit.Body)
				}
				return true
			})
			c.checkActivate(decl)
		}
	}
	return nil
}

// state is the per-program-point may-set of pending reduces: a Map
// receiver's source path to its first un-synced Reduce position.
type state map[string]token.Pos

func cloneState(s state) state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinState(dst, src state) (state, bool) {
	changed := false
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
			changed = true
		}
	}
	return dst, changed
}

type checker struct {
	pass *framework.Pass
	info *types.Info
	// lits resolves closure-valued locals (body := func(...){...}) so a
	// dispatch by name — h.ParForActive(fr, body) — scans the right body.
	lits map[string]*ast.FuncLit
	// views resolves local-view locals (lv := npm.Local(m)) to the source
	// path of the map behind them.
	views     map[string]string
	reporting bool
	reported  map[string]bool
}

func (c *checker) analyzeBody(body *ast.BlockStmt) {
	g, ok := cfg.Build(body)
	if !ok {
		return // goto/labels: out of scope, as in the other CFG analyzers
	}
	sp := dataflow.Spec[state]{
		Init:  state{},
		Clone: cloneState,
		Join:  joinState,
		Transfer: func(s state, n ast.Node) state {
			c.transfer(s, n)
			return s
		},
	}
	states := dataflow.Forward(g, sp)
	c.reporting = true
	for _, b := range g.Blocks {
		s, ok := states[b]
		if !ok {
			continue
		}
		s = cloneState(s)
		for _, n := range b.Nodes {
			c.transfer(s, n)
		}
	}
	c.reporting = false
}

func (c *checker) transfer(s state, n ast.Node) {
	cfg.ShallowWalk(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			c.applyCall(s, call, true)
		}
		return true
	})
}

// applyCall classifies one call and applies its phase effects. ordered
// reports diagnostics and applies ReduceSync's clear; it is false while
// scanning a dispatched closure, whose concurrent iterations only
// contribute pending reduces.
func (c *checker) applyCall(s state, call *ast.CallExpr, ordered bool) {
	fn := calleeFunc(c.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch {
	case strings.HasSuffix(pkg, "internal/npm"):
		k, ok := recvKey(call)
		if !ok {
			return
		}
		switch {
		case name == "Reduce":
			// A local view's Reduce buffers on its map's reduce buffers:
			// the obligation is the map's.
			if mk, isView := c.views[k]; isView {
				k = mk
			}
			if _, pending := s[k]; !pending {
				s[k] = call.Pos()
			}
		case name == "ReduceSync" && ordered:
			delete(s, k)
		}
	case strings.HasSuffix(pkg, "internal/runtime"):
		switch {
		case name == "Advance":
			if !ordered {
				return
			}
			for _, e := range sortedPend(s) {
				c.reportf(e.pos, call.Pos(),
					"Frontier.Advance with an un-synced Reduce on %s (at %s); call ReduceSync before advancing the frontier",
					e.k, c.pass.Fset().Position(e.pos))
			}
		case isDispatchName(name):
			c.scanLitArgs(s, call, false)
		case strings.HasPrefix(name, "Time"):
			// Time* sections run their closure synchronously, once:
			// inline its effects, clears and checks included.
			c.scanLitArgs(s, call, ordered)
		}
	case strings.HasSuffix(pkg, "internal/par") && isParDispatchName(name):
		c.scanLitArgs(s, call, false)
	}
}

// scanLitArgs applies the effects of every closure argument of call —
// written literally or named — to s. ordered is forwarded: true only for
// the synchronously-inlined Time* sections.
func (c *checker) scanLitArgs(s state, call *ast.CallExpr, ordered bool) {
	for _, a := range call.Args {
		var lit *ast.FuncLit
		switch arg := ast.Unparen(a).(type) {
		case *ast.FuncLit:
			lit = arg
		case *ast.Ident:
			lit = c.lits[arg.Name]
		}
		if lit == nil {
			continue
		}
		c.scanBody(s, lit.Body, ordered)
	}
}

// scanBody walks a closure body in source order applying call effects.
// Nested function literals are not entered — except through a recognized
// dispatch or Time* call, which applyCall handles itself.
func (c *checker) scanBody(s state, body *ast.BlockStmt, ordered bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			c.applyCall(s, call, ordered)
		}
		return true
	})
}

// checkActivate enforces the per-node activation contexts: a dispatched
// operator closure, a method of a type that owns a frontier (it has a
// SetFrontier method — the FrontierSink decode side), or the runtime
// package itself (excluded at the package level in run).
func (c *checker) checkActivate(decl *ast.FuncDecl) {
	if c.ownsFrontier(decl) {
		return
	}
	// Collect the closure literals that reach a dispatch primitive.
	dispatched := map[*ast.FuncLit]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(c.info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg, name := fn.Pkg().Path(), fn.Name()
		isDispatch := (strings.HasSuffix(pkg, "internal/runtime") && isDispatchName(name)) ||
			(strings.HasSuffix(pkg, "internal/par") && isParDispatchName(name))
		if !isDispatch {
			return true
		}
		for _, a := range call.Args {
			switch arg := ast.Unparen(a).(type) {
			case *ast.FuncLit:
				dispatched[arg] = true
			case *ast.Ident:
				if lit := c.lits[arg.Name]; lit != nil {
					dispatched[lit] = true
				}
			}
		}
		return true
	})
	var lits []*ast.FuncLit
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(c.info, call)
		if fn == nil || fn.Pkg() == nil || (fn.Name() != "Activate" && fn.Name() != "ActivateWordOwned") ||
			!strings.HasSuffix(fn.Pkg().Path(), "internal/runtime") {
			return true
		}
		// Legitimate if any enclosing closure was handed to a dispatch.
		for _, lit := range lits {
			if dispatched[lit] && call.Pos() >= lit.Body.Pos() && call.Pos() < lit.Body.End() {
				return true
			}
		}
		c.pass.Reportf(call.Pos(),
			"Frontier.%s outside an operator closure or frontier-owning decoder; per-node activation belongs in dispatched compute (use ActivateSet/ActivateAll for seeding)",
			fn.Name())
		return true
	})
}

// ownsFrontier reports whether decl is a method on a type that has a
// SetFrontier method — the FrontierSink decode side, which activates
// nodes as remote deltas arrive.
func (c *checker) ownsFrontier(decl *ast.FuncDecl) bool {
	if decl.Recv == nil {
		return false
	}
	obj, ok := c.info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	found, _, _ := types.LookupFieldOrMethod(recv.Type(), true, c.pass.Pkg.Types, "SetFrontier")
	_, isFn := found.(*types.Func)
	return isFn
}

func isDispatchName(name string) bool {
	switch name {
	case "ParFor", "ParForNodes", "ParForMasters", "ParForActive":
		return true
	}
	return false
}

func isParDispatchName(name string) bool {
	switch name {
	case "Do", "Static", "Dynamic", "PrefixSum":
		return true
	}
	return false
}

// reportf reports once per (obligation, Advance) pair: the same pending
// Reduce may reach several Advance replays.
func (c *checker) reportf(obligation, pos token.Pos, format string, args ...any) {
	if !c.reporting {
		return
	}
	k := c.pass.Fset().Position(obligation).String() + ":" + c.pass.Fset().Position(pos).String()
	if c.reported[k] {
		return
	}
	c.reported[k] = true
	c.pass.Reportf(pos, format, args...)
}

type pend struct {
	k   string
	pos token.Pos
}

func sortedPend(s state) []pend {
	out := make([]pend, 0, len(s))
	for k, v := range s {
		out = append(out, pend{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// namedLits maps closure-valued locals assigned at most once (the
// operator-body idiom: body := func(tid, src) {...}) to their literals.
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

// LocalViews maps local-view locals to the source path of their map:
// `lv := npm.Local(m)` yields {"lv": "m"}, as does one pair of
// `local, lv := h.HP.Local, npm.Local(m)`. Views arriving through fields
// or parameters stay unresolved, and their Reduce is charged to the view
// itself — the rule is best-effort by construction. cautiousop resolves
// views through it too.
func LocalViews(body *ast.BlockStmt, info *types.Info) map[string]string {
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
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Name() != "Local" ||
				!strings.HasSuffix(fn.Pkg().Path(), "internal/npm") {
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

// recvKey renders the receiver of a method call as a source path.
func recvKey(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return exprKey(sel.X)
}

// exprKey renders an expression as a normalized source path.
func exprKey(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		x, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return x + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		x, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		i, ok := exprKey(e.Index)
		if !ok {
			return "", false
		}
		return x + "[" + i + "]", true
	case *ast.StarExpr:
		x, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return "*" + x, true
	}
	return "", false
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
