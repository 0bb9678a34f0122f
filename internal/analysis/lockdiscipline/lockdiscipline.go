// Package lockdiscipline verifies Kimbap's shard-mutex discipline:
//
//   - every Lock/TryLock acquisition (including the conflict-counting
//     acquire wrapper lockCounting, which acquires its receiver's mu
//     field) is paired with an Unlock on every forward control-flow path
//     out of the function, either directly or by an immediate defer;
//   - no mutex is held across a potentially blocking communication
//     operation — a channel send or receive, a select, or a call into
//     kimbap/internal/comm (Exchange, Barrier, Send, Recv, AllReduce*).
//     The BSP exchange protocol requires every host to keep draining its
//     peers; a host that parks on a channel while holding a shard lock
//     that a worker thread needs can deadlock the whole cluster.
//     Worker-pool dispatches (runtime.ParFor and its ParForNodes /
//     ParForMasters / ParForActive wrappers, and the ingestion pool's
//     par.Do / par.Static / par.Dynamic / par.PrefixSum) count as
//     blocking for the same reason: the caller parks until every worker
//     finishes, so a worker iteration that needs the caller's shard lock
//     deadlocks the host.
//
// The analysis is structured (per-function, branch-sensitive, loop bodies
// must preserve lock state) rather than CFG-complete: functions using goto
// or labeled branches are skipped, and acquiring through function values
// is invisible. Acquire wrappers — functions named lockCounting — are
// themselves exempt, since returning with the lock held is their purpose.
package lockdiscipline

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"kimbap/internal/analysis/framework"
)

// Analyzer is the lockdiscipline check.
var Analyzer = &framework.Analyzer{
	Name: "lockdiscipline",
	Doc:  "verify shard-mutex Lock/Unlock pairing and no blocking comm while locked",
	Run:  run,
}

// acquireWrapper names methods that intentionally return holding their
// receiver's mu field.
const acquireWrapper = "lockCounting"

func run(pass *framework.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || decl.Name.Name == acquireWrapper {
				continue
			}
			analyzeFunc(pass, decl.Body)
		}
	}
	return nil
}

// lockState maps a normalized mutex expression ("sh.mu") to its Lock site.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s lockState) keys() []string {
	var out []string
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s lockState) equal(o lockState) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

type funcAnalysis struct {
	pass     *framework.Pass
	info     *types.Info
	held     lockState
	deferred map[string]bool // released by defer; satisfies the exit check
	bad      bool            // goto/label seen: give up on this function
}

func analyzeFunc(pass *framework.Pass, body *ast.BlockStmt) {
	fa := &funcAnalysis{
		pass:     pass,
		info:     pass.Pkg.Info,
		held:     lockState{},
		deferred: map[string]bool{},
	}
	terminated := fa.stmts(body.List, nil)
	if fa.bad {
		return
	}
	if !terminated {
		fa.checkRelease(body.Rbrace)
	}
}

// checkRelease reports locks still held (and not defer-released) at a
// function exit point.
func (fa *funcAnalysis) checkRelease(at token.Pos) {
	for _, k := range fa.held.keys() {
		if fa.deferred[k] {
			continue
		}
		fa.pass.Reportf(fa.held[k], "%s.Lock() is not released on all paths (missing Unlock before the exit at line %d)",
			k, fa.pass.Fset().Position(at).Line)
	}
}

// stmts walks a statement list. loopEntry, when non-nil, is the lock state
// at the enclosing loop's entry (break/continue must match it). It reports
// whether the list always terminates (return/panic) before falling through.
func (fa *funcAnalysis) stmts(list []ast.Stmt, loopEntry lockState) bool {
	for _, s := range list {
		if fa.bad {
			return false
		}
		if fa.stmt(s, loopEntry) {
			return true
		}
	}
	return false
}

// stmt processes one statement and reports whether it terminates control
// flow (return or unconditional panic).
func (fa *funcAnalysis) stmt(s ast.Stmt, loopEntry lockState) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		fa.expr(s.X)
	case *ast.SendStmt:
		fa.blockingOp(s.Pos(), "channel send")
		fa.expr(s.Chan)
		fa.expr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			fa.expr(e)
		}
		for _, e := range s.Lhs {
			fa.expr(e)
		}
	case *ast.IncDecStmt:
		fa.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						fa.expr(e)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// defer X.Unlock() satisfies the exit check but the lock stays
		// held for blocking-op purposes until the function returns.
		if key, ok := fa.unlockTarget(s.Call); ok {
			fa.deferred[key] = true
		}
		// Other deferred calls run after the analyzed region; skip.
	case *ast.GoStmt:
		// The goroutine body runs concurrently with fresh lock state.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			analyzeFunc(fa.pass, lit.Body)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			fa.expr(e)
		}
		fa.checkRelease(s.Pos())
		return true
	case *ast.BranchStmt:
		if s.Label != nil || s.Tok == token.GOTO {
			fa.bad = true
			return false
		}
		if s.Tok == token.BREAK || s.Tok == token.CONTINUE {
			if loopEntry != nil && !fa.held.equal(loopEntry) {
				fa.pass.Reportf(s.Pos(), "lock state at %s differs from loop entry (held: %s)",
					s.Tok, strings.Join(fa.held.keys(), ", "))
			}
			return true // terminates this statement list
		}
	case *ast.LabeledStmt:
		fa.bad = true
	case *ast.BlockStmt:
		return fa.stmts(s.List, loopEntry)
	case *ast.IfStmt:
		return fa.ifStmt(s, loopEntry)
	case *ast.ForStmt:
		if s.Init != nil {
			fa.stmt(s.Init, loopEntry)
		}
		if s.Cond != nil {
			fa.expr(s.Cond)
		}
		fa.loopBody(s.Body, s.Post, loopEntry)
	case *ast.RangeStmt:
		fa.expr(s.X)
		fa.loopBody(s.Body, nil, loopEntry)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		fa.switchStmt(s, loopEntry)
	case *ast.SelectStmt:
		fa.blockingOp(s.Pos(), "select")
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			saved := fa.held.clone()
			if cc.Comm != nil {
				fa.stmt(cc.Comm, loopEntry)
			}
			fa.stmts(cc.Body, loopEntry)
			fa.held = saved // conservative: ignore per-case lock changes
		}
	}
	return false
}

// ifStmt handles branch-sensitive lock state, including the
// `if mu.TryLock()` acquire idiom.
func (fa *funcAnalysis) ifStmt(s *ast.IfStmt, loopEntry lockState) bool {
	if s.Init != nil {
		fa.stmt(s.Init, loopEntry)
	}

	thenState := fa.held.clone()
	elseState := fa.held.clone()
	cond := ast.Unparen(s.Cond)
	negated := false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond = ast.Unparen(u.X)
		negated = true
	}
	if key, ok := fa.tryLockTarget(cond); ok {
		if negated {
			elseState[key] = cond.Pos()
		} else {
			thenState[key] = cond.Pos()
		}
	} else {
		fa.expr(s.Cond)
	}

	base := fa.held
	fa.held = thenState
	thenTerm := fa.stmts(s.Body.List, loopEntry)
	thenOut := fa.held

	var elseTerm bool
	fa.held = elseState
	if s.Else != nil {
		elseTerm = fa.stmt(s.Else, loopEntry)
	}
	elseOut := fa.held

	switch {
	case thenTerm && elseTerm:
		fa.held = base
		return true
	case thenTerm:
		fa.held = elseOut
	case elseTerm:
		fa.held = thenOut
	default:
		if !thenOut.equal(elseOut) {
			fa.pass.Reportf(s.Pos(), "lock state diverges across if/else branches (then holds [%s], else holds [%s])",
				strings.Join(thenOut.keys(), ", "), strings.Join(elseOut.keys(), ", "))
		}
		fa.held = thenOut
	}
	return false
}

func (fa *funcAnalysis) switchStmt(s ast.Stmt, loopEntry lockState) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			fa.stmt(s.Init, loopEntry)
		}
		if s.Tag != nil {
			fa.expr(s.Tag)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	}
	entry := fa.held.clone()
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		for _, e := range cc.List {
			fa.expr(e)
		}
		fa.held = entry.clone()
		if !fa.stmts(cc.Body, loopEntry) && !fa.held.equal(entry) {
			fa.pass.Reportf(cc.Pos(), "lock state changes across switch case (held: %s)",
				strings.Join(fa.held.keys(), ", "))
		}
	}
	fa.held = entry
}

// loopBody requires the body to preserve lock state across iterations.
func (fa *funcAnalysis) loopBody(body *ast.BlockStmt, post ast.Stmt, _ lockState) {
	entry := fa.held.clone()
	term := fa.stmts(body.List, entry)
	if post != nil {
		fa.stmt(post, entry)
	}
	if !term && !fa.held.equal(entry) {
		fa.pass.Reportf(body.Pos(), "lock state changes across loop iteration (held at end: %s)",
			strings.Join(fa.held.keys(), ", "))
	}
	fa.held = entry
}

// expr scans an expression for acquire/release calls, channel receives,
// and blocking comm calls. Nested function literals get fresh analyses.
func (fa *funcAnalysis) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			analyzeFunc(fa.pass, n.Body)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fa.blockingOp(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			fa.call(n)
		}
		return true
	})
}

// call classifies one call expression.
func (fa *funcAnalysis) call(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	switch {
	case name == "Lock" || name == "RLock":
		if key, ok := mutexKey(fa.info, sel); ok {
			fa.held[key] = call.Pos()
		}
	case name == "TryLock" || name == "TryRLock":
		// Handled branch-sensitively in ifStmt; a statement-level TryLock
		// that discards its result acquires unconditionally... and loses
		// track of failure, which is itself worth flagging.
		if key, ok := mutexKey(fa.info, sel); ok {
			fa.pass.Reportf(call.Pos(), "result of %s.TryLock() ignored: acquisition state is unknown", key)
		}
	case name == "Unlock" || name == "RUnlock":
		if key, ok := mutexKey(fa.info, sel); ok {
			delete(fa.held, key)
		}
	case name == acquireWrapper:
		// sh.lockCounting() acquires sh.mu.
		if recv, ok := exprKey(sel.X); ok {
			fa.held[recv+".mu"] = call.Pos()
		}
	default:
		if fa.isCommCall(sel) {
			fa.blockingOp(call.Pos(), fmt.Sprintf("comm.%s call", name))
		} else if fa.isParForCall(sel) {
			fa.blockingOp(call.Pos(), fmt.Sprintf("runtime.%s call", name))
		} else if fa.isParDispatch(sel) {
			fa.blockingOp(call.Pos(), fmt.Sprintf("par.%s call", name))
		}
	}
}

// blockingOp reports any held locks at a potentially blocking operation.
func (fa *funcAnalysis) blockingOp(pos token.Pos, what string) {
	for _, k := range fa.held.keys() {
		fa.pass.Reportf(pos, "%s while holding %s: a blocked host keeps the shard locked and can deadlock the BSP exchange", what, k)
	}
}

// tryLockTarget recognizes a direct X.TryLock() call used as a condition.
func (fa *funcAnalysis) tryLockTarget(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "TryLock" && sel.Sel.Name != "TryRLock") {
		return "", false
	}
	return mutexKey(fa.info, sel)
}

// unlockTarget recognizes X.Unlock()/X.RUnlock() and returns the mutex key.
func (fa *funcAnalysis) unlockTarget(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return "", false
	}
	return mutexKey(fa.info, sel)
}

// isCommCall reports whether sel names a blocking transport operation
// from kimbap/internal/comm. The package's pure codec helpers
// (AppendUint32 and friends) never block and are not flagged.
func (fa *funcAnalysis) isCommCall(sel *ast.SelectorExpr) bool {
	fn, ok := fa.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/comm") {
		return false
	}
	switch fn.Name() {
	case "Exchange", "ExchangeInto", "ExchangeFunc", "Barrier",
		"Send", "SendBuffered", "FlushSends", "Recv":
		return true
	}
	return strings.HasPrefix(fn.Name(), "AllReduce")
}

// isParForCall reports whether sel names a worker-pool dispatch from
// kimbap/internal/runtime. The ParFor family parks the calling goroutine
// until every worker finishes its chunk, so it blocks exactly like a
// channel receive. Frontier methods (Activate, Advance) are plain atomics
// and are not flagged.
func (fa *funcAnalysis) isParForCall(sel *ast.SelectorExpr) bool {
	fn, ok := fa.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/runtime") {
		return false
	}
	switch fn.Name() {
	case "ParFor", "ParForNodes", "ParForMasters", "ParForActive":
		return true
	}
	return false
}

// isParDispatch reports whether sel names a pool dispatch from
// kimbap/internal/par, the ingestion-side worker pool. Do, Static,
// Dynamic, and PrefixSum all park the caller until the last worker
// returns; Range and Resolve are pure arithmetic and are not flagged.
func (fa *funcAnalysis) isParDispatch(sel *ast.SelectorExpr) bool {
	fn, ok := fa.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/par") {
		return false
	}
	switch fn.Name() {
	case "Do", "Static", "Dynamic", "PrefixSum":
		return true
	}
	return false
}

// mutexKey renders the receiver of a Lock-family selector as a stable key,
// requiring the receiver to be a sync mutex type so unrelated Lock methods
// are not tracked.
func mutexKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	t := info.Types[sel.X].Type
	if t == nil || !isMutexType(t) {
		return "", false
	}
	return exprKey(sel.X)
}

func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	name := obj.Name()
	return obj.Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}

// exprKey renders a chain of identifiers, selections, and simple index
// expressions ("s.shards[i].mu") as a stable string key.
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
		idx, ok := exprKey(e.Index)
		if !ok {
			if lit, isLit := e.Index.(*ast.BasicLit); isLit {
				idx, ok = lit.Value, true
			}
		}
		if !ok {
			return "", false
		}
		return base + "[" + idx + "]", true
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	}
	return "", false
}
