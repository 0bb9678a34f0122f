// Package bufownership machine-checks the comm buffer-ownership contract
// (DESIGN.md §8): the in-memory transport delivers Send payloads by
// reference, so a slice handed to comm Send/SendBuffered/Exchange/
// ExchangeInto must not be written through or retained by the sender
// until the documented round-boundary swap — a receiver may still be
// reading it. PRs 2-5 enforced this by review plus alloc-count tests;
// this analyzer proves it statically with a forward dataflow over each
// function's CFG.
//
// Within one function (function literals are analyzed separately, each
// from an empty state), after a payload expression is handed to a comm
// send:
//
//   - writing through the sent slice (element assignment, append, copy
//     into it) is reported;
//   - storing the sent slice into a field is reported (retention: the
//     round-local ownership argument no longer bounds its lifetime);
//   - aliasing it to a local extends tracking to the alias;
//   - reassigning the slice variable itself ends tracking (the usual
//     double-buffer generation flip), as does reassigning any variable
//     used in the tracked expression's index (m.sendGen ^= 1, the loop
//     induction variable).
//
// For Exchange/ExchangeInto the out slice's *elements* have been sent:
// replacing a slot (out[i] = ...) is harmless — the receiver keeps its
// own reference — but writing bytes through a slot (out[i][j] = ...,
// append(out[i], ...)) is reported. The analysis is first-order and
// syntactic about aliases (tracked expressions are normalized source
// paths), which is exactly the shape of the npm sync phases it guards.
package bufownership

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

// Analyzer is the bufownership check.
var Analyzer = &framework.Analyzer{
	Name: "bufownership",
	Doc:  "forbid writes to or retention of buffers handed to comm sends (§8 ownership contract)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			analyzeBody(pass, decl.Body)
			// Function literals run at call time with their own frames;
			// analyze each from an empty state.
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// sent records one tracked buffer: where it was sent, and whether the key
// names the buffer itself (exact) or a container whose elements were sent
// (base, from Exchange's out slice or the payload's enclosing slice).
type sent struct {
	pos  token.Pos
	base bool
}

type state map[string]sent

type checker struct {
	pass      *framework.Pass
	info      *types.Info
	reporting bool
	reported  map[token.Pos]bool
}

func analyzeBody(pass *framework.Pass, body *ast.BlockStmt) {
	g, ok := cfg.Build(body)
	if !ok {
		return // goto/labels: out of scope, as in lockdiscipline
	}
	c := &checker{pass: pass, info: pass.Pkg.Info, reported: map[token.Pos]bool{}}
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
	// Replay with reporting: every node is visited once, under its
	// fixpoint-correct incoming state.
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
}

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

func (c *checker) transfer(s state, n ast.Node) {
	switch st := n.(type) {
	case *ast.AssignStmt:
		c.assign(s, st)
	case *ast.IncDecStmt:
		if k, ok := key(st.X); ok {
			kill(s, k)
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{st.Key, st.Value} {
			if e == nil {
				continue
			}
			if k, ok := key(e); ok {
				kill(s, k)
			}
		}
	}
	cfg.ShallowWalk(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			c.call(s, call)
		}
		return true
	})
}

// assign processes writes, kills, aliases, and retention.
func (c *checker) assign(s state, st *ast.AssignStmt) {
	// RHS first: retention and aliasing look at the state before the LHS
	// kills apply.
	for i, rhs := range st.Rhs {
		var lhs ast.Expr
		if len(st.Lhs) == len(st.Rhs) {
			lhs = st.Lhs[i]
		} else if len(st.Lhs) > 0 {
			lhs = st.Lhs[0]
		}
		c.flow(s, lhs, rhs, st.Pos())
	}
	for _, lhs := range st.Lhs {
		l, ok := key(lhs)
		if !ok {
			continue
		}
		// Writing through a tracked buffer?
		c.checkWrite(s, l, st.Pos())
		// Reassigning the tracked expression (or an index variable it
		// depends on) ends tracking: this is the round-boundary swap.
		kill(s, l)
	}
	// Re-add aliases established by this statement (x = sentBuf).
	if len(st.Lhs) == len(st.Rhs) {
		for i, rhs := range st.Rhs {
			rk, ok := key(rhs)
			if !ok {
				continue
			}
			info, tracked := s[rk]
			if !tracked || info.base {
				continue
			}
			if l, ok := key(st.Lhs[i]); ok && !strings.Contains(l, ".") {
				s[l] = info
			}
		}
	}
}

// flow checks one rhs flowing into lhs for retention of a sent buffer.
func (c *checker) flow(s state, lhs, rhs ast.Expr, pos token.Pos) {
	rk, ok := key(rhs)
	if ok {
		if info, tracked := s[rk]; tracked && !info.base {
			if l, lok := key(lhs); lok && strings.Contains(l, ".") {
				c.reportRetained(pos, rk, l, info)
			}
		}
		return
	}
	// m.field = append(m.field, sentBuf): retention through append.
	if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall && isBuiltin(call, "append") {
		for _, a := range call.Args[1:] {
			ak, aok := key(a)
			if !aok {
				continue
			}
			if info, tracked := s[ak]; tracked && !info.base {
				if l, lok := key(lhs); lok && strings.Contains(l, ".") {
					c.reportRetained(pos, ak, l, info)
				}
			}
		}
	}
}

// reportRetained reports a sent buffer stored into a field.
func (c *checker) reportRetained(pos token.Pos, k, l string, info sent) {
	c.reportf(pos, "sent buffer %s is retained in %s (sent at %s); a receiver may still be reading it",
		k, l, c.pass.Fset().Position(info.pos))
}

// checkWrite reports if assigning through l mutates bytes of a tracked
// buffer: any extension of an exact buffer, a >= 2 level extension of a
// base container (out[i] = ... merely replaces the slot header).
func (c *checker) checkWrite(s state, l string, pos token.Pos) {
	for _, e := range sortedEntries(s) {
		k, info := e.k, e.v
		lv := extensionLevels(l, k)
		if lv < 0 {
			continue
		}
		min := 1
		if info.base {
			min = 2
		}
		if lv >= min {
			c.reportf(pos, "write to %s after %s was handed to a comm send (at %s); double-buffer or defer the write past the round boundary",
				l, k, c.pass.Fset().Position(info.pos))
			return
		}
	}
}

// call marks buffers handed to comm sends and checks append/copy against
// tracked buffers.
func (c *checker) call(s state, call *ast.CallExpr) {
	if isBuiltin(call, "append") || isBuiltin(call, "copy") {
		if len(call.Args) == 0 {
			return
		}
		dst, ok := key(call.Args[0])
		if !ok {
			return
		}
		verb := "append to"
		if isBuiltin(call, "copy") {
			verb = "copy into"
		}
		for _, e := range sortedEntries(s) {
			k, info := e.k, e.v
			if (dst == k && !info.base) || extensionLevels(dst, k) >= 1 {
				c.reportf(call.Pos(), "%s %s after %s was handed to a comm send (at %s); sent bytes are receiver-owned until the round-boundary swap",
					verb, dst, k, c.pass.Fset().Position(info.pos))
				return
			}
		}
		return
	}

	fn := calleeFunc(c.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "internal/comm") {
		return
	}
	switch fn.Name() {
	case "Send", "SendBuffered":
		if len(call.Args) != 3 {
			return
		}
		c.markSent(s, call.Args[2], call.Pos())
	case "Exchange", "ExchangeInto":
		// func Exchange(ep, tag, out) / ExchangeInto(ep, tag, out, in):
		// out's elements go on the wire.
		if len(call.Args) < 3 {
			return
		}
		if k, ok := key(call.Args[2]); ok && k != "nil" {
			s[k] = sent{pos: call.Pos(), base: true}
		}
	}
}

// markSent tracks one payload handed to Send/SendBuffered. A payload
// indexed by a plain identifier (out[i], the loop-over-peers shape)
// additionally marks the container: the induction variable moves on and
// kills the per-element key, but elements of out stay on the wire. A
// payload indexed by a field path (m.bufs[m.gen]) marks only the exact
// expression — the generation flip m.gen ^= 1 must end tracking, because
// the flipped expression addresses the *other* buffer of the pair.
func (c *checker) markSent(s state, payload ast.Expr, pos token.Pos) {
	k, ok := key(payload)
	if !ok || k == "nil" {
		return
	}
	s[k] = sent{pos: pos}
	if idx, isIdx := ast.Unparen(payload).(*ast.IndexExpr); isIdx {
		if _, plain := ast.Unparen(idx.Index).(*ast.Ident); !plain {
			return
		}
		if base, bok := key(idx.X); bok {
			if cur, exists := s[base]; !exists || cur.base {
				s[base] = sent{pos: pos, base: true}
			}
		}
	}
}

// kill drops tracking for k and for every key using k as an index
// variable (reassigning the index re-addresses the expression: the
// generation flip m.sendGen ^= 1, the loop induction variable).
func kill(s state, k string) {
	delete(s, k)
	for tracked := range s {
		if strings.Contains(tracked, "["+k+"]") || strings.Contains(tracked, "["+k+"[") {
			delete(s, tracked)
		}
	}
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if !c.reporting || c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

type entry struct {
	k string
	v sent
}

// sortedEntries iterates the state deterministically so replay reporting
// is stable run to run.
func sortedEntries(s state) []entry {
	out := make([]entry, 0, len(s))
	for k, v := range s {
		out = append(out, entry{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// extensionLevels returns how many segments l adds beyond k (l ==
// "out[i][j]", k == "out" -> 2), or -1 if l does not extend k.
func extensionLevels(l, k string) int {
	if len(l) <= len(k) || !strings.HasPrefix(l, k) {
		return -1
	}
	rest := l[len(k):]
	if rest[0] != '[' && rest[0] != '.' {
		return -1
	}
	levels, depth := 0, 0
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '[':
			if depth == 0 {
				levels++
			}
			depth++
		case ']':
			depth--
		case '.':
			if depth == 0 {
				levels++
			}
		}
	}
	return levels
}

// key renders an expression as a normalized source path, the state key.
func key(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.BasicLit:
		return e.Value, true
	case *ast.SelectorExpr:
		x, ok := key(e.X)
		if !ok {
			return "", false
		}
		return x + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		x, ok := key(e.X)
		if !ok {
			return "", false
		}
		i, ok := key(e.Index)
		if !ok {
			return "", false
		}
		return x + "[" + i + "]", true
	case *ast.SliceExpr:
		// buf[:n] shares buf's backing array; track the base.
		return key(e.X)
	case *ast.StarExpr:
		x, ok := key(e.X)
		if !ok {
			return "", false
		}
		return "*" + x, true
	}
	return "", false
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == name
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
