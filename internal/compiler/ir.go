// Package compiler reimplements the Kimbap compiler (paper §5): it takes
// shared-memory vertex operators written in a small statement IR, builds a
// statement-level control-flow graph, computes dominator and
// post-dominator trees (§2.3), and applies the paper's transformations —
// DoWhile wrapping, operator splitting with Request insertion, and
// RequestSync/ReduceSync placement — plus the two §5.2 optimizations:
// master-nodes RequestSync elision and adjacent-neighbors RequestSync
// elision (pinned mirrors with broadcast).
//
// The compiled artifact is an executable Plan interpreted over the runtime
// and node-property maps, so compiled programs run on the same simulated
// cluster as the hand-written ones. Compiling with optimizations disabled
// reproduces the paper's NO-OPT configuration (Figure 12).
package compiler

import "fmt"

// The IR is deliberately small: enough to express the paper's example
// programs (Figures 4 and 8). Values are node IDs; expressions are pure;
// reads from property maps are statements so the control-flow graph is
// statement-level, as in the paper.

// Expr is a pure value expression.
type Expr interface{ exprString() string }

// Active is the active node's global ID.
type Active struct{}

func (Active) exprString() string { return "node" }

// EdgeDst is the current edge's destination (valid inside ForEdges).
type EdgeDst struct{}

func (EdgeDst) exprString() string { return "dst" }

// Var references a variable assigned earlier in the operator.
type Var struct{ Name string }

func (v Var) exprString() string { return v.Name }

// Const is a literal node-ID value.
type Const struct{ V uint32 }

func (c Const) exprString() string { return fmt.Sprint(c.V) }

// CmpOp is a comparison operator for conditions.
type CmpOp string

// Comparison operators.
const (
	Lt CmpOp = "<"
	Gt CmpOp = ">"
	Eq CmpOp = "=="
	Ne CmpOp = "!="
)

// Cond is a comparison between two expressions.
type Cond struct {
	Op   CmpOp
	L, R Expr
}

func (c Cond) String() string {
	return c.L.exprString() + " " + string(c.Op) + " " + c.R.exprString()
}

// Stmt is an IR statement.
type Stmt interface{ stmtKind() string }

// Read assigns Map[Key] to variable Dst.
type Read struct {
	Dst string
	Map string
	Key Expr
}

func (Read) stmtKind() string { return "read" }

// Reduce merges Val into Map[Key] with the map's reduction operator.
type Reduce struct {
	Map string
	Key Expr
	Val Expr
}

func (Reduce) stmtKind() string { return "reduce" }

// Assign sets a variable to an expression value.
type Assign struct {
	Dst string
	Val Expr
}

func (Assign) stmtKind() string { return "assign" }

// If executes Then when the condition holds (no else branch; nest Ifs for
// more complex control flow).
type If struct {
	Cond Cond
	Then []Stmt
}

func (If) stmtKind() string { return "if" }

// ForEdges iterates the active node's local edges, binding EdgeDst.
type ForEdges struct {
	Body []Stmt
}

func (ForEdges) stmtKind() string { return "foredges" }

// Flag raises the program's work-done reducer (the Figure 4 BoolReducer).
type Flag struct{}

func (Flag) stmtKind() string { return "flag" }

// Request marks Map[Key] for retrieval; inserted by the compiler, never
// written by users.
type Request struct {
	Map string
	Key Expr
}

func (Request) stmtKind() string { return "request" }

// MapKind is a property map's reduction operator kind.
type MapKind string

// Map reduction kinds available to IR programs.
const (
	MinMap       MapKind = "min"
	MaxMap       MapKind = "max"
	OverwriteMap MapKind = "overwrite"
)

// MapDecl declares a node-property map used by a program.
type MapDecl struct {
	Name string
	Kind MapKind
	// InitToID seeds every node's value with its own ID; InitDegreePrio
	// seeds masters with the distinct degree-based priority
	// graph.MISPriority, shared with the hand-written MIS (requires an
	// edge-cut partition so master degrees are global). Otherwise the map
	// is initialized with InitConst.
	InitToID       bool
	InitDegreePrio bool
	InitConst      uint32
}

// Loop is one KimbapWhile construct: an operator repeated until the
// quiescence map stops updating (Figure 3).
type Loop struct {
	// Quiesce names the map whose updates keep the loop running.
	Quiesce string
	// Body is the programmer's operator over the active node.
	Body []Stmt
	// MastersOnly restricts the node iterator to master proxies — the
	// §3.2 "iteration over a subset of nodes". Decision-style operators
	// (e.g. MIS) must run exactly once per node globally and use this
	// with an edge-cut partition that gives masters their full adjacency.
	MastersOnly bool
}

// Program is a vertex-centric IR program: map declarations plus a sequence
// of KimbapWhile loops executed in order.
type Program struct {
	Name  string
	Maps  []MapDecl
	Loops []Loop
}

// mapDecl looks up a declaration by name.
func (p *Program) mapDecl(name string) (MapDecl, error) {
	for _, d := range p.Maps {
		if d.Name == name {
			return d, nil
		}
	}
	return MapDecl{}, fmt.Errorf("compiler: undeclared map %q", name)
}
