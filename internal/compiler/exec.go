package compiler

import (
	"fmt"

	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// ExecConfig selects the node-property map backend for compiled programs.
type ExecConfig struct {
	Variant npm.Variant
	Store   npm.MCStore
	// MaxRoundsPerLoop caps each KimbapWhile loop's BSP rounds (0 = run
	// to quiescence). Benchmarks use it to bound configurations the paper
	// reports as timing out (Figure 12's NO-OPT runs) and extrapolate
	// from the per-round cost.
	MaxRoundsPerLoop int
}

// Exec runs a compiled Plan on one host (SPMD): it instantiates the
// declared property maps, initializes them, lowers every operator to a
// slot-indexed instruction tree, and executes the plan's BSP phase
// sequence. Programs with a Flag statement repeat the whole loop sequence
// until no flag is raised (the Figure 4 outer do-while).
type Exec struct {
	h     *runtime.Host
	plan  *Plan
	maps  map[string]npm.Map[graph.NodeID]
	loops []execLoop
	work  runtime.BoolReducer
	// requestActive marks backends without GAR, which must request even
	// active-node properties (see LoopPlan.ReadMaps).
	requestActive bool
	maxRounds     int
	rounds        int64
	// scratch[tid] holds one operator application's variable slots.
	scratch [][]graph.NodeID
}

type execLoop struct {
	lp         *LoopPlan
	requestOps []loweredReq
	compute    []lStmt
}

type loweredReq struct {
	body []lStmt
	m    npm.Map[graph.NodeID]
}

// NewExec instantiates and initializes the program's maps on this host and
// lowers all operators. It panics on malformed hand-built plans (Compile
// validates programs before they get here).
func NewExec(h *runtime.Host, plan *Plan, cfg ExecConfig) *Exec {
	e := &Exec{
		h: h, plan: plan, maps: map[string]npm.Map[graph.NodeID]{},
		requestActive: cfg.Variant != npm.Full && cfg.Variant != "",
		maxRounds:     cfg.MaxRoundsPerLoop,
	}
	for _, d := range plan.Program.Maps {
		var op npm.ReduceOp[graph.NodeID]
		switch d.Kind {
		case MinMap:
			op = npm.MinNodeID()
		case MaxMap:
			op = npm.MaxNodeID()
		case OverwriteMap:
			op = npm.Overwrite[graph.NodeID]()
		default:
			panic(fmt.Sprintf("compiler: unknown map kind %q", d.Kind))
		}
		m := npm.New(npm.Options[graph.NodeID]{
			Host: h, Op: op, Codec: npm.NodeIDCodec{},
			Variant: cfg.Variant, Store: cfg.Store,
		})
		if d.InitDegreePrio {
			n := uint64(h.HP.NumGlobalNodes())
			local := h.HP.Local
			h.ParForMasters(func(_ int, l graph.NodeID) {
				gid := h.HP.GlobalID(l)
				prio := graph.MISPriority(uint64(local.Degree(l)), uint64(h.HP.OriginalID(gid)), n)
				if prio > 1<<32-1 {
					panic("compiler: degree priority overflows 32 bits at this scale")
				}
				m.Set(gid, graph.NodeID(prio))
			})
		} else {
			h.ParForNodes(func(_ int, local graph.NodeID) {
				gid := h.HP.GlobalID(local)
				if d.InitToID {
					m.Set(gid, gid)
				} else {
					m.Set(gid, graph.NodeID(d.InitConst))
				}
			})
		}
		m.InitSync()
		e.maps[d.Name] = m
	}

	maxSlots := 0
	for _, lp := range plan.Loops {
		st := newSlotTable()
		el := execLoop{lp: lp}
		for _, op := range lp.RequestOps {
			body, err := lowerOp(op.Body, e.maps, st)
			if err != nil {
				panic(err)
			}
			el.requestOps = append(el.requestOps, loweredReq{body: body, m: e.maps[op.Map]})
		}
		body, err := lowerOp(lp.Compute, e.maps, st)
		if err != nil {
			panic(err)
		}
		el.compute = body
		e.loops = append(e.loops, el)
		if st.size() > maxSlots {
			maxSlots = st.size()
		}
	}
	e.scratch = make([][]graph.NodeID, h.Threads)
	for t := range e.scratch {
		e.scratch[t] = make([]graph.NodeID, maxSlots)
	}
	return e
}

// Map exposes a program map for result extraction.
func (e *Exec) Map(name string) npm.Map[graph.NodeID] { return e.maps[name] }

// Rounds returns the total BSP rounds executed across all loops.
func (e *Exec) Rounds() int64 { return e.rounds }

// Run executes the program to quiescence. Collective: every host calls it.
func (e *Exec) Run() {
	hasFlag := programHasFlag(e.plan.Program)
	for {
		e.work.Set(false)
		for i := range e.loops {
			e.runLoop(&e.loops[i])
		}
		if !hasFlag {
			return
		}
		e.work.Sync(e.h.EP)
		if !e.work.Read() {
			return
		}
	}
}

func programHasFlag(p *Program) bool {
	found := false
	var walk func([]Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case Flag:
				found = true
			case If:
				walk(st.Then)
			case ForEdges:
				walk(st.Body)
			}
		}
	}
	for _, l := range p.Loops {
		walk(l.Body)
	}
	return found
}

func (e *Exec) runLoop(el *execLoop) {
	lp := el.lp
	for _, m := range lp.PinMaps {
		e.maps[m].PinMirrors()
	}
	quiesce := e.maps[lp.Quiesce]
	for loopRounds := 0; ; loopRounds++ {
		if e.maxRounds > 0 && loopRounds >= e.maxRounds {
			break
		}
		e.rounds++
		quiesce.ResetUpdated()
		if e.requestActive {
			for _, name := range lp.ReadMaps {
				m := e.maps[name]
				e.h.ParForNodes(func(_ int, local graph.NodeID) {
					m.Request(e.h.HP.GlobalID(local))
				})
				m.RequestSync()
			}
		}
		for _, op := range el.requestOps {
			e.runOperator(op.body, lp.MastersOnly)
			op.m.RequestSync()
		}
		e.h.TimeCompute(func() {
			e.runOperator(el.compute, lp.MastersOnly)
		})
		for _, m := range lp.ReduceMaps {
			e.maps[m].ReduceSync()
		}
		for _, m := range lp.BroadcastMaps {
			e.maps[m].BroadcastSync()
		}
		if !quiesce.IsUpdated() {
			break
		}
	}
	for _, m := range lp.PinMaps {
		e.maps[m].UnpinMirrors()
	}
}

// frame is one operator application's state.
type frame struct {
	slots  []graph.NodeID
	active graph.NodeID // global ID of the active node
	dst    graph.NodeID // global ID of the current edge destination
	local  graph.NodeID // local ID of the active node
	tid    int
}

func (e *Exec) runOperator(body []lStmt, mastersOnly bool) {
	run := func(tid int, local graph.NodeID) {
		f := frame{
			slots:  e.scratch[tid],
			active: e.h.HP.GlobalID(local),
			local:  local,
			tid:    tid,
		}
		e.execStmts(body, &f)
	}
	if mastersOnly {
		e.h.ParForMasters(run)
	} else {
		e.h.ParForNodes(run)
	}
}

func (e *Exec) execStmts(stmts []lStmt, f *frame) {
	for _, s := range stmts {
		switch st := s.(type) {
		case lRead:
			f.slots[st.dst] = st.m.Read(f.eval(st.key))
		case lRequest:
			st.m.Request(f.eval(st.key))
		case lReduce:
			st.m.Reduce(f.tid, f.eval(st.key), f.eval(st.val))
		case lAssign:
			f.slots[st.dst] = f.eval(st.val)
		case lFlag:
			e.work.Reduce(true)
		case lIf:
			if f.compare(st.op, st.l, st.r) {
				e.execStmts(st.then, f)
			}
		case lForEdges:
			local := e.h.HP.Local
			lo, hi := local.EdgeRange(f.local)
			for edge := lo; edge < hi; edge++ {
				f.dst = e.h.HP.GlobalID(local.Dst(edge))
				e.execStmts(st.body, f)
			}
		default:
			panic(fmt.Sprintf("compiler: unknown lowered statement %T", s))
		}
	}
}

func (f *frame) eval(x slotExpr) graph.NodeID {
	switch x.kind {
	case exActive:
		return f.active
	case exDst:
		return f.dst
	case exConst:
		return x.value
	default:
		return f.slots[x.slot]
	}
}

func (f *frame) compare(op CmpOp, l, r slotExpr) bool {
	a, b := f.eval(l), f.eval(r)
	switch op {
	case Lt:
		return a < b
	case Gt:
		return a > b
	case Eq:
		return a == b
	case Ne:
		return a != b
	default:
		panic(fmt.Sprintf("compiler: unknown comparison %q", op))
	}
}
