package compiler

import (
	"fmt"
	"testing"

	"kimbap/internal/algorithms"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// --- CFG and dominance ---

func TestCFGStraightLine(t *testing.T) {
	body := []Stmt{
		Read{Dst: "a", Map: "m", Key: Active{}},
		Assign{Dst: "b", Val: Var{"a"}},
		Reduce{Map: "m", Key: Active{}, Val: Var{"b"}},
	}
	c := buildCFG(body)
	// entry + 3 stmts + exit
	if len(c.nodes) != 5 {
		t.Fatalf("node count = %d, want 5", len(c.nodes))
	}
	idom := c.dominators(false)
	// Each statement is dominated by its predecessor.
	for i := 1; i <= 3; i++ {
		if idom[i] != i-1 {
			t.Errorf("idom[%d] = %d, want %d", i, idom[i], i-1)
		}
	}
	ipdom := c.dominators(true)
	for i := 1; i <= 3; i++ {
		if ipdom[i] != i+1 {
			t.Errorf("ipdom[%d] = %d, want %d", i, ipdom[i], i+1)
		}
	}
}

func TestCFGIfBranch(t *testing.T) {
	body := []Stmt{
		Read{Dst: "a", Map: "m", Key: Active{}},
		If{Cond: Cond{Op: Lt, L: Var{"a"}, R: Const{5}}, Then: []Stmt{
			Reduce{Map: "m", Key: Active{}, Val: Const{0}},
		}},
		Assign{Dst: "b", Val: Var{"a"}},
	}
	c := buildCFG(body)
	idom := c.dominators(false)
	// Nodes: 0 entry, 1 read, 2 if, 3 reduce (then), 4 assign, 5 exit.
	if idom[3] != 2 {
		t.Errorf("then-branch idom = %d, want the if header 2", idom[3])
	}
	if idom[4] != 2 {
		t.Errorf("join idom = %d, want the if header 2", idom[4])
	}
	if !dominates(idom, 1, 4) {
		t.Error("read should dominate the join")
	}
	if dominates(idom, 3, 4) {
		t.Error("branch body must not dominate the join")
	}
	// Post-dominance: the join post-dominates the if header; the branch
	// body does not.
	ipdom := c.dominators(true)
	if !dominates(ipdom, 4, 2) {
		t.Error("join should post-dominate the if header")
	}
	if dominates(ipdom, 3, 2) {
		t.Error("branch body must not post-dominate the header")
	}
}

func TestCFGForEdgesLoop(t *testing.T) {
	body := []Stmt{
		ForEdges{Body: []Stmt{
			Read{Dst: "d", Map: "m", Key: EdgeDst{}},
		}},
		Assign{Dst: "x", Val: Const{1}},
	}
	c := buildCFG(body)
	idom := c.dominators(false)
	// Nodes: 0 entry, 1 foredges, 2 read, 3 assign, 4 exit.
	if idom[2] != 1 {
		t.Errorf("loop body idom = %d, want loop header", idom[2])
	}
	if idom[3] != 1 {
		t.Errorf("loop exit idom = %d, want loop header", idom[3])
	}
	// The back edge makes the header its own successor region; the body
	// must not dominate the statement after the loop.
	if dominates(idom, 2, 3) {
		t.Error("loop body must not dominate post-loop statement")
	}
}

func TestDomPath(t *testing.T) {
	body := []Stmt{
		Read{Dst: "a", Map: "m", Key: Active{}},
		Read{Dst: "b", Map: "m", Key: Var{"a"}},
	}
	c := buildCFG(body)
	idom := c.dominators(false)
	path := domPath(idom, c.entry, 2)
	want := []int{0, 1, 2}
	if len(path) != 3 {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

// --- Compilation structure (Figure 4 -> Figure 8) ---

func TestCompileCCSVMatchesFigure8(t *testing.T) {
	plan, err := Compile(CCSVProgram(), Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(plan.Loops))
	}
	hook, shortcut := plan.Loops[0], plan.Loops[1]

	// Hook (Figure 8 lines 1-22): mirrors pinned, no requests, broadcast
	// after reduce, all proxies iterated.
	if len(hook.PinMaps) != 1 || hook.PinMaps[0] != "parent" {
		t.Errorf("hook PinMaps = %v, want [parent]", hook.PinMaps)
	}
	if len(hook.RequestOps) != 0 {
		t.Errorf("hook has %d request ops, want 0 (adjacent elision)", len(hook.RequestOps))
	}
	if hook.MastersOnly {
		t.Error("hook iterates all proxies (it accesses edges)")
	}
	if len(hook.BroadcastMaps) != 1 || hook.BroadcastMaps[0] != "parent" {
		t.Errorf("hook BroadcastMaps = %v, want [parent]", hook.BroadcastMaps)
	}

	// Shortcut (Figure 8 lines 24-41): masters only, exactly one request
	// op — read own parent, request the grandparent — and no pinning.
	if !shortcut.MastersOnly {
		t.Error("shortcut should iterate masters only (no edge access)")
	}
	if len(shortcut.PinMaps) != 0 {
		t.Errorf("shortcut PinMaps = %v, want none", shortcut.PinMaps)
	}
	if len(shortcut.RequestOps) != 1 {
		t.Fatalf("shortcut request ops = %d, want 1 (self-request elided)",
			len(shortcut.RequestOps))
	}
	op := shortcut.RequestOps[0]
	if len(op.Body) != 2 {
		t.Fatalf("request op body = %d stmts, want [Read p; Request parent[p]]", len(op.Body))
	}
	if rd, ok := op.Body[0].(Read); !ok || rd.Dst != "p" {
		t.Errorf("request op first stmt = %#v, want Read p", op.Body[0])
	}
	req, ok := op.Body[1].(Request)
	if !ok || req.Map != "parent" {
		t.Fatalf("request op second stmt = %#v, want Request(parent)", op.Body[1])
	}
	if v, ok := req.Key.(Var); !ok || v.Name != "p" {
		t.Errorf("request key = %#v, want Var p", req.Key)
	}
}

func TestCompileCCLPOptimized(t *testing.T) {
	plan, err := Compile(CCLPProgram(), Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	lp := plan.Loops[0]
	if len(lp.RequestOps) != 0 {
		t.Errorf("CC-LP OPT request ops = %d, want 0", len(lp.RequestOps))
	}
	if len(lp.PinMaps) != 1 || lp.PinMaps[0] != "comp" {
		t.Errorf("CC-LP PinMaps = %v", lp.PinMaps)
	}
}

func TestCompileNoOptGeneratesRequests(t *testing.T) {
	plan, err := Compile(CCLPProgram(), Options{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	lp := plan.Loops[0]
	if len(lp.PinMaps) != 0 {
		t.Errorf("NO-OPT must not pin mirrors, got %v", lp.PinMaps)
	}
	// Both reads (self and adjacent) must be requested.
	if len(lp.RequestOps) != 2 {
		t.Fatalf("NO-OPT request ops = %d, want 2", len(lp.RequestOps))
	}
	// The adjacent read's request op must be wrapped in the edge loop.
	second := lp.RequestOps[1]
	foundLoop := false
	for _, s := range second.Body {
		if fe, ok := s.(ForEdges); ok {
			foundLoop = true
			if len(fe.Body) == 0 {
				t.Error("edge-loop request op has empty body")
			}
		}
	}
	if !foundLoop {
		t.Errorf("adjacent request op missing ForEdges wrapper: %#v", second.Body)
	}
}

func TestCompileRejectsUndeclaredMap(t *testing.T) {
	p := &Program{
		Name: "bad",
		Maps: []MapDecl{{Name: "a", Kind: MinMap}},
		Loops: []Loop{{Quiesce: "a", Body: []Stmt{
			Read{Dst: "x", Map: "nope", Key: Active{}},
		}}},
	}
	if _, err := Compile(p, Options{Optimize: true}); err == nil {
		t.Fatal("expected error for undeclared map")
	}
}

// --- End-to-end execution ---

// runCompiled executes a compiled program and returns the global values of
// one map, assembled from each host's masters.
func runCompiled(t *testing.T, prog *Program, g *graph.Graph, hosts int,
	pol partition.Policy, optimize bool, variant npm.Variant, resultMap string) []graph.NodeID {
	t.Helper()
	plan, err := Compile(prog, Options{Optimize: optimize})
	if err != nil {
		t.Fatal(err)
	}
	c, err := runtime.NewCluster(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: 3, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var store npm.MCStore
	if variant == npm.MC {
		store = kvstore.NewCluster(hosts, hosts)
	}
	out := make([]graph.NodeID, g.NumNodes())
	c.Run(func(h *runtime.Host) {
		e := NewExec(h, plan, ExecConfig{Variant: variant, Store: store})
		e.Run()
		m := e.Map(resultMap)
		lo, hi := h.HP.MasterRangeGlobal()
		for n := lo; n < hi; n++ {
			m.Request(n)
		}
		m.RequestSync()
		for n := lo; n < hi; n++ {
			out[n] = m.Read(n)
		}
	})
	return out
}

func TestCompiledCCMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": gen.Grid(8, 8, false, 1),
		"rmat": gen.RMAT(7, 5, false, 2),
	}
	for gname, g := range graphs {
		want := graph.ReferenceComponents(g)
		for _, opt := range []bool{true, false} {
			for _, hosts := range []int{1, 3} {
				for name, prog := range map[string]*Program{
					"cc-sv": CCSVProgram(), "cc-lp": CCLPProgram(),
				} {
					got := runCompiled(t, prog, g, hosts, partition.OEC, opt, npm.Full,
						map[string]string{"cc-sv": "parent", "cc-lp": "comp"}[name])
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%s opt=%v hosts=%d: node %d = %d, want %d",
								gname, name, opt, hosts, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	// Compiled and hand-written CC-LP run on the same round driver, so
	// they must take the same rounds at every host count.
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		rounds int64
	}{
		{"grid16", gen.Grid(16, 16, false, 1), 31},
		{"rmat9", gen.RMAT(9, 6, false, 2), 4},
	} {
		for _, hosts := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("cc-lp-rounds/%s/%dh", tc.name, hosts), func(t *testing.T) {
				rounds, converged, hand := runCompiledCCLP(t, tc.g, hosts, 0)
				if rounds != tc.rounds || int64(hand) != tc.rounds || !converged {
					t.Errorf("compiled %d rounds (converged %v), hand-written %d, want %d converged",
						rounds, converged, hand, tc.rounds)
				}
			})
		}
	}
}

// runCompiledCCLP runs compiled CC-LP on g over hosts × 2 threads under
// OEC with a per-loop round cap (0: none) and returns host 0's round count
// and convergence, and hand-written CC-LP's round count on the same
// cluster.
func runCompiledCCLP(t *testing.T, g *graph.Graph, hosts, maxRounds int) (rounds int64, converged bool, hand int) {
	t.Helper()
	plan, err := Compile(CCLPProgram(), Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 2, Policy: partition.OEC})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(func(h *runtime.Host) {
		e := NewExec(h, plan, ExecConfig{MaxRoundsPerLoop: maxRounds})
		e.Run()
		if h.Rank == 0 {
			rounds, converged = e.Rounds(), e.Converged()
		}
	})
	out := make([]graph.NodeID, g.NumNodes())
	c.Run(func(h *runtime.Host) {
		if st := algorithms.CCLP(h, algorithms.Config{}, out); h.Rank == 0 {
			hand = st.HookRounds
		}
	})
	return rounds, converged, hand
}

// TestCompiledConvergedReportsCutoff: a compiled loop stopped by
// MaxRoundsPerLoop must not report convergence.
func TestCompiledConvergedReportsCutoff(t *testing.T) {
	g := gen.Chain(64, false, 1)
	if rounds, converged, _ := runCompiledCCLP(t, g, 2, 0); !converged || rounds != 64 {
		t.Errorf("uncapped: %d rounds, converged %v; want 64, true", rounds, converged)
	}
	if rounds, converged, _ := runCompiledCCLP(t, g, 2, 8); converged || rounds != 8 {
		t.Errorf("capped at 8: %d rounds, converged %v; want 8, false", rounds, converged)
	}
}

func TestCompiledCCSVOnCVC(t *testing.T) {
	// The trans-vertex program must also work under a vertex cut.
	g := gen.RMAT(7, 5, false, 3)
	want := graph.ReferenceComponents(g)
	got := runCompiled(t, CCSVProgram(), g, 4, partition.CVC, true, npm.Full, "parent")
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCompiledMISValid(t *testing.T) {
	for _, opt := range []bool{true, false} {
		for _, hosts := range []int{1, 3} {
			g := gen.Grid(8, 8, false, 1)
			states := runCompiled(t, MISProgram(), g, hosts, partition.OEC, opt, npm.Full, "state")
			set := make([]bool, g.NumNodes())
			for i, s := range states {
				if s == MISUndecided {
					t.Fatalf("opt=%v hosts=%d: node %d undecided", opt, hosts, i)
				}
				set[i] = s == MISIn
			}
			if !graph.IsValidMIS(g, set) {
				t.Fatalf("opt=%v hosts=%d: invalid MIS", opt, hosts)
			}
		}
	}
}

func TestCompiledCCSVAllVariants(t *testing.T) {
	g := gen.Grid(6, 6, false, 1)
	want := graph.ReferenceComponents(g)
	for _, v := range npm.Variants {
		got := runCompiled(t, CCSVProgram(), g, 2, partition.OEC, true, v, "parent")
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("variant %s: node %d = %d, want %d", v, i, got[i], want[i])
			}
		}
	}
}

func TestNoOptSendsMoreTraffic(t *testing.T) {
	g := gen.Grid(8, 8, false, 1)
	volume := func(optimize bool) int64 {
		plan, err := Compile(CCLPProgram(), Options{Optimize: optimize})
		if err != nil {
			t.Fatal(err)
		}
		c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 3, Policy: partition.OEC})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Run(func(h *runtime.Host) {
			e := NewExec(h, plan, ExecConfig{})
			e.Run()
		})
		_, bytes := c.CommStats()
		return bytes
	}
	opt, noopt := volume(true), volume(false)
	if noopt <= opt {
		t.Fatalf("NO-OPT bytes (%d) should exceed OPT bytes (%d)", noopt, opt)
	}
}
