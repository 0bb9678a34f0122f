package compiler

import (
	"slices"
	"testing"

	"kimbap/internal/algorithms"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Additional compiler coverage: guarded trans reads, chained trans reads,
// MIS plan structure, and end-to-end runs of hand-built programs.

func TestRequestOpKeepsGuardingIf(t *testing.T) {
	// A trans read inside an If must produce a request op whose Request
	// is guarded by the same condition (requests are conditional).
	prog := &Program{
		Name: "guarded",
		Maps: []MapDecl{{Name: "m", Kind: MinMap, InitToID: true}},
		Loops: []Loop{{
			Quiesce: "m",
			Body: []Stmt{
				Read{Dst: "a", Map: "m", Key: Active{}},
				If{Cond: Cond{Op: Gt, L: Var{"a"}, R: Const{10}}, Then: []Stmt{
					Read{Dst: "b", Map: "m", Key: Var{"a"}}, // trans, guarded
					Reduce{Map: "m", Key: Active{}, Val: Var{"b"}},
				}},
			},
		}},
	}
	plan, err := Compile(prog, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	lp := plan.Loops[0]
	if len(lp.RequestOps) != 1 {
		t.Fatalf("request ops = %d, want 1", len(lp.RequestOps))
	}
	body := lp.RequestOps[0].Body
	// Expect: Read a; If a>10 { Request m[a] }.
	if len(body) != 2 {
		t.Fatalf("request body = %#v, want [Read; If]", body)
	}
	ifStmt, ok := body[1].(If)
	if !ok {
		t.Fatalf("second stmt = %#v, want guarding If", body[1])
	}
	if len(ifStmt.Then) != 1 {
		t.Fatalf("guarded body = %#v", ifStmt.Then)
	}
	if _, ok := ifStmt.Then[0].(Request); !ok {
		t.Fatalf("guarded stmt = %#v, want Request", ifStmt.Then[0])
	}
}

func TestRequestOpChainedTransReads(t *testing.T) {
	// Two chained trans reads: the second's request op must include a
	// copy of the first READ (not its request), served by the first
	// op's RequestSync — the paper's dominance-ordering rule.
	prog := &Program{
		Name: "chain",
		Maps: []MapDecl{{Name: "m", Kind: MinMap, InitToID: true}},
		Loops: []Loop{{
			Quiesce: "m",
			Body: []Stmt{
				Read{Dst: "a", Map: "m", Key: Active{}},
				Read{Dst: "b", Map: "m", Key: Var{"a"}}, // trans 1
				Read{Dst: "c", Map: "m", Key: Var{"b"}}, // trans 2, depends on 1
				If{Cond: Cond{Op: Ne, L: Var{"c"}, R: Active{}}, Then: []Stmt{
					Reduce{Map: "m", Key: Active{}, Val: Var{"c"}},
				}},
			},
		}},
	}
	plan, err := Compile(prog, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	lp := plan.Loops[0]
	if len(lp.RequestOps) != 2 {
		t.Fatalf("request ops = %d, want 2 (one per trans read)", len(lp.RequestOps))
	}
	// Second op must contain the Read of b before Request m[b].
	second := lp.RequestOps[1].Body
	sawReadB := false
	for _, s := range second {
		if rd, ok := s.(Read); ok && rd.Dst == "b" {
			sawReadB = true
		}
		if rq, ok := s.(Request); ok {
			if v, ok := rq.Key.(Var); !ok || v.Name != "b" {
				t.Fatalf("second request key = %#v, want Var b", rq.Key)
			}
			if !sawReadB {
				t.Fatal("Request m[b] emitted before the Read of b")
			}
		}
	}
	if !sawReadB {
		t.Fatalf("second request op lacks the dominating Read of b: %#v", second)
	}

	// End to end: the program must at least run to quiescence without
	// missing-request panics on a multi-host cluster (the chained reads
	// exercise two request phases per round).
	g := gen.Chain(40, false, 1)
	got := runCompiled(t, prog, g, 2, partition.OEC, true, npm.Full, "m")
	if len(got) != g.NumNodes() {
		t.Fatal("missing results")
	}
}

func TestCompileMISPlanStructure(t *testing.T) {
	plan, err := Compile(MISProgram(), Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	lp := plan.Loops[0]
	if !lp.MastersOnly {
		t.Error("MIS must honor the programmer's masters-only iterator")
	}
	if len(lp.RequestOps) != 0 {
		t.Errorf("MIS is adjacent-vertex: %d request ops, want 0", len(lp.RequestOps))
	}
	// Both maps are read via self/adjacent keys: both pinned.
	if len(lp.PinMaps) != 2 {
		t.Errorf("PinMaps = %v, want prio and state", lp.PinMaps)
	}
	// Only state is reduced, so only state broadcasts.
	if len(lp.BroadcastMaps) != 1 || lp.BroadcastMaps[0] != "state" {
		t.Errorf("BroadcastMaps = %v, want [state]", lp.BroadcastMaps)
	}
}

func TestCompileMISNoOptStillMastersOnly(t *testing.T) {
	plan, err := Compile(MISProgram(), Options{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Loops[0].MastersOnly {
		t.Error("NO-OPT must still honor the programmer-specified iterator")
	}
	if len(plan.Loops[0].PinMaps) != 0 {
		t.Error("NO-OPT must not pin mirrors")
	}
}

func TestCompileRejectsUnassignedVariable(t *testing.T) {
	prog := &Program{
		Name: "bad-var",
		Maps: []MapDecl{{Name: "m", Kind: MinMap, InitToID: true}},
		Loops: []Loop{{
			Quiesce: "m",
			Body: []Stmt{
				Reduce{Map: "m", Key: Active{}, Val: Var{"never_set"}},
			},
		}},
	}
	if _, err := Compile(prog, Options{Optimize: true}); err == nil {
		t.Fatal("expected validation error for unassigned variable")
	}
}

// The executor still guards against unassigned variables at run time for
// hand-built plans that bypass Compile.
func TestExecUnassignedVariablePanics(t *testing.T) {
	prog := &Program{
		Name:  "bad-var",
		Maps:  []MapDecl{{Name: "m", Kind: MinMap, InitToID: true}},
		Loops: []Loop{{Quiesce: "m"}},
	}
	plan := &Plan{
		Program: prog,
		Loops: []*LoopPlan{{
			Quiesce:    "m",
			Compute:    []Stmt{Reduce{Map: "m", Key: Active{}, Val: Var{"never_set"}}},
			ReduceMaps: []string{"m"},
		}},
	}
	g := gen.Grid(3, 3, false, 1)
	c, err := runtime.NewCluster(g, runtime.Config{NumHosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unassigned variable")
		}
	}()
	c.Run(func(h *runtime.Host) {
		NewExec(h, plan, ExecConfig{}).Run()
	})
}

func TestCompiledMISMatchesHandWritten(t *testing.T) {
	// The compiled MIS and the hand-written algorithm rank nodes by the
	// same rule (graph.MISPriority), and priority-ordered greedy MIS is
	// unique for a given order, so they must select identical sets.
	graphs := map[string]*graph.Graph{
		"grid": gen.Grid(7, 7, false, 1),
		"rmat": gen.RMAT(8, 6, false, 2),
	}
	for name, g := range graphs {
		const hosts = 2
		states := runCompiled(t, MISProgram(), g, hosts, partition.OEC, true, npm.Full, "state")
		set := make([]bool, g.NumNodes())
		for i, s := range states {
			set[i] = s == MISIn
		}
		if !graph.IsValidMIS(g, set) {
			t.Fatalf("%s: compiled MIS invalid", name)
		}
		c, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: 3, Policy: partition.OEC})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]bool, g.NumNodes())
		c.Run(func(h *runtime.Host) { algorithms.MIS(h, algorithms.Config{}, want) })
		c.Close()
		if !slices.Equal(set, want) {
			t.Fatalf("%s: compiled MIS differs from the hand-written set", name)
		}
	}
}
