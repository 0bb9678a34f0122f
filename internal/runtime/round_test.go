package runtime

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"kimbap/internal/graph"
)

// traceMap is a SyncMap that records the driver's calls. It reports an
// update for its first updates rounds.
type traceMap struct {
	mu       sync.Mutex
	calls    []string
	requests int
	updates  int
}

func (m *traceMap) log(s string) {
	m.mu.Lock()
	m.calls = append(m.calls, s)
	m.mu.Unlock()
}

func (m *traceMap) Request(graph.NodeID) {
	m.mu.Lock()
	m.requests++
	m.mu.Unlock()
}
func (m *traceMap) RequestSync()   { m.log("request") }
func (m *traceMap) ReduceSync()    { m.log("reduce") }
func (m *traceMap) BroadcastSync() { m.log("broadcast") }
func (m *traceMap) ResetUpdated()  { m.log("reset") }
func (m *traceMap) IsUpdated() bool {
	m.log("updated")
	m.updates--
	return m.updates >= 0
}

// TestLoopRun pins the round skeleton: per round the reset, each phase's
// reads, visit and syncs in order, then the quiescence test; the frontier
// set before Run is round one's, each round's activations are the next
// one's, ActiveMasters visits only its masters, and the cap reports a
// cut-off run as not converged.
func TestLoopRun(t *testing.T) {
	c := newTestCluster(t, 2)
	defer c.Close()
	for _, tc := range []struct{ max, rounds int }{{0, 3}, {2, 2}} {
		t.Run(fmt.Sprintf("max=%d", tc.max), func(t *testing.T) {
			c.Run(func(h *Host) {
				m := &traceMap{updates: 2}
				fr := NewFrontier(h.HP.NumLocal())
				fr.ActivateAll()
				var log RoundStats
				var mu sync.Mutex
				var visits [][]graph.NodeID // per round, phase one's masters
				var before int
				loop := Loop{Host: h, Frontier: fr, Quiesce: m, MaxRounds: tc.max,
					Log: NewRoundLog(h, &log), Hook: true,
					Phases: []Phase{
						{Reads: []SyncMap{m}, Before: func() {
							before++
							visits = append(visits, nil)
						}, Visit: ActiveMasters, Body: func(_ int, n graph.NodeID) {
							mu.Lock()
							visits[len(visits)-1] = append(visits[len(visits)-1], n)
							mu.Unlock()
						}, Request: []SyncMap{m}},
						// Each round keeps the upper half of what it visits.
						{Body: func(_ int, n graph.NodeID) {
							if 2*int(n) >= fr.Size() {
								fr.Activate(int(n))
							}
						}, Reduce: []SyncMap{m}, Broadcast: []SyncMap{m}},
					}}
				rounds, converged := loop.Run()
				if rounds != tc.rounds || converged != (tc.max == 0) {
					t.Errorf("host %d: Run = %d, %v; want %d, %v", h.Rank, rounds, converged, tc.rounds, tc.max == 0)
				}
				var want []string
				for r := 0; r < rounds; r++ {
					want = append(want, "reset", "request", "request", "reduce", "broadcast", "updated")
				}
				if !slices.Equal(m.calls, want) || m.requests != rounds*h.HP.NumLocal() || before != rounds {
					t.Errorf("host %d: calls %v with %d requests, %d Before runs; want %v, %d, %d",
						h.Rank, m.calls, m.requests, before, want, rounds*h.HP.NumLocal(), rounds)
				}
				half := h.HP.NumLocal() - h.HP.NumLocal()/2
				for r, got := range visits {
					slices.Sort(got)
					lo := 0
					if r > 0 {
						lo = h.HP.NumLocal() / 2
					}
					var exp []graph.NodeID
					for n := lo; n < h.HP.NumMasters; n++ {
						exp = append(exp, graph.NodeID(n))
					}
					if !slices.Equal(got, exp) {
						t.Errorf("host %d round %d: visited masters %v, want %v", h.Rank, r, got, exp)
					}
				}
				wantActive := []int64{int64(h.HP.NumLocal())}
				for len(wantActive) < rounds {
					wantActive = append(wantActive, int64(half))
				}
				if !slices.Equal(log.Active, wantActive) || len(log.Hook) != rounds || !log.Hook[0] {
					t.Errorf("host %d: logged %v %v, want active %v, hook rounds", h.Rank, log.Active, log.Hook, wantActive)
				}
			})
		})
	}
}
