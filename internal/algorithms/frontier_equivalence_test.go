package algorithms

import (
	"fmt"
	"math"
	"testing"

	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Dense-vs-frontier equivalence: frontier-driven execution changes which
// vertices a round visits and how reduce payloads are encoded (sparse
// sections), so CC, MIS, and MSF must produce bit-identical outputs with the
// frontier on and off, for every {local, TCP} × {2, 4, 8} host combination. MSF's forest weight is a float sum whose
// per-thread addition order varies, so it only agrees to round-off; labels,
// set membership, and edge counts match exactly.

func frontierConfigs() []runtime.Config {
	var out []runtime.Config
	for _, hosts := range []int{2, 4, 8} {
		for _, tcp := range []bool{false, true} {
			out = append(out, runtime.Config{
				NumHosts: hosts, ThreadsPerHost: 2, UseTCP: tcp, Policy: partition.CVC,
			})
		}
	}
	return out
}

func TestFrontierEquivalence(t *testing.T) {
	g := gen.RMAT(7, 5, true, 7)
	n := g.NumNodes()
	type result struct {
		cc       []graph.NodeID
		mis      []bool
		misSize  int64
		msf      []graph.NodeID
		msfW     float64
		msfEdges int64
	}
	run := func(t *testing.T, cfg runtime.Config, dense bool) result {
		c, err := runtime.NewCluster(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res := result{
			cc:  make([]graph.NodeID, n),
			mis: make([]bool, n),
			msf: make([]graph.NodeID, n),
		}
		acfg := Config{dense: dense}
		c.Run(func(h *runtime.Host) {
			CCSV(h, acfg, res.cc)
			ms := MIS(h, acfg, res.mis)
			fs := MSF(h, acfg, res.msf)
			if h.Rank == 0 {
				res.misSize = ms.Size
				res.msfW = fs.TotalWeight
				res.msfEdges = fs.ForestEdges
			}
		})
		return res
	}
	ccWant := graph.ReferenceComponents(g)
	for _, cfg := range frontierConfigs() {
		transport := "local"
		if cfg.UseTCP {
			transport = "tcp"
		}
		t.Run(fmt.Sprintf("%s/%dh", transport, cfg.NumHosts), func(t *testing.T) {
			dense := run(t, cfg, true)
			sparse := run(t, cfg, false)
			for i := 0; i < n; i++ {
				if dense.cc[i] != ccWant[i] {
					t.Fatalf("dense CC label %d = %d, want reference %d", i, dense.cc[i], ccWant[i])
				}
				if sparse.cc[i] != dense.cc[i] {
					t.Fatalf("CC label %d: frontier %d != dense %d", i, sparse.cc[i], dense.cc[i])
				}
				if sparse.mis[i] != dense.mis[i] {
					t.Fatalf("MIS membership %d: frontier %v != dense %v", i, sparse.mis[i], dense.mis[i])
				}
				if sparse.msf[i] != dense.msf[i] {
					t.Fatalf("MSF label %d: frontier %d != dense %d", i, sparse.msf[i], dense.msf[i])
				}
			}
			if sparse.misSize != dense.misSize {
				t.Fatalf("MIS size: frontier %d != dense %d", sparse.misSize, dense.misSize)
			}
			if sparse.msfEdges != dense.msfEdges {
				t.Fatalf("MSF edges: frontier %d != dense %d", sparse.msfEdges, dense.msfEdges)
			}
			if math.Abs(sparse.msfW-dense.msfW) > 1e-9 {
				t.Fatalf("MSF weight: frontier %v != dense %v", sparse.msfW, dense.msfW)
			}
		})
	}
}

// Late-round traffic: CC-SV's hook reduce targets parent(parent(src)) — a
// node whose current value the sender cannot read locally — so the dense
// loop re-sends the same ineffective hook reduces round after round until
// the phase quiesces. The frontier run revisits only proxies whose parent
// changed, so its reduce-sync bytes in the late rounds of a hook phase must
// be strictly lower than the dense run's. This is the end-to-end guard on
// the whole sparse path: activation tracking, sparse sections, and
// empty-section skipping together.
//
// Only the first hook phase is compared: shortcut reduces always target the
// sending host's own masters (zero wire bytes either way), and later outer
// rounds are quiescence checks with no traffic in either mode. CVC scatters
// edges across hosts so hook targets are remote. Everything is
// deterministic — fixed seed, hashed partition, and order-independent
// section sizes — so exact byte comparisons are stable.
func TestFrontierLateRoundReduceBytesLower(t *testing.T) {
	g := gen.RMAT(10, 8, false, 5)
	const hosts = 4
	// Returns the summed per-round sent reduce bytes of the first hook
	// phase (the rounds before the first shortcut round).
	run := func(dense bool) []int64 {
		c, err := runtime.NewCluster(g, runtime.Config{
			NumHosts: hosts, ThreadsPerHost: 2, Policy: partition.CVC,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		perHost := make([]CCStats, hosts)
		out := make([]graph.NodeID, g.NumNodes())
		c.Run(func(h *runtime.Host) {
			perHost[h.Rank] = CCSV(h,
				Config{dense: dense, LogRounds: true}, out)
		})
		// Rounds are collective, so every host logs the same number; sum
		// each round's sent bytes across hosts.
		rounds := len(perHost[0].PerRound.ReduceBytes)
		total := make([]int64, rounds)
		for _, st := range perHost {
			if len(st.PerRound.ReduceBytes) != rounds {
				t.Fatalf("hosts disagree on round count: %d vs %d",
					len(st.PerRound.ReduceBytes), rounds)
			}
			for r, b := range st.PerRound.ReduceBytes {
				total[r] += b
			}
		}
		var phase1 []int64
		for r := 0; r < rounds && perHost[0].PerRound.Hook[r]; r++ {
			phase1 = append(phase1, total[r])
		}
		return phase1
	}
	dense := run(true)
	sparse := run(false)
	tail := func(b []int64) int64 {
		var s int64
		for _, v := range b[len(b)-max(1, len(b)/4):] {
			s += v
		}
		return s
	}
	if len(dense) < 3 {
		t.Fatalf("first hook phase ran only %d rounds; graph too small to observe sparsity", len(dense))
	}
	dTail, sTail := tail(dense), tail(sparse)
	if dTail == 0 {
		t.Fatal("dense late hook rounds sent no reduce bytes; test graph no longer exercises late traffic")
	}
	if sTail >= dTail {
		t.Fatalf("late-round reduce bytes not lower: frontier %d >= dense %d (phase rounds: dense %d, frontier %d)",
			sTail, dTail, len(dense), len(sparse))
	}
	t.Logf("late hook-round reduce bytes: dense %d, frontier %d (%.1fx lower)",
		dTail, sTail, float64(dTail)/float64(sTail))
}

// TestFrontierReduceSyncBytesGate gates the frontier's wire win: at 8 hosts
// a frontier-driven CC-SV run must move at most 60% of the dense run's
// reduce-sync bytes. The graph needs enough hook rounds for the dense
// loop's re-sent ineffective hooks to accumulate — a sparse random graph
// gives four-plus hook rounds per phase — and both runs are deterministic
// (fixed seed, hashed partition, order-independent section sizes), so
// the comparison is exact, not statistical.
func TestFrontierReduceSyncBytesGate(t *testing.T) {
	g := gen.ErdosRenyi(2048, 6144, false, 3)
	run := func(dense bool) int64 {
		cluster, err := runtime.NewCluster(g, runtime.Config{NumHosts: 8, ThreadsPerHost: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		out := make([]graph.NodeID, g.NumNodes())
		cluster.Run(func(h *runtime.Host) {
			CCSV(h, Config{dense: dense}, out)
		})
		_, tb := cluster.CommStatsByTag()
		return tb[comm.TagReduce]
	}
	dense := run(true)
	sparse := run(false)
	if dense == 0 {
		t.Fatal("dense CC run sent no reduce bytes; gate workload is broken")
	}
	if limit := dense * 60 / 100; sparse > limit {
		t.Errorf("frontier reduce-sync bytes = %d, above the 60%%-of-dense gate %d (dense = %d)",
			sparse, limit, dense)
	}
}
