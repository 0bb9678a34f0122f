package bench

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/baselines/galois"
	"kimbap/internal/baselines/gluon"
	"kimbap/internal/compiler"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Experiment names accepted by Run.
var Experiments = []string{
	"table1", "table2", "table3",
	"fig9", "fig10", "fig11", "fig12",
	"readlocality", "policies", "memory", "abstraction",
}

// Run executes one named experiment and writes its tables to w.
func Run(w io.Writer, name string, cfg Config) error {
	cfg = cfg.withDefaults()
	switch name {
	case "table1":
		cfg.Table1(w)
	case "table2":
		cfg.Table2(w)
	case "table3":
		cfg.Table3(w)
	case "fig9":
		cfg.Fig9(w)
	case "fig10":
		cfg.Fig10(w)
	case "fig11":
		cfg.Fig11(w)
	case "fig12":
		cfg.Fig12(w)
	case "readlocality":
		cfg.ReadLocality(w)
	case "policies":
		cfg.Policies(w)
	case "memory":
		cfg.Memory(w)
	case "abstraction":
		cfg.Abstraction(w)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments)
	}
	return nil
}

// Table1 prints the input graphs and their statistics, alongside the
// paper's originals for reference.
func (c Config) Table1(w io.Writer) {
	paper := map[gen.Preset][4]string{
		gen.RoadEurope: {"173M", "365M", "2", "16"},
		gen.Friendster: {"41M", "2B", "58", "3M"},
		gen.Clueweb12:  {"978M", "85B", "87", "7K"},
		gen.WDC12:      {"3B", "256B", "72", "95B"},
	}
	t := NewTable("Table 1: input graphs and statistics (generated analogues)",
		"graph", "|V|", "|E|", "|E|/|V|", "maxdeg", "diam~",
		"paper |V|", "paper |E|", "paper |E|/|V|", "paper maxdeg")
	for _, p := range gen.Presets {
		g := c.graphFor(p)
		s := g.ComputeStats()
		pp := paper[p]
		t.Row(string(p), s.Nodes, s.Edges, s.AvgDegree, s.MaxDegree,
			gen.ApproxDiameter(g), pp[0], pp[1], pp[2], pp[3])
	}
	t.Fprint(w)
}

// Table2 prints the operator classes used by each application.
func (c Config) Table2(w io.Writer) {
	t := NewTable("Table 2: operator types used in each application",
		"application", "adjacent-vertex", "trans-vertex")
	mark := func(b bool) string {
		if b {
			return "x"
		}
		return ""
	}
	for _, a := range algorithms.Table2 {
		t.Row(a.Name, mark(a.AdjacentVertex), mark(a.TransVertex))
	}
	t.Fprint(w)
}

// Table3 compares Galois (shared memory, 1 host) against Kimbap on 1 host
// and on the sweep's largest host count, for six applications on the two
// medium graphs.
func (c Config) Table3(w io.Writer) {
	maxHosts := c.mediumHosts()[len(c.mediumHosts())-1]
	t := NewTable(fmt.Sprintf("Table 3: Galois vs Kimbap (times in ms; %d threads)", c.Threads),
		"application", "input", "galois 1host", "kimbap 1host",
		fmt.Sprintf("kimbap %dhosts", maxHosts))
	for _, p := range []gen.Preset{gen.RoadEurope, gen.Friendster} {
		g := c.graphFor(p)

		gl := c.measure(func() Result {
			start := time.Now()
			galois.Louvain(g, c.Threads)
			return Result{Wall: time.Since(start)}
		})
		t.Row("LV", string(p), gl.Ms(),
			c.RunLV(g, 1, npm.Full, false).Ms(), c.RunLV(g, maxHosts, npm.Full, false).Ms())

		gl = c.measure(func() Result {
			start := time.Now()
			galois.Leiden(g, c.Threads)
			return Result{Wall: time.Since(start)}
		})
		t.Row("LD", string(p), gl.Ms(),
			c.RunLD(g, 1).Ms(), c.RunLD(g, maxHosts).Ms())

		gl = c.measure(func() Result {
			start := time.Now()
			galois.MSF(g, c.Threads)
			return Result{Wall: time.Since(start)}
		})
		t.Row("MSF", string(p), gl.Ms(),
			c.RunMSF(g, 1).Ms(), c.RunMSF(g, maxHosts).Ms())

		gl = c.measure(func() Result {
			start := time.Now()
			galois.CCLP(g, c.Threads)
			return Result{Wall: time.Since(start)}
		})
		t.Row("CC-LP", string(p), gl.Ms(),
			c.RunCC(g, 1, partition.CVC, algorithms.Config{}, algorithms.CCLP).Ms(),
			c.RunCC(g, maxHosts, partition.CVC, algorithms.Config{}, algorithms.CCLP).Ms())

		gl = c.measure(func() Result {
			start := time.Now()
			galois.CCSV(g, c.Threads)
			return Result{Wall: time.Since(start)}
		})
		t.Row("CC-SV", string(p), gl.Ms(),
			c.RunCC(g, 1, partition.CVC, algorithms.Config{}, algorithms.CCSV).Ms(),
			c.RunCC(g, maxHosts, partition.CVC, algorithms.Config{}, algorithms.CCSV).Ms())

		gl = c.measure(func() Result {
			start := time.Now()
			galois.MIS(g, c.Threads)
			return Result{Wall: time.Since(start)}
		})
		t.Row("MIS", string(p), gl.Ms(),
			c.RunMIS(g, 1).Ms(), c.RunMIS(g, maxHosts).Ms())
	}
	t.Fprint(w)
}

// Fig9 prints strong scaling on the medium graphs: (a) LV vs Vite, (b) LD,
// (c) the CC family vs Gluon, (d) MSF, (e) MIS.
func (c Config) Fig9(w io.Writer) {
	c.scalingFigure(w, "Figure 9", []gen.Preset{gen.RoadEurope, gen.Friendster},
		c.mediumHosts())
}

// Fig10 prints strong scaling on the large graphs (host counts scaled down
// from the paper's 32-256). As in the paper, Figure 10b (Leiden) covers
// only clueweb12 — LD ran out of memory on wdc12 there, and is likewise
// out of reach at this substrate's largest preset.
func (c Config) Fig10(w io.Writer) {
	c.scalingFigureLD(w, "Figure 10", []gen.Preset{gen.Clueweb12, gen.WDC12},
		[]gen.Preset{gen.Clueweb12}, c.largeHosts())
}

func (c Config) scalingFigure(w io.Writer, title string, presets []gen.Preset, hosts []int) {
	c.scalingFigureLD(w, title, presets, presets, hosts)
}

// scalingFigureLD is scalingFigure with a separate preset list for the
// Leiden panel.
func (c Config) scalingFigureLD(w io.Writer, title string,
	presets, ldPresets []gen.Preset, hosts []int) {
	header := []string{"series", "graph"}
	for _, h := range hosts {
		header = append(header, fmt.Sprintf("%dh (ms)", h))
	}

	sub := func(letter, what string) *Table {
		return NewTable(fmt.Sprintf("%s%s: strong scaling, %s", title, letter, what), header...)
	}

	ta := sub("a", "Louvain (LV)")
	tb := sub("b", "Leiden (LD)")
	tc := sub("c", "connected components (CC)")
	td := sub("d", "minimum spanning forest (MSF)")
	te := sub("e", "maximal independent sets (MIS)")

	for _, p := range presets {
		g := c.graphFor(p)
		row := func(t *Table, series string, f func(h int) Result) {
			cells := []any{series, string(p)}
			for _, h := range hosts {
				cells = append(cells, f(h).Ms())
			}
			t.Row(cells...)
		}
		row(ta, "Vite", func(h int) Result { return c.RunLV(g, h, npm.Vite, true) })
		row(ta, "Kimbap", func(h int) Result { return c.RunLV(g, h, npm.Full, false) })
		for _, lp := range ldPresets {
			if lp == p {
				row(tb, "Kimbap", func(h int) Result { return c.RunLD(g, h) })
			}
		}
		row(tc, "Gluon-LP", func(h int) Result {
			return c.measure(func() Result {
				start := time.Now()
				_, _, err := gluon.CCLP(g, runtime.Config{
					NumHosts: h, ThreadsPerHost: c.Threads, Policy: partition.CVC,
				})
				if err != nil {
					panic(err)
				}
				return Result{Wall: time.Since(start)}
			})
		})
		for _, a := range ccAlgos() {
			a := a
			row(tc, a.name, func(h int) Result {
				return c.RunCC(g, h, a.pol, algorithms.Config{}, a.run)
			})
		}
		row(td, "Kimbap", func(h int) Result { return c.RunMSF(g, h) })
		row(te, "Kimbap", func(h int) Result { return c.RunMIS(g, h) })
	}
	for _, t := range []*Table{ta, tb, tc, td, te} {
		t.Fprint(w)
	}
}

// Fig11 prints the runtime-variant ablation: Vite, MC, SGR-only, SGR+CF,
// and SGR+CF+GAR for LV and CC-SV on the medium graphs, with the
// computation/communication split.
func (c Config) Fig11(w io.Writer) {
	hosts := c.mediumHosts()
	variants := []struct {
		name    string
		variant npm.Variant
		early   bool
	}{
		{"Vite", npm.Vite, true},
		{"MC", npm.MC, false},
		{"SGR-only", npm.SGROnly, false},
		{"SGR+CF", npm.SGRCF, false},
		{"SGR+CF+GAR", npm.Full, false},
	}
	for _, p := range []gen.Preset{gen.RoadEurope, gen.Friendster} {
		g := c.graphFor(p)
		header := []string{"variant", "hosts", "total (ms)", "compute (ms)",
			"comm (ms)", "req (ms)", "reduce (ms)", "bcast (ms)", "conflicts"}
		tlv := NewTable(fmt.Sprintf("Figure 11 (LV on %s): runtime variants", p), header...)
		tsv := NewTable(fmt.Sprintf("Figure 11 (CC-SV on %s): runtime variants", p), header...)
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		for _, v := range variants {
			for _, h := range hosts {
				r := c.RunLV(g, h, v.variant, v.early)
				tlv.Row(v.name, h, r.Ms(), ms(r.Compute), ms(r.Comm),
					ms(r.Request), ms(r.Reduce), ms(r.Broadcast), r.Conflicts)
				r = c.RunCCVariant(g, h, v.variant)
				tsv.Row(v.name, h, r.Ms(), ms(r.Compute), ms(r.Comm),
					ms(r.Request), ms(r.Reduce), ms(r.Broadcast), r.Conflicts)
			}
		}
		tlv.Fprint(w)
		tsv.Fprint(w)
	}
}

// Fig12 prints compiled CC-LP and MIS with and without the compiler
// optimizations (§5.2), with the computation/communication split.
func (c Config) Fig12(w io.Writer) {
	hosts := c.mediumHosts()
	programs := []struct {
		name string
		prog *compiler.Program
	}{
		{"CC-LP", compiler.CCLPProgram()},
		{"MIS", compiler.MISProgram()},
	}
	for _, p := range []gen.Preset{gen.RoadEurope, gen.Friendster} {
		g := c.graphFor(p)
		for _, pr := range programs {
			t := NewTable(fmt.Sprintf("Figure 12 (%s on %s): compiler optimizations "+
				"(* = extrapolated from capped rounds)", pr.name, p),
				"config", "hosts", "total (ms)", "compute (ms)", "comm (ms)", "msgs", "MB sent")
			// OPT runs to quiescence; its round count bounds the NO-OPT
			// run, whose per-round cost is extrapolated when capped —
			// the paper's NO-OPT road configurations timed out at 9000s.
			var optRounds int64
			for _, mode := range []struct {
				label string
				opt   bool
			}{{"OPT", true}, {"NO-OPT", false}} {
				plan, err := compiler.Compile(pr.prog, compiler.Options{Optimize: mode.opt})
				if err != nil {
					panic(err)
				}
				for _, h := range hosts {
					var msgs, bytes, rounds int64
					cap := 0
					if !mode.opt && optRounds > 12 {
						cap = 12
					}
					r := c.measure(func() Result {
						cluster, err := runtime.NewCluster(g, runtime.Config{
							NumHosts: h, ThreadsPerHost: c.Threads, Policy: partition.OEC,
						})
						if err != nil {
							panic(err)
						}
						defer cluster.Close()
						start := time.Now()
						roundsByHost := make([]int64, h)
						cluster.Run(func(host *runtime.Host) {
							e := compiler.NewExec(host, plan, compiler.ExecConfig{
								MaxRoundsPerLoop: cap,
							})
							e.Run()
							roundsByHost[host.Rank] = e.Rounds()
						})
						res := Result{Wall: time.Since(start)}
						for _, hh := range cluster.Hosts() {
							if hh.Timers.Compute > res.Compute {
								res.Compute = hh.Timers.Compute
							}
							if hh.Timers.Comm() > res.Comm {
								res.Comm = hh.Timers.Comm()
							}
						}
						msgs, bytes = cluster.CommStats()
						rounds = roundsByHost[0]
						return res
					})
					label := mode.label
					if mode.opt && h == hosts[0] {
						optRounds = rounds
					}
					scale := 1.0
					if cap > 0 && rounds > 0 && optRounds > rounds {
						scale = float64(optRounds) / float64(rounds)
						label += "*" // extrapolated from capped rounds
					}
					t.Row(label, h, r.Ms()*scale,
						float64(r.Compute.Microseconds())/1000*scale,
						float64(r.Comm.Microseconds())/1000*scale,
						int64(float64(msgs)*scale), float64(bytes)/(1<<20)*scale)
				}
			}
			t.Fprint(w)
		}
	}
}

// ReadLocality reproduces the §4.2 measurement: the fraction of property
// reads served by master node properties, per algorithm, at two cluster
// sizes. The paper reports ~65% at 4 hosts and ~50% at 32 (scaled here).
func (c Config) ReadLocality(w io.Writer) {
	hostCounts := []int{4, 8}
	if c.Scale == Small {
		hostCounts = []int{2, 4}
	}
	t := NewTable("§4.2: fraction of reads served by master properties",
		"algorithm", "graph", "hosts", "master reads %")
	for _, p := range []gen.Preset{gen.RoadEurope, gen.Friendster} {
		g := c.graphFor(p)
		for _, hosts := range hostCounts {
			type mr struct{ master, remote int64 }
			collect := func(name string, run func(h *runtime.Host) (int64, int64)) {
				totals := make([]mr, hosts)
				cluster, err := runtime.NewCluster(g, runtime.Config{
					NumHosts: hosts, ThreadsPerHost: c.Threads, Policy: partition.CVC,
				})
				if err != nil {
					panic(err)
				}
				defer cluster.Close()
				cluster.Run(func(h *runtime.Host) {
					m, r := run(h)
					totals[h.Rank] = mr{m, r}
				})
				var m, r int64
				for _, x := range totals {
					m += x.master
					r += x.remote
				}
				pct := 0.0
				if m+r > 0 {
					pct = 100 * float64(m) / float64(m+r)
				}
				t.Row(name, string(p), hosts, pct)
			}
			collect("CC-SV", func(h *runtime.Host) (int64, int64) {
				out := make([]graph.NodeID, g.NumNodes())
				return withReadStats(h, out, algorithms.CCSV)
			})
			collect("CC-LP", func(h *runtime.Host) (int64, int64) {
				out := make([]graph.NodeID, g.NumNodes())
				return withReadStats(h, out, algorithms.CCLP)
			})
			collect("CC-SCLP", func(h *runtime.Host) (int64, int64) {
				out := make([]graph.NodeID, g.NumNodes())
				return withReadStats(h, out, algorithms.CCSCLP)
			})
			collect("MIS", func(h *runtime.Host) (int64, int64) {
				rec := &statsRecorder{}
				out := make([]bool, g.NumNodes())
				algorithms.MIS(h, algorithms.Config{StatsSink: rec}, out)
				return rec.master.Load(), rec.remote.Load()
			})
			collect("MSF", func(h *runtime.Host) (int64, int64) {
				rec := &statsRecorder{}
				out := make([]graph.NodeID, g.NumNodes())
				algorithms.MSF(h, algorithms.Config{StatsSink: rec}, out)
				return rec.master.Load(), rec.remote.Load()
			})
		}
		// LV manages its own clusters per level; aggregate across them.
		for _, hosts := range hostCounts {
			rec := lvReadStats(g, hosts, c.Threads)
			m, r := rec.master.Load(), rec.remote.Load()
			pct := 0.0
			if m+r > 0 {
				pct = 100 * float64(m) / float64(m+r)
			}
			t.Row("LV", string(p), hosts, pct)
		}
	}
	t.Fprint(w)
}

// lvReadStats runs Louvain with one shared (atomic) recorder across all
// hosts and levels, aggregating the whole multi-level run.
func lvReadStats(g *graph.Graph, hosts, threads int) *statsRecorder {
	rec := &statsRecorder{}
	_, err := algorithms.Louvain(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: threads,
	}, algorithms.Config{StatsSink: rec}, algorithms.CDOptions{})
	if err != nil {
		panic(err)
	}
	return rec
}

// Policies compares the partitioning policies (§2.2, §6.1): replication
// factor, structural invariants, and CC-SV cost under each. An ablation
// for the pinned-mirror design decision — the invariant flags drive which
// broadcast elisions are legal.
func (c Config) Policies(w io.Writer) {
	hosts := c.mediumHosts()[len(c.mediumHosts())-1]
	t := NewTable(fmt.Sprintf("Partitioning policies at %d hosts", hosts),
		"graph", "policy", "replication", "no-out-mirrors", "no-in-mirrors",
		"cc-sv (ms)", "msgs", "MB sent")
	for _, p := range []gen.Preset{gen.RoadEurope, gen.Friendster} {
		g := c.graphFor(p)
		for _, pol := range partition.Policies {
			part := partition.Partition(g, hosts, pol)
			noOut, noIn := true, true
			for _, hp := range part.Hosts {
				noOut = noOut && hp.MirrorsHaveNoOutEdges
				noIn = noIn && hp.MirrorsHaveNoInEdges
			}
			var msgs, bytes int64
			r := c.measure(func() Result {
				cluster, err := runtime.NewCluster(g, runtime.Config{
					NumHosts: hosts, ThreadsPerHost: c.Threads, Policy: pol,
				})
				if err != nil {
					panic(err)
				}
				defer cluster.Close()
				out := make([]graph.NodeID, g.NumNodes())
				start := time.Now()
				cluster.Run(func(h *runtime.Host) {
					algorithms.CCSV(h, algorithms.Config{}, out)
				})
				msgs, bytes = cluster.CommStats()
				return Result{Wall: time.Since(start)}
			})
			t.Row(string(p), string(pol), part.ReplicationFactor(),
				noOut, noIn, r.Ms(), msgs, float64(bytes)/(1<<20))
		}
	}
	t.Fprint(w)
}

// Memory reproduces the paper's max-RSS comparison (§6.2): per-variant
// property-map memory after a representative hook round with pinned
// mirrors. The paper reports Kimbap's RSS ~10% above Vite's (the
// thread-local maps) and comparable to Gluon's.
func (c Config) Memory(w io.Writer) {
	hosts := 4
	if c.Scale == Small {
		hosts = 2
	}
	t := NewTable(fmt.Sprintf("Property-map memory per variant (%d hosts, %d threads)",
		hosts, c.Threads),
		"graph", "variant", "map KB (cluster total)")
	for _, p := range []gen.Preset{gen.RoadEurope, gen.Friendster} {
		g := c.graphFor(p)
		for _, v := range []npm.Variant{npm.Vite, npm.MC, npm.SGROnly, npm.SGRCF, npm.Full} {
			cluster, err := runtime.NewCluster(g, runtime.Config{
				NumHosts: hosts, ThreadsPerHost: c.Threads, Policy: partition.OEC,
			})
			if err != nil {
				panic(err)
			}
			store := kvstore.NewCluster(hosts, hosts)
			totals := make([]int64, hosts)
			cluster.Run(func(h *runtime.Host) {
				m := npm.New(npm.Options[graph.NodeID]{
					Host: h, Op: npm.MinNodeID(), Codec: npm.NodeIDCodec{},
					Variant: v, Store: store,
				})
				h.ParForNodes(func(_ int, l graph.NodeID) {
					gid := h.HP.GlobalID(l)
					m.Set(gid, gid)
				})
				m.InitSync()
				m.PinMirrors()
				// One hook-shaped round to populate thread-local maps.
				local := h.HP.Local
				h.ParForNodes(func(tid int, n graph.NodeID) {
					gid := h.HP.GlobalID(n)
					lo, hi := local.EdgeRange(n)
					for e := lo; e < hi; e++ {
						dgid := h.HP.GlobalID(local.Dst(e))
						if dgid < gid {
							m.Reduce(tid, gid, dgid)
						}
					}
				})
				totals[h.Rank] = npm.FootprintOf(m) // peak: before combine
				m.ReduceSync()
				m.BroadcastSync()
			})
			cluster.Close()
			var sum int64
			for _, x := range totals {
				sum += x
			}
			t.Row(string(p), string(v), float64(sum)/1024)
		}
	}
	t.Fprint(w)
}

// Abstraction quantifies the cost of the high-level programming model:
// the same algorithms written against the low-level API by hand versus
// compiled from the Figure 4 IR and interpreted. The paper's overall
// claim — "Kimbap's abstraction does not come at the cost of
// performance" — is made against hand-optimized systems; this table
// additionally isolates the compiler/interpreter layer itself.
func (c Config) Abstraction(w io.Writer) {
	hosts := c.mediumHosts()
	t := NewTable("Abstraction cost: hand-written vs compiled (OPT) programs",
		"program", "graph", "mode", "hosts", "total (ms)")
	type handFn func(h *runtime.Host, cfg algorithms.Config, out []graph.NodeID) algorithms.CCStats
	progs := []struct {
		name string
		prog *compiler.Program
		hand handFn
	}{
		{"CC-LP", compiler.CCLPProgram(), algorithms.CCLP},
		{"CC-SV", compiler.CCSVProgram(), algorithms.CCSV},
	}
	for _, p := range []gen.Preset{gen.RoadEurope, gen.Friendster} {
		g := c.graphFor(p)
		for _, pr := range progs {
			plan, err := compiler.Compile(pr.prog, compiler.Options{Optimize: true})
			if err != nil {
				panic(err)
			}
			for _, h := range hosts {
				r := c.RunCC(g, h, partition.OEC, algorithms.Config{}, pr.hand)
				t.Row(pr.name, string(p), "hand-written", h, r.Ms())
				r = c.measure(func() Result {
					return c.runSPMD(g, h, partition.OEC, func(host *runtime.Host) {
						compiler.NewExec(host, plan, compiler.ExecConfig{}).Run()
					})
				})
				t.Row(pr.name, string(p), "compiled", h, r.Ms())
			}
		}
	}
	t.Fprint(w)
}

// withReadStats runs a CC algorithm and returns the host's read-locality
// counters. The algorithms create their maps internally, so the counters
// are exposed through a shim map recorded by the stats registry below.
func withReadStats(h *runtime.Host, out []graph.NodeID,
	algo func(h *runtime.Host, cfg algorithms.Config, out []graph.NodeID) algorithms.CCStats) (int64, int64) {
	rec := &statsRecorder{}
	algo(h, algorithms.Config{StatsSink: rec}, out)
	return rec.master.Load(), rec.remote.Load()
}

// statsRecorder implements algorithms.ReadStatsSink. Sinks may be shared
// by all hosts of a cluster, so the counters are atomic.
type statsRecorder struct{ master, remote atomic.Int64 }

// Record implements algorithms.ReadStatsSink.
func (s *statsRecorder) Record(master, remote int64) {
	s.master.Add(master)
	s.remote.Add(remote)
}
