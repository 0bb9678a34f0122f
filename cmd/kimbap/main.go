// Command kimbap runs one of the seven graph algorithms on a generated or
// loaded graph over a simulated cluster, printing a result summary.
//
// Examples:
//
//	kimbap -algo cc-sv -graph friendster -hosts 4
//	kimbap -algo lv -graph road-europe -hosts 8 -threads 8
//	kimbap -algo cc-lp -graph mygraph.el -hosts 2 -variant sgr-only
//	kimbap -algo lv -graph small:road-europe -cpuprofile cpu.out -memprofile mem.out
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the whole run
// (load, partitioning and the algorithm); read them with `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over its arguments; it returns the exit status, so
// deferred profile writes happen on every path. A bad flag value ends it
// with a one-line error on stderr, never a panic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kimbap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo    = fs.String("algo", "cc-sv", "algorithm: cc-sv, cc-lp, cc-sclp, mis, msf, lv, ld")
		graphIn = fs.String("graph", "friendster", "graph preset (road-europe, friendster, clueweb12, wdc12), small:<preset>, or an edge-list file")
		hosts   = fs.Int("hosts", 4, "simulated hosts")
		threads = fs.Int("threads", 4, "worker threads per host")
		policy  = fs.String("policy", "cvc", "partitioning policy: oec, iec, cvc")
		variant = fs.String("variant", "", "node-property map variant: sgr+cf+gar (default), sgr+cf, sgr-only, memcached, vite")
		useTCP  = fs.Bool("tcp", false, "use the TCP transport instead of in-memory channels")
		verify  = fs.Bool("verify", false, "check the result against a sequential reference")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write a heap (allocation) profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hosts < 1 {
		fmt.Fprintf(stderr, "kimbap: -hosts %d: need at least one host\n", *hosts)
		return 2
	}
	if !npm.Variant(*variant).Known() {
		fmt.Fprintf(stderr, "kimbap: unknown variant %q\n", *variant)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "kimbap: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "kimbap: cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "kimbap: cpuprofile:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := writeHeapProfile(*memProf); err != nil {
				fmt.Fprintln(stderr, "kimbap: memprofile:", err)
			}
		}()
	}

	g, err := gen.Load(*graphIn)
	if err != nil {
		fmt.Fprintln(stderr, "kimbap:", err)
		return 1
	}
	fmt.Fprintf(stdout, "graph: %s\n", g.ComputeStats())

	ccfg := runtime.Config{
		NumHosts:       *hosts,
		ThreadsPerHost: *threads,
		Policy:         partition.Policy(*policy),
		UseTCP:         *useTCP,
	}
	acfg := algorithms.Config{Variant: npm.Variant(*variant)}
	if acfg.Variant == npm.MC {
		acfg.Store = kvstore.NewCluster(*hosts, *hosts)
	}

	start := time.Now()
	switch *algo {
	case "lv", "ld":
		var res algorithms.CDResult
		if *algo == "lv" {
			res, err = algorithms.Louvain(g, ccfg, acfg, algorithms.CDOptions{})
		} else {
			res, err = algorithms.Leiden(g, ccfg, acfg, algorithms.CDOptions{})
		}
		if err != nil {
			fmt.Fprintln(stderr, "kimbap:", err)
			return 1
		}
		ok := allConverged([]algorithms.CDResult{res}, func(r algorithms.CDResult) bool { return r.Converged })
		fmt.Fprintf(stdout, "%s: modularity=%.4f levels=%d rounds=%d converged=%v compute=%v comm=%v wall=%v\n",
			strings.ToUpper(*algo), res.Modularity, res.Levels, res.Rounds, ok,
			res.Compute.Round(time.Millisecond), res.Comm.Round(time.Millisecond),
			time.Since(start).Round(time.Millisecond))
		if !ok {
			return notConverged(stderr, *algo)
		}
	default:
		cluster, err := runtime.NewCluster(g, ccfg)
		if err != nil {
			fmt.Fprintln(stderr, "kimbap:", err)
			return 1
		}
		defer cluster.Close()
		switch *algo {
		case "cc-sv", "cc-lp", "cc-sclp":
			fns := map[string]func(*runtime.Host, algorithms.Config, []graph.NodeID) algorithms.CCStats{
				"cc-sv": algorithms.CCSV, "cc-lp": algorithms.CCLP, "cc-sclp": algorithms.CCSCLP,
			}
			out := make([]graph.NodeID, g.NumNodes())
			stats := make([]algorithms.CCStats, cluster.Config.NumHosts)
			cluster.Run(func(h *runtime.Host) { stats[h.Rank] = fns[*algo](h, acfg, out) })
			ok := allConverged(stats, func(s algorithms.CCStats) bool { return s.Converged })
			fmt.Fprintf(stdout, "%s: components=%d hook/prop rounds=%d shortcut rounds=%d converged=%v wall=%v\n",
				strings.ToUpper(*algo), graph.NumComponents(out),
				stats[0].HookRounds, stats[0].ShortcutRounds, ok,
				time.Since(start).Round(time.Millisecond))
			if !ok {
				return notConverged(stderr, *algo)
			}
			if *verify {
				want := graph.ReferenceComponents(g)
				for i := range want {
					if out[i] != want[i] {
						fmt.Fprintf(stderr, "kimbap: VERIFY FAILED at node %d\n", i)
						return 1
					}
				}
				fmt.Fprintln(stdout, "verify: OK (matches BFS reference)")
			}
		case "mis":
			out := make([]bool, g.NumNodes())
			stats := make([]algorithms.MISStats, cluster.Config.NumHosts)
			cluster.Run(func(h *runtime.Host) { stats[h.Rank] = algorithms.MIS(h, acfg, out) })
			ok := allConverged(stats, func(s algorithms.MISStats) bool { return s.Converged })
			fmt.Fprintf(stdout, "MIS: size=%d rounds=%d converged=%v wall=%v\n",
				stats[0].Size, stats[0].Rounds, ok, time.Since(start).Round(time.Millisecond))
			if !ok {
				return notConverged(stderr, *algo)
			}
			if *verify {
				if !graph.IsValidMIS(g, out) {
					fmt.Fprintln(stderr, "kimbap: VERIFY FAILED: not a maximal independent set")
					return 1
				}
				fmt.Fprintln(stdout, "verify: OK (maximal independent set)")
			}
		case "msf":
			out := make([]graph.NodeID, g.NumNodes())
			stats := make([]algorithms.MSFStats, cluster.Config.NumHosts)
			cluster.Run(func(h *runtime.Host) { stats[h.Rank] = algorithms.MSF(h, acfg, out) })
			ok := allConverged(stats, func(s algorithms.MSFStats) bool { return s.Converged })
			fmt.Fprintf(stdout, "MSF: weight=%.2f edges=%d rounds=%d converged=%v wall=%v\n",
				stats[0].TotalWeight, stats[0].ForestEdges, stats[0].Rounds, ok,
				time.Since(start).Round(time.Millisecond))
			if !ok {
				return notConverged(stderr, *algo)
			}
			if *verify {
				want := graph.ReferenceMSFWeight(g)
				if diff := stats[0].TotalWeight - want; diff > 1e-6*want || diff < -1e-6*want {
					fmt.Fprintf(stderr, "kimbap: VERIFY FAILED: weight %.4f, Kruskal %.4f\n",
						stats[0].TotalWeight, want)
					return 1
				}
				fmt.Fprintln(stdout, "verify: OK (matches Kruskal weight)")
			}
		default:
			fmt.Fprintf(stderr, "kimbap: unknown algorithm %q\n", *algo)
			return 2
		}
		msgs, bytes := cluster.CommStats()
		fmt.Fprintf(stdout, "communication: %d messages, %.2f MB\n", msgs, float64(bytes)/(1<<20))
	}
	return 0
}

// allConverged reports whether every host's result converged, reading each
// result's flag with converged. Louvain and Leiden report one result for
// the whole run, passed as a one-element slice.
func allConverged[S any](results []S, converged func(S) bool) bool {
	for _, r := range results {
		if !converged(r) {
			return false
		}
	}
	return true
}

// notConverged reports a run that a round or level cap cut off and returns
// the command's exit status for it: its output is not a fixpoint.
func notConverged(stderr io.Writer, algo string) int {
	fmt.Fprintf(stderr, "kimbap: %s did not converge: a round or level cap ended the run first\n", algo)
	return 1
}

// writeHeapProfile writes the heap profile to path after a GC, so the
// in-use figures are current; its alloc_space/alloc_objects samples cover
// the whole run.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	goruntime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
