package bench

import (
	"sync"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/kvstore"
	"kimbap/internal/npm"
	"kimbap/internal/partition"
	"kimbap/internal/runtime"
)

// Scale selects workload sizes: Small keeps experiments in CI-test
// territory; Full runs the paper-shaped configurations (minutes).
type Scale string

// Workload scales.
const (
	Small Scale = "small"
	Full  Scale = "full"
)

// Config tunes the harness.
type Config struct {
	Scale   Scale
	Threads int // worker threads per simulated host
	Reps    int // timing repetitions; the minimum is reported
}

func (c Config) withDefaults() Config {
	if c.Scale == "" {
		c.Scale = Small
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Reps == 0 {
		c.Reps = 1
	}
	return c
}

// graphCache memoizes generated graphs across experiments in one process.
var graphCache sync.Map // key string -> *graph.Graph

func (c Config) graphFor(p gen.Preset) *graph.Graph {
	key := string(p) + "/" + string(c.Scale)
	if g, ok := graphCache.Load(key); ok {
		return g.(*graph.Graph)
	}
	var g *graph.Graph
	if c.Scale == Full {
		g = gen.Build(p)
	} else {
		g = gen.BuildSmall(p)
	}
	graphCache.Store(key, g)
	return g
}

// mediumHosts is the host sweep for medium graphs (paper: 1-16).
func (c Config) mediumHosts() []int {
	if c.Scale == Full {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2}
}

// largeHosts is the host sweep for large graphs (paper: 32-256, scaled).
func (c Config) largeHosts() []int {
	if c.Scale == Full {
		return []int{4, 8, 16}
	}
	return []int{2, 4}
}

// Result is one measured run.
type Result struct {
	Wall    time.Duration
	Compute time.Duration // max across hosts
	Comm    time.Duration // max across hosts
	// Request/Reduce/Broadcast split Comm by sync phase (§6.4 attributes
	// GAR's gains to request and reduce time separately).
	Request, Reduce, Broadcast time.Duration
	// Conflicts counts reduction conflicts: shared-map lock contention
	// for the SGR-only/Vite variants, CAS retries for MC, zero by
	// construction for the conflict-free variants. See npm.ConflictCount.
	Conflicts int64
}

// Ms returns wall milliseconds, the unit tables report.
func (r Result) Ms() float64 { return float64(r.Wall.Microseconds()) / 1000 }

// measure runs fn Reps times and keeps the fastest run (standard practice
// to suppress scheduling noise).
func (c Config) measure(fn func() Result) Result {
	best := fn()
	for i := 1; i < c.Reps; i++ {
		if r := fn(); r.Wall < best.Wall {
			best = r
		}
	}
	return best
}

// runSPMD builds a cluster, runs prog on it, and collects wall time plus
// the maximum per-host compute/comm timers.
func (c Config) runSPMD(g *graph.Graph, hosts int, pol partition.Policy,
	prog func(h *runtime.Host)) Result {

	cluster, err := runtime.NewCluster(g, runtime.Config{
		NumHosts: hosts, ThreadsPerHost: c.Threads, Policy: pol,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	start := time.Now()
	cluster.Run(prog)
	res := Result{Wall: time.Since(start)}
	for _, h := range cluster.Hosts() {
		if h.Timers.Compute > res.Compute {
			res.Compute = h.Timers.Compute
		}
		if h.Timers.Comm() > res.Comm {
			res.Comm = h.Timers.Comm()
			res.Request = h.Timers.Request
			res.Reduce = h.Timers.Reduce
			res.Broadcast = h.Timers.Broadcast
		}
	}
	return res
}

// ccAlgo names a connected-components implementation for the sweeps.
type ccAlgo struct {
	name string
	pol  partition.Policy
	run  func(h *runtime.Host, cfg algorithms.Config, out []graph.NodeID) algorithms.CCStats
}

func ccAlgos() []ccAlgo {
	return []ccAlgo{
		{"Kimbap-LP", partition.CVC, algorithms.CCLP},
		{"Kimbap-SCLP", partition.CVC, algorithms.CCSCLP},
		{"Kimbap-SV", partition.CVC, algorithms.CCSV},
	}
}

// RunCC measures one CC algorithm.
func (c Config) RunCC(g *graph.Graph, hosts int, pol partition.Policy,
	acfg algorithms.Config,
	algo func(h *runtime.Host, cfg algorithms.Config, out []graph.NodeID) algorithms.CCStats) Result {

	return c.measure(func() Result {
		out := make([]graph.NodeID, g.NumNodes())
		var store *kvstore.Cluster
		if acfg.Variant == npm.MC && acfg.Store == nil {
			store = kvstore.NewCluster(hosts, hosts)
			acfg.Store = store
		}
		w := npm.BeginConflictWindow()
		r := c.runSPMD(g, hosts, pol, func(h *runtime.Host) {
			algo(h, acfg, out)
		})
		r.Conflicts = w.End() + casRetries(store, hosts)
		return r
	})
}

// casRetries sums MC CAS retries across client hosts.
func casRetries(store *kvstore.Cluster, hosts int) int64 {
	if store == nil {
		return 0
	}
	var total int64
	for h := 0; h < hosts; h++ {
		total += store.Stats(h).CASRetries.Load()
	}
	return total
}

// RunMIS measures the MIS implementation.
func (c Config) RunMIS(g *graph.Graph, hosts int) Result {
	return c.measure(func() Result {
		out := make([]bool, g.NumNodes())
		return c.runSPMD(g, hosts, partition.CVC, func(h *runtime.Host) {
			algorithms.MIS(h, algorithms.Config{}, out)
		})
	})
}

// RunMSF measures the Boruvka implementation.
func (c Config) RunMSF(g *graph.Graph, hosts int) Result {
	return c.measure(func() Result {
		out := make([]graph.NodeID, g.NumNodes())
		return c.runSPMD(g, hosts, partition.CVC, func(h *runtime.Host) {
			algorithms.MSF(h, algorithms.Config{}, out)
		})
	})
}

// RunLV measures Louvain with the given map variant (npm.Vite reproduces
// the Vite baseline when earlyTerm is also set).
func (c Config) RunLV(g *graph.Graph, hosts int, variant npm.Variant, earlyTerm bool) Result {
	return c.measure(func() Result {
		acfg := algorithms.Config{Variant: variant}
		var store *kvstore.Cluster
		if variant == npm.MC {
			store = kvstore.NewCluster(hosts, hosts)
			acfg.Store = store
		}
		w := npm.BeginConflictWindow()
		start := time.Now()
		res, err := algorithms.Louvain(g, runtime.Config{
			NumHosts: hosts, ThreadsPerHost: c.Threads,
		}, acfg, algorithms.CDOptions{EarlyTermination: earlyTerm})
		if err != nil {
			panic(err)
		}
		return Result{
			Wall: time.Since(start), Compute: res.Compute, Comm: res.Comm,
			Request: res.Request, Reduce: res.Reduce, Broadcast: res.Broadcast,
			Conflicts: w.End() + casRetries(store, hosts),
		}
	})
}

// RunLD measures Leiden.
func (c Config) RunLD(g *graph.Graph, hosts int) Result {
	return c.measure(func() Result {
		start := time.Now()
		res, err := algorithms.Leiden(g, runtime.Config{
			NumHosts: hosts, ThreadsPerHost: c.Threads,
		}, algorithms.Config{}, algorithms.CDOptions{})
		if err != nil {
			panic(err)
		}
		return Result{Wall: time.Since(start), Compute: res.Compute, Comm: res.Comm}
	})
}

// RunCCVariant measures CC-SV with a specific map variant (Figure 11).
func (c Config) RunCCVariant(g *graph.Graph, hosts int, variant npm.Variant) Result {
	return c.RunCC(g, hosts, partition.CVC, algorithms.Config{Variant: variant}, algorithms.CCSV)
}
