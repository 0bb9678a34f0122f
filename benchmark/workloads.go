package main

import (
	"fmt"
	"slices"

	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/partition"
)

// algo names one algorithm call a job makes; the name is also the metric
// name component (algorithms.<algo>.s, comm.<algo>.bytes, ...).
type algo string

const (
	ccSV algo = "cc_sv"
	ccLP algo = "cc_lp"
	mis  algo = "mis"
	msf  algo = "msf"
	lv   algo = "lv"
	ld   algo = "ld"
)

// allAlgos fixes the order algorithms appear in metric lists.
var allAlgos = []algo{ccSV, ccLP, mis, msf, lv, ld}

// metric names the algorithm's metric in a layer: <layer>.<algo>.<name>.
func (a algo) metric(layer, name string) string { return layer + "." + string(a) + "." + name }

// clusterRun reports whether the algorithm runs SPMD on a cluster the
// benchmark builds (so its comm counters are visible from outside). LV and
// LD build a fresh cluster per level inside the library call.
func (a algo) clusterRun() bool { return a != lv && a != ld }

// fileFormat is the on-disk form a workload's graph is read from.
type fileFormat string

const (
	textFile fileFormat = "text"
	kmb2File fileFormat = "kmb2"
)

// workload is one input the benchmark runs: a generated graph, the file
// format it is read back from, the cluster shape, and the algorithm calls
// each job makes. Every shape is 2 workers (hosts × threads), which equals
// the 2-core reference host's nproc, so the numbers measure the program
// rather than the scheduler.
type workload struct {
	name           string
	format         fileFormat
	hosts, threads int
	policy         partition.Policy
	algos          []algo
	// build generates the graph from the seed; small shrinks it for the
	// unit tests.
	build func(seed int64, small bool) *graph.Graph
}

func (w *workload) workers() int { return w.hosts * w.threads }

func (w *workload) runs(a algo) bool { return slices.Contains(w.algos, a) }

// needsCluster reports whether a job partitions the graph itself (true
// unless every algorithm partitions internally, as LV and LD do).
func (w *workload) needsCluster() bool { return slices.ContainsFunc(w.algos, algo.clusterRun) }

func roadGraph(seed int64, small bool) *graph.Graph {
	if small {
		return gen.Grid(24, 24, true, seed)
	}
	return gen.Grid(256, 256, true, seed)
}

func socialGraph(seed int64, small bool) *graph.Graph {
	if small {
		return gen.RMAT(10, 8, true, seed)
	}
	return gen.RMAT(17, 16, true, seed)
}

// communitySize is the planted community size of the community workload;
// the small variant shrinks the community count only, so the planted
// partition is u / communitySize either way.
const communitySize = 512

func communityGraph(seed int64, small bool) *graph.Graph {
	if small {
		return gen.Communities(4, communitySize, 16, 4, true, seed)
	}
	return gen.Communities(32, communitySize, 16, 4, true, seed)
}

var cycleAlgos = []algo{ccSV, ccLP, mis, msf}

// workloads is the benchmark's workload table; README.md records why each
// one exists.
var workloads = []*workload{
	// High diameter: CC-LP and MIS run hundreds of rounds with KB-sized
	// payloads, so per-round latency dominates. Text parsing dominates
	// set-up.
	{name: "road", format: textFile, hosts: 2, threads: 1, policy: partition.CVC,
		algos: cycleAlgos, build: roadGraph},
	// Power law: few rounds with MB-scale reduce/broadcast payloads;
	// partitioning dominates set-up.
	{name: "social", format: kmb2File, hosts: 2, threads: 1, policy: partition.CVC,
		algos: cycleAlgos, build: socialGraph},
	// The social graph on one host: the comm layer is bypassed, so a
	// comm-layer change should leave it unchanged.
	{name: "social-shm", format: kmb2File, hosts: 1, threads: 2, policy: partition.CVC,
		algos: cycleAlgos, build: socialGraph},
	// Planted communities: LV/LD trans-vertex request-sync and hash-map
	// reductions with a fresh partition per level; the planted partition
	// makes quality checkable.
	// LV and LD build their own per-level clusters and force OEC, so this
	// workload sets no policy and its set-up is the load alone.
	{name: "community", format: kmb2File, hosts: 2, threads: 1,
		algos: []algo{lv, ld}, build: communityGraph},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
