package main

import (
	"math"
	"sort"
)

// metricDef is one declared metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// End-to-end metrics, each the median over a run's jobs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},       // open the file .. partitioned cluster
	{"solve_s", "s", "lower"},       // summed wall of the job's algorithm calls
	{"cpu_s", "s", "lower"},         // process user+sys CPU over set-up and solve
	{"peak_heap_mb", "MB", "lower"}, // max sampled /gc/heap/live:bytes
}

// layerMetrics lists the per-layer metrics of a traced run. Every workload
// emits every name; an algorithm the workload does not run reads 0.
func layerMetrics() []metricDef {
	m := []metricDef{
		{"graph.load_s", "s", "lower"},
		{"graph.load_alloc_mb", "MB", "lower"},
		{"graph.edges_per_s", "1/s", "higher"},
		{"partition.s", "s", "lower"},
		{"partition.alloc_mb", "MB", "lower"},
		{"partition.replication", "ratio", "lower"},
	}
	// Per-algorithm metrics: <layer>.<algo>.<name> for each listed algo.
	type perAlgo struct{ layer, name, unit, better string }
	for _, g := range []struct {
		algos []algo
		defs  []perAlgo
	}{
		{allAlgos, []perAlgo{{"algorithms", "s", "s", "lower"}, {"algorithms", "rounds", "count", "lower"}}},
		{[]algo{lv, ld}, []perAlgo{{"algorithms", "levels", "count", "lower"}, {"algorithms", "modularity", "ratio", "higher"}}},
		{allAlgos, []perAlgo{{"runtime", "compute_s", "s", "lower"}, {"runtime", "busy_frac", "ratio", "higher"}}},
		{[]algo{ccSV, ccLP}, []perAlgo{{"runtime", "active_frac", "ratio", "lower"}}},
		{allAlgos, []perAlgo{{"npm", "reduce_s", "s", "lower"}, {"npm", "broadcast_s", "s", "lower"},
			{"npm", "request_s", "s", "lower"}, {"npm", "master_read_frac", "ratio", "higher"}}},
		// Only the cluster-run algorithms' traffic is visible from outside.
		{cycleAlgos, []perAlgo{{"comm", "bytes", "bytes", "lower"}, {"comm", "msgs", "count", "lower"},
			{"comm", "reduce_bytes", "bytes", "lower"}, {"comm", "broadcast_bytes", "bytes", "lower"},
			{"comm", "request_bytes", "bytes", "lower"}}},
		{allAlgos, []perAlgo{{"go", "alloc_mb", "MB", "lower"}, {"go", "cpu_s", "s", "lower"}}},
	} {
		for _, a := range g.algos {
			for _, d := range g.defs {
				m = append(m, metricDef{a.metric(d.layer, d.name), d.unit, d.better})
			}
		}
	}
	return append(m,
		metricDef{"go.gc_count", "count", "lower"},
		metricDef{"go.gc_pause_s", "s", "lower"},
		// traced solve_s ÷ untraced solve_s, from alternating jobs.
		metricDef{"trace.overhead", "ratio", "lower"})
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// is what the benchmark's spread contract is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if q1 == q3 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
