package main

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"sync/atomic"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/comm"
	"kimbap/internal/graph"
	"kimbap/internal/runtime"
)

// refs holds the sequential reference results every op is checked
// against, computed once per run outside the timed window.
type refs struct {
	labels    []graph.NodeID // graph.ReferenceComponents
	msfWeight float64        // graph.ReferenceMSFWeight
	plantedQ  float64        // modularity of the planted partition
	seconds   float64        // time the references took: a host-speed canary
}

func computeRefs(w *workload, g *graph.Graph) refs {
	start := time.Now()
	var r refs
	if w.runs(ccSV) || w.runs(ccLP) {
		r.labels = graph.ReferenceComponents(g)
	}
	if w.runs(msf) {
		r.msfWeight = graph.ReferenceMSFWeight(g)
	}
	if w.runs(lv) || w.runs(ld) {
		planted := make([]graph.NodeID, g.NumNodes())
		for u := range planted {
			planted[u] = graph.NodeID(u / communitySize)
		}
		r.plantedQ = graph.Modularity(g, planted)
	}
	r.seconds = time.Since(start).Seconds()
	return r
}

// jobResult is what one job measured.
type jobResult struct {
	setup, solve, cpu, peakHeapMB float64
	// layer holds the per-layer metrics by name (see layerMetrics).
	layer       map[string]float64
	ops, failed int
}

// jobRunner runs jobs of one workload over one graph file. A job is one
// file→result pass with library defaults (BSP, push, sparse frontier,
// wire v2, no reorder): open the file, build the CSR, partition, run the
// workload's algorithms, and only then, untimed, check every output.
type jobRunner struct {
	w    *workload
	path string
	refs refs
	heap *heapSampler
}

// readSink is an algorithms.ReadStatsSink; hosts record concurrently.
type readSink struct{ master, remote atomic.Int64 }

func (s *readSink) Record(master, remote int64) {
	s.master.Add(master)
	s.remote.Add(remote)
}

func (s *readSink) masterFrac() float64 {
	m, r := s.master.Load(), s.remote.Load()
	if m+r == 0 {
		return 0
	}
	return float64(m) / float64(m+r)
}

// run executes one job. A traced job turns on the library's own counters
// (Config.LogRounds, Config.StatsSink) and records spans into tr.
func (r *jobRunner) run(traced bool, tr *tracer) (jobResult, error) {
	res := jobResult{layer: make(map[string]float64)}
	var gc0, gc1 goruntime.MemStats
	goruntime.ReadMemStats(&gc0)
	r.heap.reset()
	jobStart := time.Now()
	cpu0 := cpuTime()

	m := startMeter()
	g, err := r.load()
	if err != nil {
		return res, err
	}
	load := m.stop()
	res.setup = load.wall
	res.layer["graph.load_s"] = load.wall
	res.layer["graph.load_alloc_mb"] = load.allocMB
	res.layer["graph.edges_per_s"] = float64(g.NumEdges()) / load.wall
	tr.span("graph.load", load.start, load.end, map[string]any{
		"format": r.w.format, "nodes": g.NumNodes(), "edges": g.NumEdges(), "alloc_mb": load.allocMB})

	var cluster *runtime.Cluster
	if r.w.needsCluster() {
		m = startMeter()
		cluster, err = runtime.NewCluster(g, runtime.Config{
			NumHosts: r.w.hosts, ThreadsPerHost: r.w.threads, Policy: r.w.policy})
		if err != nil {
			return res, fmt.Errorf("partition: %w", err)
		}
		part := m.stop()
		res.setup += part.wall
		res.layer["partition.s"] = part.wall
		res.layer["partition.alloc_mb"] = part.allocMB
		res.layer["partition.replication"] = cluster.Part.ReplicationFactor()
		tr.span("partition", part.start, part.end, map[string]any{
			"policy": r.w.policy, "hosts": r.w.hosts, "alloc_mb": part.allocMB,
			"replication": cluster.Part.ReplicationFactor()})
	}

	var checks []func() bool
	for _, a := range r.w.algos {
		cfg := algorithms.Config{}
		if traced {
			cfg.LogRounds, cfg.StatsSink = true, &readSink{}
		}
		vals, check := r.call(a, cfg, cluster, g, tr)
		res.solve += vals[a.metric("algorithms", "s")]
		for k, v := range vals {
			res.layer[k] = v
		}
		checks = append(checks, check)
	}
	res.cpu = (cpuTime() - cpu0).Seconds()
	res.peakHeapMB = r.heap.peakMB()
	goruntime.ReadMemStats(&gc1)
	res.layer["go.gc_count"] = float64(gc1.NumGC - gc0.NumGC)
	res.layer["go.gc_pause_s"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e9
	if cluster != nil {
		cluster.Close()
	}

	verifyStart := time.Now()
	for i, check := range checks {
		res.ops++
		if !check() {
			res.failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s output failed verification\n", r.w.name, r.w.algos[i])
		}
	}
	end := time.Now()
	tr.span("verify", verifyStart, end, map[string]any{"ops": res.ops, "failed": res.failed})
	tr.span("job", jobStart, end, map[string]any{"setup_s": res.setup, "solve_s": res.solve,
		"cpu_s": res.cpu, "peak_heap_mb": res.peakHeapMB,
		"gc_count": res.layer["go.gc_count"], "gc_pause_s": res.layer["go.gc_pause_s"]})
	return res, nil
}

func (r *jobRunner) load() (*graph.Graph, error) {
	var src interface {
		graph.BlockSource
		Close() error
	}
	var err error
	switch r.w.format {
	case textFile:
		src, err = graph.OpenText(r.path)
	case kmb2File:
		src, err = graph.OpenKMB2(r.path)
	default:
		err = fmt.Errorf("unknown format %q", r.w.format)
	}
	if err != nil {
		return nil, fmt.Errorf("open graph: %w", err)
	}
	defer src.Close()
	g, err := graph.NewStreamBuilder(src).SetWorkers(r.w.workers()).Build()
	if err != nil {
		return nil, fmt.Errorf("build graph: %w", err)
	}
	return g, nil
}

// call times one algorithm call and returns its per-layer values plus the
// check to run on its output after the job's timed window.
func (r *jobRunner) call(a algo, cfg algorithms.Config, c *runtime.Cluster,
	g *graph.Graph, tr *tracer) (map[string]float64, func() bool) {

	vals := make(map[string]float64)

	if !a.clusterRun() {
		run := algorithms.Louvain
		if a == ld {
			run = algorithms.Leiden
		}
		m := startMeter()
		res, err := run(g, runtime.Config{NumHosts: r.w.hosts, ThreadsPerHost: r.w.threads},
			cfg, algorithms.CDOptions{})
		rd := m.stop()
		// CDResult sums its phase timers over hosts and levels; report the
		// per-host mean.
		hosts := float64(r.w.hosts)
		vals[a.metric("algorithms", "rounds")] = float64(res.Rounds)
		vals[a.metric("algorithms", "levels")] = float64(res.Levels)
		vals[a.metric("algorithms", "modularity")] = res.Modularity
		vals[a.metric("runtime", "compute_s")] = res.Compute.Seconds() / hosts
		vals[a.metric("npm", "reduce_s")] = res.Reduce.Seconds() / hosts
		vals[a.metric("npm", "broadcast_s")] = res.Broadcast.Seconds() / hosts
		vals[a.metric("npm", "request_s")] = res.Request.Seconds() / hosts
		r.finish(a, cfg, vals, rd, tr)
		return vals, func() bool {
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", a, err)
				return false
			}
			q := graph.Modularity(g, res.Assignment)
			return math.Abs(q-res.Modularity) <= 1e-9 && res.Modularity >= 0.95*r.refs.plantedQ
		}
	}

	hosts := c.Hosts()
	for _, h := range hosts {
		h.ResetTimers()
	}
	msgs0, bytes0 := c.CommStatsByTag()
	n := g.NumNodes()
	var check func() bool
	var perRound []algorithms.RoundStats
	m := startMeter()
	switch a {
	case ccSV, ccLP:
		fn := algorithms.CCSV
		if a == ccLP {
			fn = algorithms.CCLP
		}
		out := make([]graph.NodeID, n)
		st := make([]algorithms.CCStats, len(hosts))
		c.Run(func(h *runtime.Host) { st[h.Rank] = fn(h, cfg, out) })
		vals[a.metric("algorithms", "rounds")] = float64(st[0].HookRounds + st[0].ShortcutRounds)
		for _, s := range st {
			perRound = append(perRound, s.PerRound)
		}
		check = func() bool { return slices.Equal(out, r.refs.labels) }
	case mis:
		out := make([]bool, n)
		st := make([]algorithms.MISStats, len(hosts))
		c.Run(func(h *runtime.Host) { st[h.Rank] = algorithms.MIS(h, cfg, out) })
		vals[a.metric("algorithms", "rounds")] = float64(st[0].Rounds)
		check = func() bool { return graph.IsValidMIS(g, out) }
	case msf:
		comp := make([]graph.NodeID, n)
		st := make([]algorithms.MSFStats, len(hosts))
		c.Run(func(h *runtime.Host) { st[h.Rank] = algorithms.MSF(h, cfg, comp) })
		vals[a.metric("algorithms", "rounds")] = float64(st[0].Rounds)
		w, want := st[0].TotalWeight, r.refs.msfWeight
		check = func() bool { return math.Abs(w-want) <= 1e-6*want }
	}
	rd := m.stop()

	var compute, reduce, bcast, request time.Duration
	for _, h := range hosts {
		compute = max(compute, h.Timers.Compute)
		reduce = max(reduce, h.Timers.Reduce)
		bcast = max(bcast, h.Timers.Broadcast)
		request = max(request, h.Timers.Request)
	}
	vals[a.metric("runtime", "compute_s")] = compute.Seconds()
	vals[a.metric("npm", "reduce_s")] = reduce.Seconds()
	vals[a.metric("npm", "broadcast_s")] = bcast.Seconds()
	vals[a.metric("npm", "request_s")] = request.Seconds()

	msgs1, bytes1 := c.CommStatsByTag()
	var msgs, bytes int64
	for t := range msgs1 {
		msgs += msgs1[t] - msgs0[t]
		bytes += bytes1[t] - bytes0[t]
	}
	tagBytes := func(t comm.Tag) float64 { return float64(bytes1[t] - bytes0[t]) }
	vals[a.metric("comm", "bytes")] = float64(bytes)
	vals[a.metric("comm", "msgs")] = float64(msgs)
	vals[a.metric("comm", "reduce_bytes")] = tagBytes(comm.TagReduce)
	vals[a.metric("comm", "broadcast_bytes")] = tagBytes(comm.TagBroadcast)
	vals[a.metric("comm", "request_bytes")] = tagBytes(comm.TagRequest) + tagBytes(comm.TagResponse)

	if cfg.LogRounds && (a == ccSV || a == ccLP) {
		// Σ active proxies ÷ (rounds × proxies), over hosts: the share of
		// the dense loop's vertex visits the frontier actually made.
		var active, visits int64
		for i, pr := range perRound {
			for _, x := range pr.Active {
				active += x
			}
			visits += int64(len(pr.Active)) * int64(hosts[i].HP.NumLocal())
			tr.rounds(fmt.Sprintf("%s.rounds.host%d", a, i), rd.start, rd.end, map[string][]int64{
				"active": pr.Active, "reduce_bytes": pr.ReduceBytes})
		}
		if visits > 0 {
			vals[a.metric("runtime", "active_frac")] = float64(active) / float64(visits)
		}
	}
	r.finish(a, cfg, vals, rd, tr)
	return vals, check
}

// finish adds the metrics every algorithm call has and records its span.
func (r *jobRunner) finish(a algo, cfg algorithms.Config, vals map[string]float64, rd reading, tr *tracer) {
	if sink, _ := cfg.StatsSink.(*readSink); sink != nil {
		vals[a.metric("npm", "master_read_frac")] = sink.masterFrac()
	}
	vals[a.metric("algorithms", "s")] = rd.wall
	vals[a.metric("go", "alloc_mb")] = rd.allocMB
	vals[a.metric("go", "cpu_s")] = rd.cpu
	vals[a.metric("runtime", "busy_frac")] = rd.cpu / (rd.wall * float64(r.w.workers()))
	if tr != nil {
		args := make(map[string]any, len(vals))
		for k, v := range vals {
			args[k] = v
		}
		tr.span(string(a), rd.start, rd.end, args)
	}
}
