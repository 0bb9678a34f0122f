package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	gort "runtime"
	"time"

	"kimbap/internal/algorithms"
	"kimbap/internal/comm"
	"kimbap/internal/gen"
	"kimbap/internal/graph"
	"kimbap/internal/npm"
	"kimbap/internal/runtime"
)

// The perf experiment tracks the repo's own performance trajectory: a
// fixed suite of sync-path microbenchmarks plus one end-to-end run, each
// reported as wall time, communication volume, conflicts, and allocations
// per operation. Unlike the paper-reproduction experiments, its subject is
// this implementation across commits, not the paper's systems — the JSON
// it emits (BENCH_kimbap.json via `make bench`) carries the previous
// file's wall times forward so every regeneration shows before/after.

// PerfRecord is one measured configuration in BENCH_kimbap.json.
type PerfRecord struct {
	Name         string  `json:"name"`
	Hosts        int     `json:"hosts"`
	Threads      int     `json:"threads"`
	WallNsPerOp  float64 `json:"wall_ns_per_op"`
	CommMessages int64   `json:"comm_messages"` // per op, cluster-wide
	CommBytes    int64   `json:"comm_bytes"`    // per op, cluster-wide
	Conflicts    int64   `json:"conflicts"`     // over the whole measured window
	AllocsPerOp  float64 `json:"allocs_per_op"` // cluster-wide (process mallocs)
	// PeakAllocBytes is the bytes allocated during the fastest measured
	// window (TotalAlloc delta) — a cumulative upper bound on the op's
	// peak heap growth, the column the streaming-ingestion records exist
	// to shrink. Filled by the timeOp-measured ingestion records.
	PeakAllocBytes int64 `json:"peak_alloc_bytes,omitempty"`
	// Per-tag breakdown of the comm columns (same units), keyed by
	// comm.Tag name. Tags with no traffic are omitted.
	CommTagMessages map[string]int64 `json:"comm_tag_messages,omitempty"`
	CommTagBytes    map[string]int64 `json:"comm_tag_bytes,omitempty"`
	// PrevNsPerOp is the wall time recorded in the JSON file this run
	// replaced, if that file had a matching record — the before half of
	// the before/after comparison.
	PrevNsPerOp float64 `json:"prev_ns_per_op,omitempty"`
	// Per-BSP-round activity for the round-logged experiments, one entry
	// per round in execution order, summed across hosts: local vertices
	// visited, reduce-sync bytes sent, and whether the round was a
	// hook/propagate round (as opposed to a pointer-jumping shortcut).
	RoundActive      []int64 `json:"round_active,omitempty"`
	RoundReduceBytes []int64 `json:"round_reduce_bytes,omitempty"`
	RoundHook        []bool  `json:"round_hook,omitempty"`
}

// perfFile is the on-disk shape of BENCH_kimbap.json.
type perfFile struct {
	Schema  string       `json:"schema"`
	Records []PerfRecord `json:"records"`
}

const perfSchema = "kimbap-bench/v1"

// perfKey identifies a record across file generations.
func perfKey(r PerfRecord) string {
	return fmt.Sprintf("%s/%dh/%dt", r.Name, r.Hosts, r.Threads)
}

// PerfTo runs the suite, prints a table to w, and — when jsonPath is
// non-empty — rewrites that file, carrying any matching wall times from
// its previous contents into PrevNsPerOp.
func (c Config) PerfTo(w io.Writer, jsonPath string) error {
	records := []PerfRecord{
		c.syncPerf("reduce_sync_full", npm.Full, 2, false),
		c.syncPerf("reduce_sync_full", npm.Full, 8, false),
		c.syncPerf("reduce_sync_sgrcf", npm.SGRCF, 8, false),
		c.syncPerf("reduce_sync_sgronly", npm.SGROnly, 8, false),
		c.syncPerf("reduce_broadcast_full", npm.Full, 8, true),
		c.ccPerf("cc_sv_full", npm.Full, 4),
		c.ccPerf("cc_sv_full", npm.Full, 8),
		c.ccPerf("cc_sv_full_sparse", npm.Full, 8),
		// The skewed-convergence workload: a long chain, maximal
		// pointer-jumping depth, where the shortcut's local compression
		// collapses each host's chain in one round.
		c.ccChainPerf("cc_sv_chain", 1),
		c.misPerf("mis_full", 1),
	}
	records = append(records, c.ingestPerf()...)
	records = append(records, c.ingestIOPerf()...)

	if jsonPath != "" {
		prev := map[string]float64{}
		if old, err := readPerfFile(jsonPath); err == nil {
			for _, r := range old.Records {
				prev[perfKey(r)] = r.WallNsPerOp
			}
		}
		for i := range records {
			records[i].PrevNsPerOp = prev[perfKey(records[i])]
		}
		if err := writePerfFile(jsonPath, records); err != nil {
			return err
		}
	}

	t := NewTable(fmt.Sprintf("Perf trajectory (scale %s, %d threads/host)", c.Scale, c.Threads),
		"name", "hosts", "ns/op", "msgs/op", "bytes/op", "conflicts", "allocs/op", "peak bytes", "prev ns/op", "vs prev")
	for _, r := range records {
		delta := ""
		if r.PrevNsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.WallNsPerOp-r.PrevNsPerOp)/r.PrevNsPerOp)
		}
		t.Row(r.Name, r.Hosts, r.WallNsPerOp, r.CommMessages, r.CommBytes,
			r.Conflicts, r.AllocsPerOp, r.PeakAllocBytes, r.PrevNsPerOp, delta)
	}
	t.Fprint(w)

	bt := NewTable("Comm breakdown by tag (per op, cluster-wide)",
		"name", "hosts", "tag", "msgs", "bytes")
	for _, r := range records {
		for _, tag := range tagNames(r.CommTagMessages) {
			bt.Row(r.Name, r.Hosts, tag, r.CommTagMessages[tag], r.CommTagBytes[tag])
		}
	}
	bt.Fprint(w)

	rt := NewTable("Per-round activity (cluster-wide)",
		"name", "hosts", "round", "kind", "active", "reduce bytes")
	for _, r := range records {
		for i := range r.RoundActive {
			kind := "shortcut"
			if r.RoundHook[i] {
				kind = "hook"
			}
			rt.Row(r.Name, r.Hosts, i, kind, r.RoundActive[i], r.RoundReduceBytes[i])
		}
	}
	rt.Fprint(w)
	return nil
}

// tagNames returns the breakdown keys in comm.Tag order.
func tagNames(m map[string]int64) []string {
	var out []string
	for t := 0; t < comm.NumTags; t++ {
		if name := comm.Tag(t).String(); m[name] != 0 {
			out = append(out, name)
		}
	}
	return out
}

// tagBreakdown converts per-tag counter deltas into name-keyed per-op
// maps, omitting tags with no traffic.
func tagBreakdown(m0, m1, b0, b1 []int64, iters int64) (msgs, bytes map[string]int64) {
	for t := range m1 {
		dm := (m1[t] - m0[t]) / iters
		db := (b1[t] - b0[t]) / iters
		if dm == 0 && db == 0 {
			continue
		}
		if msgs == nil {
			msgs = map[string]int64{}
			bytes = map[string]int64{}
		}
		msgs[comm.Tag(t).String()] = dm
		bytes[comm.Tag(t).String()] = db
	}
	return msgs, bytes
}

func readPerfFile(path string) (perfFile, error) {
	var f perfFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(data, &f)
}

func writePerfFile(path string, records []PerfRecord) error {
	data, err := json.MarshalIndent(perfFile{Schema: perfSchema, Records: records}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// perfGraph returns the suite's fixed input: the same R-MAT the npm
// package's go-test benchmarks use at full scale, a quarter-size one at
// small scale so the smoke path stays fast.
func (c Config) perfGraph() (*graph.Graph, int) {
	if c.Scale == Full {
		return gen.RMAT(11, 8, false, 3), 40
	}
	return gen.RMAT(9, 8, false, 3), 5
}

// syncPerf measures a reduce (optionally + broadcast) round: warm the
// cluster, then time iters rounds while sampling comm stats, process
// mallocs, and the conflict counter around the measured window. Reps
// windows are run and the fastest kept.
func (c Config) syncPerf(name string, variant npm.Variant, hosts int, pin bool) PerfRecord {
	g, iters := c.perfGraph()
	cluster, err := runtime.NewCluster(g, runtime.Config{NumHosts: hosts, ThreadsPerHost: c.Threads})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	const warmup = 3
	maps := make([]npm.Map[graph.NodeID], hosts)
	rounds := func(h *runtime.Host, base, n int) {
		m := maps[h.Rank]
		total := h.HP.NumGlobalNodes()
		for i := base; i < base+n; i++ {
			h.ParFor(1024, func(tid, j int) {
				m.Reduce(tid, graph.NodeID((j*31+i)%total), graph.NodeID(j%total))
			})
			m.ReduceSync()
			if pin {
				m.BroadcastSync()
			}
		}
	}
	cluster.Run(func(h *runtime.Host) {
		m := npm.New(npm.Options[graph.NodeID]{
			Host: h, Op: npm.MinNodeID(), Codec: npm.NodeIDCodec{}, Variant: variant,
		})
		maps[h.Rank] = m
		h.ParForNodes(func(_ int, l graph.NodeID) {
			gid := h.HP.GlobalID(l)
			m.Set(gid, gid)
		})
		m.InitSync()
		if pin {
			m.PinMirrors()
		}
		rounds(h, 0, warmup)
	})

	rec := PerfRecord{Name: name, Hosts: hosts, Threads: c.Threads}
	best := time.Duration(-1)
	for rep := 0; rep < c.Reps; rep++ {
		base := warmup + rep*iters
		cw := npm.BeginConflictWindow()
		msgs0, bytes0 := cluster.CommStats()
		tm0, tb0 := cluster.CommStatsByTag()
		var ms0, ms1 gort.MemStats
		gort.ReadMemStats(&ms0)
		start := time.Now()
		cluster.Run(func(h *runtime.Host) { rounds(h, base, iters) })
		wall := time.Since(start)
		gort.ReadMemStats(&ms1)
		msgs1, bytes1 := cluster.CommStats()
		tm1, tb1 := cluster.CommStatsByTag()
		conflicts := cw.End()
		if best < 0 || wall < best {
			best = wall
			rec.WallNsPerOp = float64(wall.Nanoseconds()) / float64(iters)
			rec.CommMessages = (msgs1 - msgs0) / int64(iters)
			rec.CommBytes = (bytes1 - bytes0) / int64(iters)
			rec.CommTagMessages, rec.CommTagBytes = tagBreakdown(tm0, tm1, tb0, tb1, int64(iters))
			rec.Conflicts = conflicts
			rec.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
		}
	}
	return rec
}

// ccPerf measures one end-to-end CC-SV run (op = the whole computation)
// and records the per-round activity log.
func (c Config) ccPerf(name string, variant npm.Variant, hosts int) PerfRecord {
	g, _ := c.perfGraph()
	return c.ccPerfOn(name, g, variant, hosts)
}

// chainGraph is the skewed-convergence workload: a long path maximizes
// pointer-jumping depth, which plain pointer jumping pays for with a
// collective round per halving and the shortcut's local compression
// collapses within one round per host.
func (c Config) chainGraph() *graph.Graph {
	if c.Scale == Full {
		return gen.Chain(1<<17, false, 3)
	}
	return gen.Chain(1<<13, false, 3)
}

// ccChainPerf measures CC-SV on the chain workload.
func (c Config) ccChainPerf(name string, hosts int) PerfRecord {
	return c.ccPerfOn(name, c.chainGraph(), npm.Full, hosts)
}

func (c Config) ccPerfOn(name string, g *graph.Graph, variant npm.Variant, hosts int) PerfRecord {

	rec := PerfRecord{Name: name, Hosts: hosts, Threads: c.Threads}
	best := time.Duration(-1)
	for rep := 0; rep < c.Reps; rep++ {
		cluster, err := runtime.NewCluster(g, runtime.Config{
			NumHosts: hosts, ThreadsPerHost: c.Threads,
		})
		if err != nil {
			panic(err)
		}
		out := make([]graph.NodeID, g.NumNodes())
		perHost := make([]algorithms.CCStats, hosts)
		cw := npm.BeginConflictWindow()
		var ms0, ms1 gort.MemStats
		gort.ReadMemStats(&ms0)
		start := time.Now()
		cluster.Run(func(h *runtime.Host) {
			perHost[h.Rank] = algorithms.CCSV(h, algorithms.Config{
				Variant: variant, LogRounds: true,
			}, out)
		})
		wall := time.Since(start)
		gort.ReadMemStats(&ms1)
		msgs, bytes := cluster.CommStats()
		tm, tb := cluster.CommStatsByTag()
		conflicts := cw.End()
		cluster.Close()
		if best < 0 || wall < best {
			best = wall
			rec.WallNsPerOp = float64(wall.Nanoseconds())
			rec.CommMessages = msgs
			rec.CommBytes = bytes
			rec.CommTagMessages, rec.CommTagBytes = tagBreakdown(
				make([]int64, len(tm)), tm, make([]int64, len(tb)), tb, 1)
			rec.Conflicts = conflicts
			rec.AllocsPerOp = float64(ms1.Mallocs - ms0.Mallocs)
			logs := make([]algorithms.RoundStats, hosts)
			for i, st := range perHost {
				logs[i] = st.PerRound
			}
			rec.RoundActive, rec.RoundReduceBytes, rec.RoundHook = sumRounds(logs)
		}
	}
	return rec
}

// misPerf measures one end-to-end MIS run (the standard R-MAT input; MIS
// keeps no round log, so only the scalar columns are filled).
func (c Config) misPerf(name string, hosts int) PerfRecord {
	g, _ := c.perfGraph()
	rec := PerfRecord{Name: name, Hosts: hosts, Threads: c.Threads}
	best := time.Duration(-1)
	for rep := 0; rep < c.Reps; rep++ {
		cluster, err := runtime.NewCluster(g, runtime.Config{
			NumHosts: hosts, ThreadsPerHost: c.Threads,
		})
		if err != nil {
			panic(err)
		}
		out := make([]bool, g.NumNodes())
		cw := npm.BeginConflictWindow()
		var ms0, ms1 gort.MemStats
		gort.ReadMemStats(&ms0)
		start := time.Now()
		cluster.Run(func(h *runtime.Host) {
			algorithms.MIS(h, algorithms.Config{}, out)
		})
		wall := time.Since(start)
		gort.ReadMemStats(&ms1)
		msgs, bytes := cluster.CommStats()
		tm, tb := cluster.CommStatsByTag()
		conflicts := cw.End()
		cluster.Close()
		if best < 0 || wall < best {
			best = wall
			rec.WallNsPerOp = float64(wall.Nanoseconds())
			rec.CommMessages = msgs
			rec.CommBytes = bytes
			rec.CommTagMessages, rec.CommTagBytes = tagBreakdown(
				make([]int64, len(tm)), tm, make([]int64, len(tb)), tb, 1)
			rec.Conflicts = conflicts
			rec.AllocsPerOp = float64(ms1.Mallocs - ms0.Mallocs)
		}
	}
	return rec
}

// sumRounds folds the per-host round logs into cluster-wide totals.
// Rounds are collective, so every host logs the same sequence length.
func sumRounds(perHost []algorithms.RoundStats) (active, bytes []int64, hook []bool) {
	rounds := len(perHost[0].Active)
	active = make([]int64, rounds)
	bytes = make([]int64, rounds)
	for r := 0; r < rounds; r++ {
		for _, st := range perHost {
			active[r] += st.Active[r]
			bytes[r] += st.ReduceBytes[r]
		}
	}
	return active, bytes, perHost[0].Hook
}
