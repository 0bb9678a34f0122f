package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"time"

	"kimbap/internal/graph"
)

// runOptions configures one benchmark run.
type runOptions struct {
	seed   int64
	budget time.Duration
	// minJobs is run even past the budget; maxJobs (0 = none) caps a run
	// regardless of the budget (the tests use it).
	minJobs, maxJobs int
	trace            bool
	small            bool
	dir              string // where the generated graph file goes
	tracePath        string // where a traced run writes its trace
}

// env records the host and the run, so results from different hosts or
// commits are never compared unknowingly.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"revision"`
	Seed       int64  `json:"seed"`
	Jobs       int    `json:"jobs"`
	StartTime  string `json:"start_time"`
}

// record is everything one run measured; main prints it as a JSON line
// before the result line, and -compare reads it back.
type record struct {
	Env      env    `json:"env"`
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// GenS is the untimed generate-and-write time; RefS the sequential
	// reference computations, a host-speed canary.
	GenS      float64 `json:"gen_s"`
	RefS      float64 `json:"ref_s"`
	Ops       int     `json:"ops"`
	OpsFailed int     `json:"ops_failed"`
	// Samples holds each end-to-end metric's per-job values.
	Samples   map[string][]float64 `json:"samples"`
	Metrics   map[string]float64   `json:"metrics"`
	TraceFile string               `json:"trace_file,omitempty"`
}

// run generates the workload's graph, writes it to a file (untimed), then
// runs jobs back to back — a closed loop with one client, an untimed GC
// between jobs — until the budget is spent. In a traced run every other
// job is traced, so the per-layer metrics (medians over traced jobs) and
// the tracing overhead come from one process.
func run(w *workload, opts runOptions) (*record, error) {
	rec := &record{Workload: w.name, Traced: opts.trace, Env: hostEnv(opts.seed)}
	if opts.trace {
		// The overhead ratio needs a traced and an untraced job.
		opts.minJobs = max(opts.minJobs, 2)
		if opts.maxJobs > 0 {
			opts.maxJobs = max(opts.maxJobs, 2)
		}
	}
	start := time.Now()
	g := w.build(opts.seed, opts.small)
	path := filepath.Join(opts.dir, "graph."+string(w.format))
	if err := writeGraph(path, w.format, g); err != nil {
		return nil, err
	}
	rec.GenS = time.Since(start).Seconds()
	runner := &jobRunner{w: w, path: path, refs: computeRefs(w, g)}
	rec.RefS = runner.refs.seconds

	runner.heap = startHeapSampler()
	defer runner.heap.close()
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}

	rec.Samples = make(map[string][]float64)
	sample := func(name string, v float64) { rec.Samples[name] = append(rec.Samples[name], v) }
	var jobWalls, solveTraced, solveUntraced []float64
	var traced []map[string]float64
	loopStart := time.Now()
	for n := 0; opts.maxJobs == 0 || n < opts.maxJobs; n++ {
		// Start another job only if a typical one still fits the budget.
		if n >= opts.minJobs && time.Since(loopStart).Seconds()+median(jobWalls) > opts.budget.Seconds() {
			break
		}
		goruntime.GC()
		isTraced := opts.trace && n%2 == 0
		jobTr := tr
		if !isTraced {
			jobTr = nil
		}
		t := time.Now()
		jr, err := runner.run(isTraced, jobTr)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", n, err)
		}
		jobWalls = append(jobWalls, time.Since(t).Seconds())
		sample("setup_s", jr.setup)
		sample("solve_s", jr.solve)
		sample("cpu_s", jr.cpu)
		sample("peak_heap_mb", jr.peakHeapMB)
		rec.Ops += jr.ops
		rec.OpsFailed += jr.failed
		if isTraced {
			traced = append(traced, jr.layer)
			solveTraced = append(solveTraced, jr.solve)
		} else {
			solveUntraced = append(solveUntraced, jr.solve)
		}
	}
	rec.Env.Jobs = len(jobWalls)

	rec.Metrics = make(map[string]float64)
	if !opts.trace {
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = median(rec.Samples[m.Name])
		}
		return rec, nil
	}
	for _, m := range layerMetrics() {
		xs := make([]float64, len(traced))
		for i, l := range traced {
			xs[i] = l[m.Name]
		}
		rec.Metrics[m.Name] = median(xs)
	}
	if len(solveUntraced) > 0 {
		rec.Metrics["trace.overhead"] = median(solveTraced) / median(solveUntraced)
	}
	rec.TraceFile = opts.tracePath
	return rec, tr.write(opts.tracePath)
}

func writeGraph(path string, format fileFormat, g *graph.Graph) error {
	switch format {
	case kmb2File:
		if err := graph.SaveKMB2(path, g, 0); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		return nil
	case textFile:
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := graph.WriteEdgeList(f, g); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		return f.Close()
	}
	return fmt.Errorf("unknown format %q", format)
}

func hostEnv(seed int64) env {
	e := env{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		CPUModel:   "unknown",
		Revision:   "unknown",
		Seed:       seed,
		StartTime:  time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && e.Revision != "unknown" {
			e.Revision += "-dirty"
		}
	}
	return e
}
