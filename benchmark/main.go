// Command benchmark is kimbap's end-to-end benchmark: edge file to
// verified result, for the paper's workloads on its two graph classes
// (road networks and power-law graphs, Fig. 9-10), with the per-layer
// split of Fig. 11 from a separate traced run. README.md has the
// workloads, the metrics and how to run it.
//
//	bash benchmark/run.sh --workload road --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --compare runsA.txt runsB.txt
//
// A run prints a record line (environment, per-job samples, reference
// time) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"
)

// workDir holds everything a run writes, relative to the checkout root.
const workDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "workload: road, social, social-shm, community")
		seed     = flag.Int64("seed", 1, "seed the workload's graph is generated from")
		seconds  = flag.Float64("seconds", 20, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace in "+workDir)
		compare  = flag.Bool("compare", false, "compare two files of run output: -compare <runsA> <runsB>")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark spec holding the bounds -compare judges by")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(2, "-compare needs two files of run output")
		}
		if err := compareRuns(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(1, err.Error())
		}
		return
	}
	w, err := workloadByName(*workload)
	if err != nil {
		fail(2, err.Error())
	}
	if *trace != 0 && *trace != 1 {
		fail(2, "--trace takes 0 or 1")
	}
	if p := goruntime.GOMAXPROCS(0); p < 2 {
		fail(2, fmt.Sprintf("GOMAXPROCS is %d; every workload runs 2 workers and needs 2 cores", p))
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fail(1, err.Error())
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fail(1, err.Error())
	}
	rec, err := run(w, runOptions{
		seed:      *seed,
		budget:    time.Duration(*seconds * float64(time.Second)),
		minJobs:   3,
		trace:     *trace == 1,
		dir:       dir,
		tracePath: filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)),
	})
	os.RemoveAll(dir)
	if err != nil {
		fail(1, err.Error())
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d jobs, %d/%d ops failed\n",
		w.name, *seed, rec.Env.Jobs, rec.OpsFailed, rec.Ops)
	if err := printResult(rec); err != nil {
		fail(1, err.Error())
	}
	if rec.OpsFailed > 0 {
		os.Exit(1)
	}
}

// printResult prints the record line, then the result line the driver
// reads (the last line of standard output).
func printResult(rec *record) error {
	defs := endToEnd
	if rec.Traced {
		defs = layerMetrics()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   rec.OpsFailed == 0,
		"attempted": rec.Ops,
		"failed":    rec.OpsFailed,
		"metrics":   metrics,
	})
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}
