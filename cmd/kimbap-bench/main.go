// Command kimbap-bench regenerates the paper's evaluation tables and
// figures (§6) on the simulated cluster.
//
//	kimbap-bench -exp all -scale small          # quick pass over everything
//	kimbap-bench -exp fig11 -scale full -reps 3 # the §6.4 ablation
//
// Experiments: table1, table2, table3, fig9, fig10, fig11, fig12,
// readlocality, policies, memory, abstraction — or "all".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"kimbap/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over its arguments; it returns the exit status. A bad
// flag value ends it with a one-line error on stderr and status 2, before
// any experiment runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kimbap-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment name or 'all'")
		scale   = fs.String("scale", "small", "workload scale: small or full")
		threads = fs.Int("threads", 4, "worker threads per simulated host")
		reps    = fs.Int("reps", 1, "timing repetitions (fastest kept)")
		outPath = fs.String("o", "", "write output to file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*exp}
	if *exp == "all" {
		names = bench.Experiments
	}
	switch {
	case *exp != "all" && !slices.Contains(bench.Experiments, *exp):
		fmt.Fprintf(stderr, "kimbap-bench: unknown experiment %q (have %v or all)\n", *exp, bench.Experiments)
		return 2
	case bench.Scale(*scale) != bench.Small && bench.Scale(*scale) != bench.Full:
		fmt.Fprintf(stderr, "kimbap-bench: unknown scale %q (want %s or %s)\n", *scale, bench.Small, bench.Full)
		return 2
	case *threads < 1:
		fmt.Fprintf(stderr, "kimbap-bench: -threads %d: need at least one thread\n", *threads)
		return 2
	case *reps < 1:
		fmt.Fprintf(stderr, "kimbap-bench: -reps %d: need at least one repetition\n", *reps)
		return 2
	}

	w := stdout
	var f *os.File
	if *outPath != "" {
		var err error
		if f, err = os.Create(*outPath); err != nil {
			fmt.Fprintln(stderr, "kimbap-bench:", err)
			return 1
		}
		defer f.Close() // error paths only; the success path checks Close below
		w = io.MultiWriter(stdout, f)
	}

	cfg := bench.Config{Scale: bench.Scale(*scale), Threads: *threads, Reps: *reps}
	for _, name := range names {
		start := time.Now()
		if err := bench.Run(w, name, cfg); err != nil {
			fmt.Fprintln(stderr, "kimbap-bench:", err)
			return 1
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "kimbap-bench:", err)
			return 1
		}
	}
	return 0
}
