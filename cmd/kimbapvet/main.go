// Command kimbapvet runs Kimbap's custom static analyzers over the
// module:
//
//	go run ./cmd/kimbapvet ./...
//
// It checks the concurrency, communication, and operator invariants the
// Go compiler cannot see (see DESIGN.md "Checked invariants"):
// bufownership, cautiousop, conflictfree, deterministic, lockdiscipline,
// and phaseorder. Patterns default to ./...; -only runs a comma-separated
// subset of analyzers; -json emits one JSON record per diagnostic for CI
// tooling. The exit status is 1 if any
// diagnostic is reported, 2 on usage or load errors.
//
// Diagnostics are suppressed by a //kimbapvet:ignore directive on the
// offending line or the line above; the directive must carry a reason
// after " -- " or it is itself reported.
//
// kimbapvet must run from inside the module (it resolves packages with
// `go list` and type-checks them from source, fully offline).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kimbap/internal/analysis/bufownership"
	"kimbap/internal/analysis/cautiousop"
	"kimbap/internal/analysis/checker"
	"kimbap/internal/analysis/conflictfree"
	"kimbap/internal/analysis/deterministic"
	"kimbap/internal/analysis/framework"
	"kimbap/internal/analysis/load"
	"kimbap/internal/analysis/lockdiscipline"
	"kimbap/internal/analysis/phaseorder"
)

var all = []*framework.Analyzer{
	bufownership.Analyzer,
	cautiousop.Analyzer,
	conflictfree.Analyzer,
	deterministic.Analyzer,
	lockdiscipline.Analyzer,
	phaseorder.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON records ({analyzer,pos,message}, one per line)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kimbapvet [-only a,b] [-json] [-list] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "kimbapvet: unknown analyzer %q (run -list for names)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			fmt.Fprintf(os.Stderr, "kimbapvet: -only named no analyzers\n")
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := load.NewProgram()
	if err != nil {
		fmt.Fprintf(os.Stderr, "kimbapvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := prog.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kimbapvet: %v\n", err)
		os.Exit(2)
	}
	diags, err := checker.Run(prog, pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kimbapvet: %v\n", err)
		os.Exit(2)
	}
	print := checker.Print
	if *jsonOut {
		print = checker.PrintJSON
	}
	if print(os.Stdout, prog.Fset, diags) {
		os.Exit(1)
	}
}
