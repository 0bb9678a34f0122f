package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpec(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("illegal name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var wls []string
	for _, w := range s.Workloads {
		use(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !slices.Equal(wls, code) {
		t.Errorf("spec workloads %v, code runs %v", wls, code)
	}

	var setupBound, maxBound float64
	var e2e []metricDef
	for _, m := range s.EndToEnd {
		use(m.Name)
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (have %v, max %v)", setupBound, maxBound)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("spec end_to_end %v, code emits %v", e2e, endToEnd)
	}
	for _, m := range s.PerLayer {
		use(m.Name)
	}
	if !slices.Equal(s.PerLayer, layerMetrics()) {
		got, _ := json.Marshal(layerMetrics())
		t.Errorf("spec per_layer differs from what the code emits; the code emits:\n%s", got)
	}
}

func runSmall(t *testing.T, w *workload, trace bool) *record {
	t.Helper()
	dir := t.TempDir()
	rec, err := run(w, runOptions{seed: 1, minJobs: 2, maxJobs: 2, trace: trace, small: true,
		dir: dir, tracePath: filepath.Join(dir, "trace.json")})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ops == 0 || rec.OpsFailed != 0 {
		t.Fatalf("%d of %d ops failed", rec.OpsFailed, rec.Ops)
	}
	return rec
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	slices.Sort(names)
	return names
}

func keys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// TestWorkloadsSmall runs every workload on a shrunken graph: no op fails,
// the emitted metric names are exactly the declared ones, and the counts
// (rounds, comm bytes, replication, modularity) repeat exactly.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runSmall(t, w, false)
			if got, want := keys(plain.Metrics), metricNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("untraced run emits %v, want %v", got, want)
			}
			for _, m := range endToEnd {
				if plain.Metrics[m.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, plain.Metrics[m.Name])
				}
			}

			first, second := runSmall(t, w, true), runSmall(t, w, true)
			if got, want := keys(first.Metrics), metricNames(layerMetrics()); !slices.Equal(got, want) {
				t.Errorf("traced run emits %v, want %v", got, want)
			}
			for _, a := range w.algos {
				if k := "algorithms." + string(a) + ".rounds"; first.Metrics[k] <= 0 {
					t.Errorf("%s = %v, want > 0", k, first.Metrics[k])
				}
			}
			for name, v := range first.Metrics {
				exact := strings.HasSuffix(name, ".rounds") || strings.HasSuffix(name, ".levels") ||
					strings.HasPrefix(name, "comm.") || name == "partition.replication" ||
					strings.HasSuffix(name, "_frac") && !strings.HasSuffix(name, ".busy_frac")
				if exact && second.Metrics[name] != v {
					t.Errorf("%s: %v then %v, want identical", name, v, second.Metrics[name])
				}
				// graph.Modularity sums over a Go map, so only the last
				// bits may differ between runs.
				if strings.HasSuffix(name, ".modularity") && math.Abs(second.Metrics[name]-v) > 1e-12 {
					t.Errorf("%s: %v then %v, want equal to 1e-12", name, v, second.Metrics[name])
				}
			}

			data, err := os.ReadFile(first.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ TraceEvents []traceEvent }
			if err := json.Unmarshal(data, &tr); err != nil {
				t.Fatal(err)
			}
			spans := map[string]int{}
			for _, e := range tr.TraceEvents {
				spans[e.Name]++
			}
			for _, name := range append([]string{"job", "graph.load", "verify"}, algoNames(w)...) {
				if spans[name] != 1 { // one traced job of two
					t.Errorf("trace has %d %q spans, want 1", spans[name], name)
				}
			}
		})
	}
}

func algoNames(w *workload) []string {
	var names []string
	for _, a := range w.algos {
		names = append(names, string(a))
	}
	return names
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.00}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{1.02, 1.03, 1.01, 1.02, 1.02}, "lower", "within"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.20}, "lower", "worse"},
		{[]float64{0.80, 0.81, 0.79, 0.80, 0.80}, "lower", "better"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.20}, "higher", "better"},
		{[]float64{0.5, 1.5, 1.0, 2.0, 0.7}, "lower", "unresolved"},
	} {
		if got := verdict(steady, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}
