package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// readRecords returns the record lines in a file of run output (the
// standard output of any number of runs, concatenated).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"record":`)) {
			continue
		}
		var l struct{ Record record }
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, l.Record)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return recs, nil
}

// verdict judges side B against side A by a metric's bound: unresolved
// when either side's spread over runs exceeds the bound, else worse or
// better when B's median moved past the bound, else within.
func verdict(a, b []float64, better string, bound float64) string {
	if bound == 0 {
		return "-"
	}
	if spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "-"
	}
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within"
}

// compareRuns prints, for every (workload, metric) pair both files hold,
// each side's median and quartiles over runs, the ratio B/A and the
// verdict against the spec's bound, then each run's ref_s.
func compareRuns(out io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	defs := map[string]boundedMetric{}
	var order []string
	for _, m := range spec.EndToEnd {
		defs[m.Name] = m
		order = append(order, m.Name)
	}
	for _, m := range spec.PerLayer {
		defs[m.Name] = boundedMetric{metricDef: m}
		order = append(order, m.Name)
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	a, b := byWorkload(recsA), byWorkload(recsB)
	values := func(recs []record, name string) []float64 {
		var xs []float64
		for _, r := range recs {
			if v, ok := r.Metrics[name]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	quart := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB/A\tbound\tverdict")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, name := range order {
			xa, xb := values(ra, name), values(rb, name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			d := defs[name]
			ratio := "-"
			if ma := median(xa); ma != 0 {
				ratio = fmt.Sprintf("%.3f", median(xb)/ma)
			}
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl.Name, name, quart(xa), quart(xb),
				ratio, bound, verdict(xa, xb, d.Better, d.Bound))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nref_s per run (sequential reference time; a host-speed canary):")
	for _, wl := range spec.Workloads {
		for i, recs := range [][]record{a[wl.Name], b[wl.Name]} {
			if len(recs) == 0 {
				continue
			}
			refs := make([]string, len(recs))
			for j, r := range recs {
				refs[j] = fmt.Sprintf("%.3f", r.RefS)
			}
			fmt.Fprintf(out, "  %s %s: %s\n", wl.Name, "AB"[i:i+1], strings.Join(refs, " "))
		}
	}
	return nil
}
