package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kimbap/internal/algorithms"
)

func TestAllConverged(t *testing.T) {
	cc := func(s algorithms.CCStats) bool { return s.Converged }
	for _, tc := range []struct {
		name  string
		stats []algorithms.CCStats
		want  bool
	}{
		{"every host", []algorithms.CCStats{{Converged: true}, {Converged: true}, {Converged: true}}, true},
		{"one host cut off", []algorithms.CCStats{{Converged: true}, {Converged: false}, {Converged: true}}, false},
		{"last host cut off", []algorithms.CCStats{{Converged: true}, {Converged: false}}, false},
		{"single host", []algorithms.CCStats{{Converged: true}}, true},
	} {
		if got := allConverged(tc.stats, cc); got != tc.want {
			t.Errorf("%s: allConverged = %v, want %v", tc.name, got, tc.want)
		}
	}
	cd := func(r algorithms.CDResult) bool { return r.Converged }
	if allConverged([]algorithms.CDResult{{Converged: false}}, cd) {
		t.Error("a cut-off Louvain result reported converged")
	}
	if !allConverged([]algorithms.CDResult{{Converged: true}}, cd) {
		t.Error("a converged Louvain result reported cut off")
	}
}

// Bad flag values end the command with a one-line "kimbap:" error and a
// non-zero status; none may reach a panic in the partitioner, the map
// constructor or the per-host result slices. The good cases run the same
// graph to a verified result, so the rejections come from the flag values
// alone.
func TestRunFlagValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "square.el")
	// A 4-cycle, both directions of every edge.
	if err := os.WriteFile(path, []byte("0 1\n1 0\n1 2\n2 1\n2 3\n3 2\n3 0\n0 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The same cycle one way round: CC-SV would report 3 components and
	// MIS an invalid set, so the load must refuse it.
	oneWay := filepath.Join(dir, "oneway.el")
	if err := os.WriteFile(oneWay, []byte("0 1\n1 2\n2 3\n3 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-policy", "foo"}, false},
		{[]string{"-variant", "foo"}, false},
		{[]string{"-hosts", "-2"}, false},
		{[]string{"-threads", "-1"}, false},
		{[]string{"-hosts", "0"}, false},
		{[]string{"-algo", "lv", "-threads", "-1"}, false},
		{[]string{"-hosts", "1", "-policy", "oec"}, true},
		{[]string{"-hosts", "2", "-variant", "vite", "-algo", "mis"}, true},
		{[]string{"-hosts", "2", "-variant", "memcached"}, true},
		{[]string{"-graph", oneWay, "-hosts", "1", "-policy", "oec", "-algo", "cc-sv"}, false},
		{[]string{"-graph", oneWay, "-hosts", "1", "-algo", "mis"}, false},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-graph", path, "-threads", "1", "-verify"}, tc.args...), &stdout, &stderr)
		msg := stderr.String()
		switch {
		case tc.ok && code != 0:
			t.Errorf("%v: exit %d, stderr %q", tc.args, code, msg)
		case !tc.ok && (code == 0 || !strings.HasPrefix(msg, "kimbap: ") || strings.Count(msg, "\n") != 1):
			t.Errorf("%v: exit %d, stderr %q; want non-zero and one kimbap: line", tc.args, code, msg)
		case slices.Contains(tc.args, oneWay) && !strings.Contains(msg, "one-way edge 0->1"):
			t.Errorf("%v: stderr %q does not name the one-way edge 0->1", tc.args, msg)
		}
	}
}
