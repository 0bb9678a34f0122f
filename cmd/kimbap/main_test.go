package main

import (
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
