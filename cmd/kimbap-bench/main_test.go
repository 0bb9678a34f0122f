package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagValidation: every bad flag value ends the command with exit
// 2 and one kimbap-bench: line on stderr, before any experiment runs (so
// with nothing on stdout); the good case writes the same tables to stdout
// and to the -o file.
func TestRunFlagValidation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "table2.txt")
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"unknown-scale", []string{"-scale", "foo"}, 2},
		{"negative-threads", []string{"-threads", "-1"}, 2},
		{"zero-threads", []string{"-threads", "0"}, 2},
		{"zero-reps", []string{"-reps", "0"}, 2},
		{"unknown-experiment", []string{"-exp", "perf"}, 2},
		{"table2", []string{"-exp", "table2", "-threads", "2", "-o", out}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			msg := stderr.String()
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr %q", code, tc.code, msg)
			}
			if code != 0 {
				if !strings.HasPrefix(msg, "kimbap-bench: ") || strings.Count(msg, "\n") != 1 || stdout.Len() != 0 {
					t.Errorf("stderr %q, stdout %d bytes; want one kimbap-bench: line and no output", msg, stdout.Len())
				}
				return
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stdout.String(), "Table 2") || !bytes.Equal(got, stdout.Bytes()) {
				t.Errorf("-o file (%d bytes) differs from stdout (%d bytes) or lacks Table 2", len(got), stdout.Len())
			}
		})
	}
}
