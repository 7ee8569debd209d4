package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", q)
	}
}

// results writes a file of run outputs: one run per value of req_cost_p50.
func results(t *testing.T, nproc int, values ...float64) string {
	t.Helper()
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, `{"env":{"workload":"plan-random","nproc":%d,"gomaxprocs":%d}}`+"\n", nproc, nproc)
		fmt.Fprintf(&b, "req_cost_p50 %v ref\n", v)
		fmt.Fprintf(&b, `{"correct":true,"attempted":1,"failed":0,"metrics":{"req_cost_p50":{"value":%v,"unit":"ref"}}}`+"\n", v)
	}
	path := filepath.Join(t.TempDir(), "runs.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := results(t, 2, 100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name   string
		change string
		code   int
		want   string
	}{
		{"within bound", results(t, 2, 105, 104, 106, 105, 103), 0, "worse by +0.050"},
		{"regression", results(t, 2, 140, 141, 139, 140, 142), 1, "REGRESSION"},
		{"other core count", results(t, 4, 100, 100, 100), 2, ""},
	} {
		var out strings.Builder
		code, err := compare("../BENCHMARK.json", []string{base, tc.change}, &out)
		if code != tc.code {
			t.Errorf("%s: exit %d (%v), want %d\n%s", tc.name, code, err, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}
