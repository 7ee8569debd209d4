package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// side is one result file: metric values per workload, in file order.
type side map[string]map[string][]float64

// readResults collects the runs in a file of concatenated run outputs:
// each result line belongs to the environment line before it. It returns
// the core counts of every run, so results from different machines are
// never compared.
func readResults(path string) (side, [][2]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	s := side{}
	var cores [][2]int
	var cur *env
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"env"`)):
			var e envLine
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			cur = &e.Env
			cores = append(cores, [2]int{e.Env.NProc, e.Env.GOMAXPROCS})
		case bytes.HasPrefix(line, []byte(`{"correct"`)):
			var r resultLine
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			if cur == nil {
				return nil, nil, fmt.Errorf("%s: result without an environment line", path)
			}
			if s[cur.Workload] == nil {
				s[cur.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				s[cur.Workload][name] = append(s[cur.Workload][name], v.Value)
			}
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, cores, nil
}

// compare prints each side's median and quartiles per metric and
// workload. With two sides it flags every end-to-end metric whose second
// median is worse than the first by more than its bound, and exits 1 if
// any is. It refuses results taken at different core counts.
func compare(specPath string, files []string, out io.Writer) (int, error) {
	if len(files) < 1 || len(files) > 2 {
		return 2, fmt.Errorf("-compare takes one or two result files")
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return 2, err
	}
	var sides []side
	var cores [][2]int
	for _, f := range files {
		s, c, err := readResults(f)
		if err != nil {
			return 2, err
		}
		sides = append(sides, s)
		cores = append(cores, c...)
	}
	for _, c := range cores {
		if c != cores[0] {
			return 2, fmt.Errorf("refusing to compare results taken at different core counts: nproc/GOMAXPROCS %d/%d and %d/%d",
				cores[0][0], cores[0][1], c[0], c[1])
		}
	}

	type row struct {
		name, unit, better string
		bound              float64 // 0 for per-layer metrics, which have none
	}
	var rows []row
	for _, m := range sp.EndToEnd {
		rows = append(rows, row{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range sp.PerLayer {
		rows = append(rows, row{m.Name, m.Unit, m.Better, 0})
	}
	var b strings.Builder
	regressions := 0
	for _, wl := range sp.Workloads {
		fmt.Fprintf(&b, "== %s\n", wl.Name)
		for _, r := range rows {
			var cells []string
			var medians []float64
			for _, s := range sides {
				xs := s[wl.Name][r.name]
				if len(xs) == 0 {
					cells = append(cells, fmt.Sprintf("%-40s", "-"))
					continue
				}
				q := quartiles(xs)
				medians = append(medians, percentile(xs, 50))
				cells = append(cells, fmt.Sprintf("%-40s", fmt.Sprintf("%.6g [%.6g, %.6g] n=%d spread %.3f",
					percentile(xs, 50), q[0], q[2], len(xs), ratio(q[2]-q[0], percentile(xs, 50)))))
			}
			if len(medians) == 0 {
				continue
			}
			verdict := ""
			if len(medians) == 2 && medians[0] != 0 {
				change := medians[1]/medians[0] - 1
				if r.better == "higher" {
					change = -change
				}
				verdict = fmt.Sprintf("worse by %+.3f", change)
				if r.bound > 0 && change > r.bound {
					verdict += fmt.Sprintf("  REGRESSION (bound %.2f)", r.bound)
					regressions++
				}
			}
			fmt.Fprintf(&b, "%-34s %-6s %s %s\n", r.name, r.unit, strings.Join(cells, " "), verdict)
		}
	}
	if _, err := io.WriteString(out, b.String()); err != nil {
		return 2, err
	}
	if regressions > 0 {
		return 1, nil
	}
	return 0, nil
}
