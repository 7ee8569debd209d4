package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's workload
// and metric lists equal, so names cannot drift between them.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(sp.EndToEnd), len(endToEnd))
	}
	for i, m := range sp.EndToEnd {
		if got := (metric{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, endToEnd[i])
		}
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		if got := (metric{m.Name, m.Unit, m.Better, 0}); got != perLayer[i].metric {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, perLayer[i].metric)
		}
	}
}

// TestSmoke runs every workload for two requests, untraced and traced,
// and checks the result line against the metric lists and the trace's
// self times against the measured request times.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = nil
				for _, m := range perLayer {
					want = append(want, m.metric)
				}
			}
			var stderr bytes.Buffer
			r, err := run(config{workload: w.name, seed: 1, seconds: 60, trace: traced, requests: 2}, &stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if r.attempted != 2 || r.failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed: %s", w.name, traced, r.attempted, r.failed, stderr.String())
			}

			var out bytes.Buffer
			if err := r.write(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var keys map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", w.name, traced, err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s trace=%v: result keys %v", w.name, traced, keys)
			}
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct=%v with %d metrics, want %d", w.name, traced, res.Correct, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, traced, m.name, v, ok, m.unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.name, v.Value)
				}
			}

			if !traced {
				continue
			}
			if len(r.tracedReqs) == 0 {
				t.Errorf("%s: no traced request", w.name)
			}
			self := r.rec.selfTimes()
			for _, q := range r.tracedReqs {
				var sum time.Duration
				for i, s := range r.rec.spans {
					if s.root == q.root {
						sum += self[i]
					}
				}
				if d := math.Abs(float64(sum-q.wall)) / float64(q.wall); d > 0.01 {
					t.Errorf("%s: request %d: span self times sum to %v, request took %v", w.name, r.rec.spans[q.root].req, sum, q.wall)
				}
			}
		}
	}
}
