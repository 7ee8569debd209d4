package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/experiments"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/units"
)

func fixture(t *testing.T) (*graph.Graph, cost.Model, *sched.Schedule, units.Millis) {
	t.Helper()
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 20, 4, 40, 7
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := experiments.Run(experiments.AlgoHIOSLP, g, m, experiments.RunConfig{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g, m, res.Schedule, res.Latency
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	g, m, s, lat := fixture(t)
	data, err := MarshalSchedule(g, s, "test-model", "hios-lp", lat)
	if err != nil {
		t.Fatal(err)
	}
	back, meta, err := UnmarshalSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Model != "test-model" || meta.Algorithm != "hios-lp" || meta.LatencyMs != lat {
		t.Fatalf("metadata lost: %+v", meta)
	}
	if back.String() != s.String() {
		t.Fatalf("round trip changed the schedule:\n%s\n%s", s, back)
	}
	// The round-tripped schedule must still evaluate identically.
	lat2, err := sched.Latency(g, m, back)
	if err != nil {
		t.Fatal(err)
	}
	if lat2 != lat {
		t.Fatalf("latency changed through JSON: %g vs %g", lat2, lat)
	}
}

func TestMarshalIncludesNames(t *testing.T) {
	g, _, s, lat := fixture(t)
	data, err := MarshalSchedule(g, s, "m", "a", lat)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"names"`) {
		t.Fatal("schedule JSON lacks operator names")
	}
	// Without a graph, names are omitted.
	data, err = MarshalSchedule(nil, s, "m", "a", lat)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"names"`) {
		t.Fatal("nil graph should omit names")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, _, err := UnmarshalSchedule([]byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	if _, _, err := UnmarshalSchedule([]byte(`{"gpus":[{"gpu":-1,"stages":[]}]}`)); err == nil {
		t.Fatal("accepted negative GPU index")
	}
}

func TestChromeTrace(t *testing.T) {
	g, m, s, _ := fixture(t)
	tr, err := sim.Run(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ChromeTrace(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(events) < g.NumOps()/4 {
		t.Fatalf("suspiciously few events: %d", len(events))
	}
	stages, transfers := 0, 0
	for _, e := range events {
		switch e["cat"] {
		case "stage":
			stages++
		case "transfer":
			transfers++
		}
		if e["ph"] != "X" {
			t.Fatalf("unexpected phase: %v", e)
		}
	}
	if stages == 0 {
		t.Fatal("no stage events")
	}
	if s.UsedGPUs() > 1 && transfers == 0 {
		t.Fatal("multi-GPU trace has no transfer events")
	}
}
