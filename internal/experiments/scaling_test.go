package experiments

import (
	"math"
	"reflect"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/units"
)

// scaledGraph returns a copy of g with every operator and edge time
// multiplied by s.
func scaledGraph(g *graph.Graph, s float64) *graph.Graph {
	h := graph.New(g.NumOps(), g.NumEdges())
	for _, op := range g.Ops() {
		op.Time *= s
		h.AddOp(op)
	}
	for _, e := range g.Edges() {
		h.AddEdge(e.From, e.To, e.Time*s)
	}
	return h.MustFinalize()
}

// TestTimeScalingIsExact is a metamorphic check of the whole pipeline:
// the contention model and every scheduler are homogeneous in time, so
// scaling every operator and edge time by a power of two (which rounds
// nothing) must give bit-identical schedules, a latency scaled by exactly
// that power, and a simulated makespan scaled by exactly that power, for
// all six algorithms on 12 paper random graphs at 4 GPUs.
func TestTimeScalingIsExact(t *testing.T) {
	const gpus = 4
	for seed := int64(1); seed <= 12; seed++ {
		cfg := randdag.Paper()
		cfg.Seed = seed
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		for _, algo := range AllAlgorithms {
			base, err := Run(algo, g, m, RunConfig{GPUs: gpus})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, algo, err)
			}
			baseTrace, err := sim.Run(g, m, base.Schedule)
			if err != nil {
				t.Fatalf("seed %d %s: simulate: %v", seed, algo, err)
			}
			for _, k := range []int{-2, 2, 10} {
				s := math.Ldexp(1, k)
				sg := scaledGraph(g, s)
				sm := cost.FromGraph(sg, cost.DefaultContention())
				res, err := Run(algo, sg, sm, RunConfig{GPUs: gpus})
				if err != nil {
					t.Fatalf("seed %d %s ×2^%d: %v", seed, algo, k, err)
				}
				if !reflect.DeepEqual(res.Schedule, base.Schedule) {
					t.Errorf("seed %d %s ×2^%d: schedule %v, unscaled %v", seed, algo, k, res.Schedule, base.Schedule)
					continue
				}
				if want := base.Latency * units.Millis(s); res.Latency != want { //lint:floatexact scaling by a power of two is exact
					t.Errorf("seed %d %s ×2^%d: latency %v, want exactly %v", seed, algo, k, res.Latency, want)
				}
				tr, err := sim.Run(sg, sm, res.Schedule)
				if err != nil {
					t.Fatalf("seed %d %s ×2^%d: simulate: %v", seed, algo, k, err)
				}
				if want := baseTrace.Latency * units.Millis(s); tr.Latency != want { //lint:floatexact scaling by a power of two is exact
					t.Errorf("seed %d %s ×2^%d: simulated makespan %v, want exactly %v", seed, algo, k, tr.Latency, want)
				}
			}
		}
	}
}
