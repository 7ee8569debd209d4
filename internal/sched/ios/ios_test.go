package ios

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/seq"
	"github.com/shus-lab/hios/internal/units"
)

func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4, 4)
	a := g.AddOp(graph.Op{Name: "a", Time: 1, Util: 0.3})
	b := g.AddOp(graph.Op{Name: "b", Time: 2, Util: 0.3})
	c := g.AddOp(graph.Op{Name: "c", Time: 2, Util: 0.3})
	d := g.AddOp(graph.Op{Name: "d", Time: 1, Util: 0.3})
	g.AddEdge(a, b, 0.5)
	g.AddEdge(a, c, 0.5)
	g.AddEdge(b, d, 0.5)
	g.AddEdge(c, d, 0.5)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkPartition asserts that blocks partition g's operators into
// non-empty blocks.
func checkPartition(t *testing.T, g *graph.Graph, blocks [][]graph.OpID) {
	t.Helper()
	seen := make([]bool, g.NumOps())
	n := 0
	for bi, b := range blocks {
		if len(b) == 0 {
			t.Fatalf("block %d of %v is empty", bi, blocks)
		}
		for _, v := range b {
			if seen[v] {
				t.Fatalf("operator %d in two blocks of %v", v, blocks)
			}
			seen[v] = true
			n++
		}
	}
	if n != g.NumOps() {
		t.Fatalf("blocks %v cover %d of %d operators", blocks, n, g.NumOps())
	}
}

func TestBlocksChain(t *testing.T) {
	g := graph.New(4, 3)
	for i := 0; i < 4; i++ {
		g.AddOp(graph.Op{Time: 1})
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	g.MustFinalize()
	blocks := Blocks(g)
	if len(blocks) != 4 {
		t.Fatalf("chain should split into 4 blocks, got %v", blocks)
	}
	checkPartition(t, g, blocks)

	// Two sources joining a chain: a leading block before the first
	// separator, then one block per separator.
	g = graph.New(4, 3)
	for i := 0; i < 4; i++ {
		g.AddOp(graph.Op{Time: 1})
	}
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	g.MustFinalize()
	blocks = Blocks(g)
	if len(blocks) != 3 || len(blocks[0]) != 2 {
		t.Fatalf("join blocks = %v, want [[0 1] [2] [3]] up to order", blocks)
	}
	checkPartition(t, g, blocks)

	for seed := int64(1); seed <= 8; seed++ {
		cfg := randdag.Paper()
		cfg.Seed = seed
		g := randdag.MustGenerate(cfg)
		checkPartition(t, g, Blocks(g))
	}
}

func TestBlocksDiamond(t *testing.T) {
	g := diamond(t)
	blocks := Blocks(g)
	// Separators: a and d. Blocks: {a, b, c} then {d}.
	if len(blocks) != 2 {
		t.Fatalf("diamond blocks = %v, want 2", blocks)
	}
	if len(blocks[0]) != 3 || blocks[0][0] != 0 {
		t.Fatalf("first block = %v, want [a b c]", blocks[0])
	}
	if len(blocks[1]) != 1 || blocks[1][0] != 3 {
		t.Fatalf("second block = %v, want [d]", blocks[1])
	}
	checkPartition(t, g, blocks)
}

func TestBlocksNoSeparator(t *testing.T) {
	// Two disjoint ops: neither is comparable to the other, one block.
	g := graph.New(2, 0)
	g.AddOp(graph.Op{Time: 1})
	g.AddOp(graph.Op{Time: 1})
	g.MustFinalize()
	blocks := Blocks(g)
	if len(blocks) != 1 || len(blocks[0]) != 2 {
		t.Fatalf("blocks = %v, want one block of 2", blocks)
	}
	checkPartition(t, g, blocks)
}

func TestDiamondFusesBranches(t *testing.T) {
	g := diamond(t)
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: {a}, {b, c}, {d} = 1 + 2 + 1 = 4.
	if res.Latency != 4 {
		t.Fatalf("latency = %g, want 4 (%v)", res.Latency, res.Schedule)
	}
	if res.Schedule.NumStages() != 3 {
		t.Fatalf("stages = %v, want 3", res.Schedule)
	}
}

func TestSingleGPUOnly(t *testing.T) {
	g := diamond(t)
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumGPUs() != 1 {
		t.Fatalf("IOS must schedule on one GPU, got %d", res.Schedule.NumGPUs())
	}
}

func TestNeverWorseThanSequential(t *testing.T) {
	for s := int64(1); s <= 6; s++ {
		cfg := randdag.Paper()
		cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 60, 8, 120, s
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		res, err := Schedule(g, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sq, err := seq.Schedule(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency > sq.Latency+1e-9 {
			t.Fatalf("seed %d: IOS %g worse than sequential %g", s, res.Latency, sq.Latency)
		}
	}
}

// exhaustiveIOS enumerates every stage decomposition recursively (no memo,
// no pruning) and returns the optimal single-GPU latency. Exponential;
// only for tiny graphs.
func exhaustiveIOS(g *graph.Graph, m cost.Model, maxStage int) units.Millis {
	n := g.NumOps()
	done := make([]bool, n)
	var rec func(left int) units.Millis
	rec = func(left int) units.Millis {
		if left == 0 {
			return 0
		}
		var frontier []graph.OpID
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			ready := true
			g.Preds(graph.OpID(v), func(u graph.OpID, _ float64) {
				if !done[u] {
					ready = false
				}
			})
			if ready {
				frontier = append(frontier, graph.OpID(v))
			}
		}
		best := units.Millis(math.Inf(1))
		var stage []graph.OpID
		var sub func(i int)
		sub = func(i int) {
			if len(stage) > 0 {
				t := m.StageTime(stage)
				for _, v := range stage {
					done[v] = true
				}
				if r := t + rec(left-len(stage)); r < best {
					best = r
				}
				for _, v := range stage {
					done[v] = false
				}
			}
			if i >= len(frontier) || len(stage) >= maxStage {
				return
			}
			for j := i; j < len(frontier); j++ {
				stage = append(stage, frontier[j])
				sub(j + 1)
				stage = stage[:len(stage)-1]
			}
		}
		sub(0)
		return best
	}
	return rec(n)
}

func TestExactDPMatchesExhaustive(t *testing.T) {
	for s := int64(1); s <= 8; s++ {
		rng := rand.New(rand.NewSource(s))
		cfg := randdag.Paper()
		cfg.Ops = 6 + rng.Intn(4)
		cfg.Layers = 2 + rng.Intn(3)
		cfg.Deps = cfg.Ops
		cfg.Seed = s
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		res, err := Schedule(g, m, Options{MaxStage: 4, PruneWindow: 16, ExactLimit: 16})
		if err != nil {
			t.Fatal(err)
		}
		want := exhaustiveIOS(g, m, 4)
		if diff := res.Latency - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("seed %d: DP %g != exhaustive %g", s, res.Latency, want)
		}
	}
}

func TestBeamStaysValidAndAboveExact(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 40, 5, 70, 4
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	narrow, err := Schedule(g, m, Options{ExactLimit: 1, Beam: 2})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Schedule(g, m, Options{ExactLimit: 1, Beam: 512, PruneWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, narrow.Schedule); err != nil {
		t.Fatal(err)
	}
	if narrow.Latency < wide.Latency-1e-9 {
		t.Fatalf("narrow beam %g beat wide beam %g", narrow.Latency, wide.Latency)
	}
}

func TestMaxStageRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randdag.Paper()
		cfg.Ops = 10 + rng.Intn(30)
		cfg.Layers = 2 + rng.Intn(4)
		cfg.Deps = cfg.Ops
		cfg.Seed = seed
		g := randdag.MustGenerate(cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		maxStage := 1 + rng.Intn(4)
		res, err := Schedule(g, m, Options{MaxStage: maxStage})
		if err != nil {
			return false
		}
		if err := sched.Validate(g, res.Schedule); err != nil {
			return false
		}
		for _, st := range res.Schedule.GPUs[0].Stages {
			if len(st.Ops) > maxStage {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveSequenceRejectsNegativeBounds: SolveSequence validates its
// options exactly as Schedule does, so a negative bound is an error, not
// a panic deep in the DP.
func TestSolveSequenceRejectsNegativeBounds(t *testing.T) {
	g := diamond(t)
	m := cost.FromGraph(g, cost.DefaultContention())
	ops := g.ByPriority()
	for _, opt := range []Options{{MaxStage: -1}, {PruneWindow: -1}, {ExactLimit: -1}, {Beam: -1}} {
		if _, err := SolveSequence(g, m, ops, opt); err == nil {
			t.Errorf("SolveSequence(%+v) accepted a negative bound", opt)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, Options{})
	if err != nil || res.Latency != 0 {
		t.Fatalf("empty graph: %+v %v", res, err)
	}
}
