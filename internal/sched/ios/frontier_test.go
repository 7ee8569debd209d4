package ios

// Oracle tests of the bounded frontier scan: on random prefix-closed
// states of many blocks, solver.frontier must return exactly what the
// full scan over every block operator returns, and solver.reach folded
// stage by stage must equal the reach recomputed from scratch.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/randdag"
)

// scanFrontier is the full scan the bounded frontier replaced: every
// non-member of set whose intra-block predecessors are all members, in
// local-index order.
func scanFrontier(set *bitset, preds [][]int) []int {
	var out []int
	for i, ps := range preds {
		if set.has(i) {
			continue
		}
		ready := true
		for _, p := range ps {
			if !set.has(p) {
				ready = false
				break
			}
		}
		if ready {
			out = append(out, i)
		}
	}
	return out
}

// linkedSolver returns a solver whose per-block structure describes block,
// an arbitrary subset of g's operators in an arbitrary local order.
func linkedSolver(g *graph.Graph, block []graph.OpID) *solver {
	s := new(solver)
	opt := Options{}
	opt.fill()
	s.reset(g.NumOps(), len(block), opt)
	for i, v := range block {
		s.inBlock[v] = int32(i)
	}
	s.linkBlock(g, block)
	return s
}

// checkFrontier walks random prefix-closed states of block, as the DP
// does: from the empty set, each step schedules a random non-empty subset
// of at most eight frontier operators, until the block is complete or the
// frontier empties. At every state it compares the bounded frontier, in
// full and truncated to the default PruneWindow, with the full scan, and
// the incrementally folded reach with the reach of the whole set.
func checkFrontier(t *testing.T, name string, g *graph.Graph, block []graph.OpID, rng *rand.Rand) {
	t.Helper()
	s := linkedSolver(g, block)
	var set, empty bitset
	var reach uint16
	for step := 0; ; step++ {
		want := scanFrontier(&set, s.preds[:len(block)])
		if got := s.frontier(&set, reach, maxBlockOps+1, nil); !slices.Equal(got, want) {
			t.Fatalf("%s step %d: frontier %v, full scan %v", name, step, got, want)
		}
		const window = 8
		if got, w := s.frontier(&set, reach, window, nil), want[:min(window, len(want))]; !slices.Equal(got, w) {
			t.Fatalf("%s step %d: frontier limited to %d is %v, want %v", name, step, window, got, w)
		}
		if len(want) == 0 {
			return
		}
		next := set
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		for _, i := range want[:1+rng.Intn(min(8, len(want)))] {
			next.set(i)
		}
		reach = s.reach(&next, &set, reach)
		if full := s.reach(&next, &empty, 0); reach != full {
			t.Fatalf("%s step %d: folded reach %d, from scratch %d", name, step, reach, full)
		}
		set = next
	}
}

// TestStateSize pins dpState at 88 bytes: reach lives in the tail padding
// after inTop, so the pending and done slabs stay as dense as before.
func TestStateSize(t *testing.T) {
	if n := unsafe.Sizeof(dpState{}); n != 88 {
		t.Fatalf("dpState is %d bytes, want 88", n)
	}
}

// chainedDAG builds a paper-style random DAG of n operators as one block
// in priority order.
func chainedDAG(n int, seed int64) (*graph.Graph, []graph.OpID) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = n, max(1, n/8), 2*n, seed
	g := randdag.MustGenerate(cfg)
	return g, g.ByPriority()
}

func TestFrontierMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Random paper DAGs, block by block.
	for seed := int64(1); seed <= 8; seed++ {
		cfg := randdag.Paper()
		cfg.Seed = seed
		g := randdag.MustGenerate(cfg)
		for bi, block := range Blocks(g) {
			checkFrontier(t, fmt.Sprintf("paper seed %d block %d", seed, bi), g, block, rng)
		}
	}
	// The CNN benchmarks: NASNet-A's one wide block and Inception-v3's
	// cells.
	plat := gpu.DualA40()
	for _, net := range []*model.Net{model.NASNet(plat.Dev, plat.Link, 1024), model.InceptionV3(plat.Dev, plat.Link, 299)} {
		for bi, block := range Blocks(net.G) {
			for rep := 0; rep < 3; rep++ {
				checkFrontier(t, fmt.Sprintf("%s block %d", net.Name, bi), net.G, block, rng)
			}
		}
	}
	// SolveSequence subsets in shuffled, non-topological local orders.
	for seed := int64(1); seed <= 8; seed++ {
		g, order := chainedDAG(120, seed)
		sub := slices.Clone(order[:20+rng.Intn(100)])
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
		checkFrontier(t, fmt.Sprintf("shuffled subset seed %d", seed), g, sub, rng)
	}
	// A source placed last: it is ready from the start yet lies above the
	// reach of every state that does not already hold it.
	g, order := chainedDAG(100, 3)
	last := append(slices.Clone(order[1:]), order[0])
	for rep := 0; rep < 4; rep++ {
		checkFrontier(t, "source last", g, last, rng)
	}
	// Word boundaries and the block limit.
	for _, n := range []int{63, 64, 65, 128, maxBlockOps} {
		g, order := chainedDAG(n, int64(n))
		checkFrontier(t, fmt.Sprintf("%d ops", n), g, order, rng)
		rev := slices.Clone(order)
		slices.Reverse(rev)
		checkFrontier(t, fmt.Sprintf("%d ops reversed", n), g, rev, rng)
	}
}

// frontierCase decodes bytes into a block: two bytes for the operator
// count (1 to maxBlockOps), one byte seeding the local order and the state
// walk, then 4-byte edge records (two little-endian operator indices; an
// edge runs from the lower to the higher, so the graph is acyclic, and a
// self-edge is skipped). The block holds every operator in a shuffled
// order, so local order and dependency order disagree.
func frontierCase(data []byte) (*graph.Graph, []graph.OpID, *rand.Rand) {
	var head [3]byte
	data = data[copy(head[:], data):]
	n := 1 + int(binary.LittleEndian.Uint16(head[:2]))%maxBlockOps
	rng := rand.New(rand.NewSource(int64(head[2])))
	g := graph.New(n, len(data)/4)
	for i := 0; i < n; i++ {
		g.AddOp(graph.Op{Time: 1, Util: 0.5})
	}
	for ; len(data) >= 4; data = data[4:] {
		u := int(binary.LittleEndian.Uint16(data)) % n
		v := int(binary.LittleEndian.Uint16(data[2:])) % n
		if u == v {
			continue
		}
		g.AddEdge(graph.OpID(min(u, v)), graph.OpID(max(u, v)), 0)
	}
	g.MustFinalize()
	block := make([]graph.OpID, n)
	for i, p := range rng.Perm(n) {
		block[i] = graph.OpID(p)
	}
	return g, block, rng
}

// FuzzFrontier runs the oracle walk on fuzzed blocks. The seed corpus
// lives in testdata/fuzz/FuzzFrontier.
func FuzzFrontier(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, block, rng := frontierCase(data)
		checkFrontier(t, "fuzz", g, block, rng)
	})
}
