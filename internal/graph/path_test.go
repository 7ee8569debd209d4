package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func allUnscheduled(g *Graph) []bool {
	u := make([]bool, g.NumOps())
	for i := range u {
		u[i] = true
	}
	return u
}

func TestLongestValidPathChain(t *testing.T) {
	g := chain(t, 4, 0.5)
	path, l := g.LongestValidPath(allUnscheduled(g))
	if len(path) != 4 {
		t.Fatalf("path = %v, want full chain", path)
	}
	// 4 vertices (1 each) + 3 edges (0.5 each) = 5.5.
	if l != 5.5 {
		t.Fatalf("length = %g, want 5.5", l)
	}
	for i, v := range path {
		if v != OpID(i) {
			t.Fatalf("path = %v, want [0 1 2 3]", path)
		}
	}
}

func TestLongestValidPathPicksHeavierBranch(t *testing.T) {
	g := diamond(t, 1, 2, 3, 1, 0.5)
	path, l := g.LongestValidPath(allUnscheduled(g))
	// a -> c -> d = 1 + .5 + 3 + .5 + 1 = 6.
	want := []OpID{0, 2, 3}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Fatalf("path = %v, want %v", path, want)
	}
	if l != 6 {
		t.Fatalf("length = %g, want 6", l)
	}
}

func TestLongestValidPathBoundaryBonuses(t *testing.T) {
	// After removing the heavy path of the diamond, the remaining vertex
	// b keeps its boundary edges a->b and b->d, which count toward the
	// second path's length (paper Fig. 4: P2 includes e2 and e6).
	g := diamond(t, 1, 2, 3, 1, 0.5)
	un := allUnscheduled(g)
	un[0], un[2], un[3] = false, false, false
	path, l := g.LongestValidPath(un)
	if len(path) != 1 || path[0] != 1 {
		t.Fatalf("path = %v, want [1]", path)
	}
	if l != 3 { // 0.5 + 2 + 0.5
		t.Fatalf("length = %g, want 3", l)
	}
}

func TestLongestValidPathInteriorConstraint(t *testing.T) {
	// Graph:  a -> b -> c -> d,  and x -> c  with x scheduled.
	// c has an edge from the scheduled region, so c may not be an
	// interior vertex: the path a-b-c-d is invalid; candidates are
	// a-b-c (c last) or b-c-d (c... interior!) -> b-c? Let's verify the
	// search respects the rule.
	g := New(5, 4)
	a := g.AddOp(Op{Name: "a", Time: 1})
	b := g.AddOp(Op{Name: "b", Time: 1})
	c := g.AddOp(Op{Name: "c", Time: 1})
	d := g.AddOp(Op{Name: "d", Time: 1})
	x := g.AddOp(Op{Name: "x", Time: 1})
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	g.AddEdge(c, d, 1)
	g.AddEdge(x, c, 10)
	g.MustFinalize()
	un := allUnscheduled(g)
	un[x] = false

	path, l := g.LongestValidPath(un)
	// a-b-c-d is invalid: c would be an interior vertex but has an edge
	// from the scheduled x. Valid candidates:
	//   c-d with the boundary in-edge x->c on the first vertex:
	//     10 + 1 + 1 + 1 = 13
	//   a-b-c: 1+1+1+1+1 = 5 (x->c does not attach: c is entered via
	//     b->c, and incoming boundary edges only extend the first
	//     vertex of a path)
	if l != 13 {
		t.Fatalf("length = %g, want 13 (path %v)", l, path)
	}
	if len(path) != 2 || path[0] != c || path[1] != d {
		t.Fatalf("path = %v, want [c d]", path)
	}
	_, _ = a, b
}

func TestLongestValidPathEmpty(t *testing.T) {
	g := chain(t, 2, 0)
	un := make([]bool, 2)
	path, l := g.LongestValidPath(un)
	if path != nil || l != 0 {
		t.Fatalf("expected no path, got %v (%g)", path, l)
	}
}

// TestLongestValidPathExhaustion mirrors HIOS-LP's main loop: repeatedly
// extracting paths must consume every vertex exactly once and always make
// progress.
func TestLongestValidPathExhaustion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomDAG(rng, n, rng.Intn(2*n))
		un := allUnscheduled(g)
		remaining := n
		for remaining > 0 {
			path, l := g.LongestValidPath(un)
			if len(path) == 0 || l <= 0 {
				return false
			}
			for i, v := range path {
				if !un[v] {
					return false // re-extracted a vertex
				}
				un[v] = false
				// Path must follow direct edges.
				if i > 0 && !g.HasEdge(path[i-1], v) {
					return false
				}
			}
			remaining -= len(path)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLongestValidPathDominatesSingles verifies the returned length is at
// least the best single-vertex candidate (with its boundary bonuses), a
// cheap lower bound the DP must dominate.
func TestLongestValidPathDominatesSingles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomDAG(rng, n, rng.Intn(2*n))
		un := allUnscheduled(g)
		// Schedule a random half.
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				un[v] = false
			}
		}
		any := false
		for _, x := range un {
			any = any || x
		}
		if !any {
			return true
		}
		_, l := g.LongestValidPath(un)
		for v := 0; v < n; v++ {
			if !un[v] {
				continue
			}
			sb, eb := 0.0, 0.0
			g.Preds(OpID(v), func(u OpID, w float64) {
				if !un[u] && w > sb {
					sb = w
				}
			})
			g.Succs(OpID(v), func(u OpID, w float64) {
				if !un[u] && w > eb {
					eb = w
				}
			})
			if l < g.Op(OpID(v)).Time+sb+eb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
