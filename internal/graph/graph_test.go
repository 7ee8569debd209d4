package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds v0 -> v1 -> ... -> v_{n-1} with unit op times and the given
// edge weight.
func chain(t *testing.T, n int, edgeW float64) *Graph {
	t.Helper()
	g := New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddOp(Op{Name: "v", Time: 1})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(OpID(i), OpID(i+1), edgeW)
	}
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

// diamond builds a -> {b, c} -> d with the given op times.
func diamond(t *testing.T, ta, tb, tc, td, e float64) *Graph {
	t.Helper()
	g := New(4, 4)
	a := g.AddOp(Op{Name: "a", Time: ta})
	b := g.AddOp(Op{Name: "b", Time: tb})
	c := g.AddOp(Op{Name: "c", Time: tc})
	d := g.AddOp(Op{Name: "d", Time: td})
	g.AddEdge(a, b, e)
	g.AddEdge(a, c, e)
	g.AddEdge(b, d, e)
	g.AddEdge(c, d, e)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestAddOpAssignsDenseIDs(t *testing.T) {
	g := New(0, 0)
	for i := 0; i < 5; i++ {
		if id := g.AddOp(Op{Time: 1}); id != OpID(i) {
			t.Fatalf("AddOp #%d returned ID %d", i, id)
		}
	}
	if g.NumOps() != 5 {
		t.Fatalf("NumOps = %d, want 5", g.NumOps())
	}
}

func TestFinalizeRejectsUnknownEndpoint(t *testing.T) {
	g := New(1, 1)
	g.AddOp(Op{Time: 1})
	g.AddEdge(0, 7, 0)
	if err := g.Finalize(); err == nil {
		t.Fatal("Finalize accepted an edge to an unknown operator")
	}
}

func TestFinalizeRejectsSelfLoop(t *testing.T) {
	g := New(1, 1)
	g.AddOp(Op{Time: 1})
	g.AddEdge(0, 0, 0)
	if err := g.Finalize(); err == nil {
		t.Fatal("Finalize accepted a self-loop")
	}
}

func TestFinalizeRejectsNegativeWeights(t *testing.T) {
	g := New(2, 1)
	g.AddOp(Op{Time: -1})
	if err := g.Finalize(); err == nil {
		t.Fatal("Finalize accepted a negative op time")
	}
	g2 := New(2, 1)
	a := g2.AddOp(Op{Time: 1})
	b := g2.AddOp(Op{Time: 1})
	g2.AddEdge(a, b, -0.5)
	if err := g2.Finalize(); err == nil {
		t.Fatal("Finalize accepted a negative transfer time")
	}
}

func TestFinalizeRejectsNonFiniteWeights(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		op       Op
		edgeTime float64
		want     string
	}{
		{"NaN op time", Op{Time: nan}, 1, "non-finite execution time"},
		{"+Inf op time", Op{Time: inf}, 1, "non-finite execution time"},
		{"-Inf op time", Op{Time: -inf}, 1, "negative execution time"},
		{"NaN edge time", Op{Time: 1}, nan, "non-finite transfer time"},
		{"+Inf edge time", Op{Time: 1}, inf, "non-finite transfer time"},
		{"-Inf edge time", Op{Time: 1}, -inf, "negative transfer time"},
		{"NaN util", Op{Time: 1, Util: nan}, 1, "NaN utilization"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(2, 1)
			a := g.AddOp(Op{Time: 1, Util: 0.5})
			b := g.AddOp(tc.op)
			g.AddEdge(a, b, tc.edgeTime)
			err := g.Finalize()
			if err == nil {
				t.Fatalf("Finalize accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Finalize error %q, want it to mention %q", err, tc.want)
			}
		})
	}
	// Infinite utilizations stay legal: the cost model clamps them into
	// (0, 1] like any other out-of-range value.
	g := New(2, 1)
	a := g.AddOp(Op{Time: 1, Util: math.Inf(1)})
	b := g.AddOp(Op{Time: 1, Util: math.Inf(-1)})
	g.AddEdge(a, b, 0)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize rejected infinite utilizations: %v", err)
	}
}

func TestFinalizeRejectsCycle(t *testing.T) {
	g := New(3, 3)
	a := g.AddOp(Op{Time: 1})
	b := g.AddOp(Op{Time: 1})
	c := g.AddOp(Op{Time: 1})
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, a, 0)
	if err := g.Finalize(); err == nil {
		t.Fatal("Finalize accepted a cyclic graph")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1, 0)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.NumOps())
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violated by order %v", e.From, e.To, order)
		}
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1, 0)
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Sources = %v, want [0]", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Sinks = %v, want [3]", got)
	}
}

func TestPriorityIndicatorsChain(t *testing.T) {
	g := chain(t, 4, 0.5)
	p := g.PriorityIndicators()
	// p(v3)=1, p(v2)=1+0.5+1=2.5, p(v1)=4, p(v0)=5.5
	want := []float64{5.5, 4, 2.5, 1}
	for i, w := range want {
		if diff := p[i] - w; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("p(v%d) = %g, want %g", i, p[i], w)
		}
	}
}

func TestPriorityIndicatorsDiamond(t *testing.T) {
	g := diamond(t, 1, 2, 3, 1, 0.5)
	p := g.PriorityIndicators()
	// p(d)=1; p(b)=2+0.5+1=3.5; p(c)=3+0.5+1=4.5; p(a)=1+0.5+4.5=6
	for i, w := range []float64{6, 3.5, 4.5, 1} {
		if p[i] != w {
			t.Fatalf("p(%d) = %g, want %g", i, p[i], w)
		}
	}
}

func TestCriticalLengths(t *testing.T) {
	g := diamond(t, 1, 2, 3, 1, 0.5)
	if got, want := g.CriticalPathLength(), 6.0; got != want {
		t.Fatalf("CriticalPathLength = %g, want %g", got, want)
	}
	if got, want := g.CriticalComputeLength(), 5.0; got != want {
		t.Fatalf("CriticalComputeLength = %g, want %g", got, want)
	}
	if got, want := g.TotalOpTime(), 7.0; got != want {
		t.Fatalf("TotalOpTime = %g, want %g", got, want)
	}
}

func TestByPriorityIsTopological(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(7)), 40, 80)
	order := g.ByPriority()
	pos := make([]int, g.NumOps())
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("ByPriority violates edge %d->%d", e.From, e.To)
		}
	}
}

// TestByPriorityRepairsTies covers dependent pairs whose priorities tie
// in the wrong ID order: zero times, and a tiny time swallowed by
// rounding next to a huge one.
func TestByPriorityRepairsTies(t *testing.T) {
	for _, tc := range []struct {
		name       string
		big, small float64
	}{
		{"zero times", 0, 0},
		{"rounding", 5.6e14, 6.4e-10},
	} {
		g := New(3, 2)
		a := g.AddOp(Op{Time: tc.big})   // sink, lowest ID
		b := g.AddOp(Op{Time: tc.small}) // feeds a
		c := g.AddOp(Op{Time: tc.small}) // feeds b
		g.AddEdge(b, a, 0)
		g.AddEdge(c, b, 0)
		g.MustFinalize()
		if got, want := fmt.Sprint(g.ByPriority()), fmt.Sprint([]OpID{c, b, a}); got != want {
			t.Fatalf("%s: ByPriority = %s, want %s", tc.name, got, want)
		}
	}
}

func TestLayers(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1, 0)
	layers := g.Layers()
	if len(layers) != 3 {
		t.Fatalf("Layers = %v, want 3 levels", layers)
	}
	if len(layers[1]) != 2 {
		t.Fatalf("middle layer = %v, want two ops", layers[1])
	}
}

func TestReachable(t *testing.T) {
	g := diamond(t, 1, 1, 1, 1, 0)
	cases := []struct {
		u, v OpID
		want bool
	}{
		{0, 3, true}, {0, 1, true}, {1, 3, true},
		{1, 2, false}, {2, 1, false}, {3, 0, false}, {1, 1, false},
	}
	for _, c := range cases {
		if got := g.Reachable(c.u, c.v); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
	if !g.Independent(1, 2) {
		t.Error("b and c should be independent")
	}
	if g.Independent(0, 3) {
		t.Error("a and d should be dependent")
	}
	if !g.AllIndependent([]OpID{1, 2}) {
		t.Error("AllIndependent({b,c}) should hold")
	}
	if g.AllIndependent([]OpID{0, 1, 2}) {
		t.Error("AllIndependent({a,b,c}) should fail")
	}
}

func TestHasEdgeAndTransferTime(t *testing.T) {
	g := chain(t, 3, 0.25)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if w, ok := g.TransferTime(0, 1); !ok || w != 0.25 {
		t.Fatalf("TransferTime(0,1) = %g,%v", w, ok)
	}
	if _, ok := g.TransferTime(0, 2); ok {
		t.Fatal("TransferTime reported a nonexistent edge")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := chain(t, 3, 0.25)
	c := g.Clone()
	if c.NumOps() != 3 || c.NumEdges() != 2 {
		t.Fatalf("clone shape wrong: %v", c)
	}
	// Mutating the clone's ops must not affect the original.
	c.ops[0].Time = 99
	if g.Op(0).Time == 99 {
		t.Fatal("Clone shares operator storage")
	}
}

func TestStringCompact(t *testing.T) {
	g := chain(t, 3, 0)
	if s := g.String(); !strings.Contains(s, "|V|=3") {
		t.Fatalf("String() = %q", s)
	}
}

// randomDAG builds a random DAG with edges only from lower to higher IDs.
// m is capped at the number of distinct forward pairs.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	g := New(n, m)
	for i := 0; i < n; i++ {
		g.AddOp(Op{Time: 0.1 + rng.Float64()*3.9, Util: 0.2 + 0.8*rng.Float64()})
	}
	seen := map[[2]int]bool{}
	for len(seen) < m {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		g.AddEdge(OpID(u), OpID(v), rng.Float64())
	}
	g.MustFinalize()
	return g
}

func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := rng.Intn(n * 2)
		g := randomDAG(rng, n, m)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return len(order) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityLowerBoundsProperty(t *testing.T) {
	// For every vertex, p(v) >= t(v), and for every edge u->v,
	// p(u) >= t(u) + t(u,v) + p(v).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomDAG(rng, n, rng.Intn(2*n))
		p := g.PriorityIndicators()
		for v := 0; v < n; v++ {
			if p[v] < g.Op(OpID(v)).Time-1e-12 {
				return false
			}
		}
		for _, e := range g.Edges() {
			if p[e.From] < g.Op(e.From).Time+e.Time+p[e.To]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAdjacencyMatchesAppendSort pins Finalize's flat-array adjacency
// against the per-operator append-and-sort.Slice construction it
// replaced: the same entries in the same order, including duplicate
// edges (equal neighbors) and degrees past the insertion-sort cutoff of
// 12, where the sort's order among equal neighbors is not stable.
func TestAdjacencyMatchesAppendSort(t *testing.T) {
	ref := func(n int, edges []Edge, out bool) [][]adj {
		lists := make([][]adj, n)
		for i, e := range edges {
			k, o := e.From, e.To
			if !out {
				k, o = o, k
			}
			lists[k] = append(lists[k], adj{op: o, edge: i})
		}
		for v := range lists {
			l := lists[v]
			sort.Slice(l, func(i, j int) bool { return l[i].op < l[j].op })
		}
		return lists
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		edges := make([]Edge, rng.Intn(4*n))
		for i := range edges {
			// Few distinct endpoints force duplicates and high degree.
			u, v := OpID(rng.Intn(n)), OpID(rng.Intn(1+rng.Intn(n)))
			edges[i] = Edge{From: u, To: v}
		}
		for _, out := range []bool{true, false} {
			got, want := adjacency(n, edges, out), ref(n, edges, out)
			for v := range want {
				if len(got[v]) != len(want[v]) || (got[v] == nil) != (want[v] == nil) {
					t.Fatalf("trial %d out=%v op %d: %v, want %v", trial, out, v, got[v], want[v])
				}
				for i := range want[v] {
					if got[v][i] != want[v][i] {
						t.Fatalf("trial %d out=%v op %d: %v, want %v", trial, out, v, got[v], want[v])
					}
				}
			}
		}
	}
}
