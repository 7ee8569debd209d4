package graph

import (
	"slices"
	"sort"
)

// TopoOrder returns a topological order of all operators (Kahn's algorithm,
// smallest-ID-first for determinism). It returns ErrCycle if the graph is
// not acyclic.
//
// On a finalized graph the order is computed once by Finalize and the
// cached slice is returned; callers must not modify it.
func (g *Graph) TopoOrder() ([]OpID, error) {
	if g.topo != nil {
		return g.topo, nil
	}
	return g.computeTopoOrder()
}

// computeTopoOrder runs the Kahn sweep smallest-ID-first. Finalize calls
// it once to validate acyclicity and populate the cache behind TopoOrder.
func (g *Graph) computeTopoOrder() ([]OpID, error) {
	rank := make([]int, len(g.ops))
	for v := range rank {
		rank[v] = v
	}
	return g.kahn(rank)
}

// kahn returns the topological order that, at each step, takes the ready
// operator of smallest rank, or ErrCycle if the graph is not acyclic.
func (g *Graph) kahn(rank []int) ([]OpID, error) {
	n := len(g.ops)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.pred[v])
	}
	// A linear scan for the smallest rank keeps the order deterministic
	// and stable across runs; a heap is not worth it at these sizes.
	ready := make([]OpID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, OpID(v))
		}
	}
	order := make([]OpID, 0, n)
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if rank[ready[i]] < rank[ready[best]] {
				best = i
			}
		}
		v := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, a := range g.succ[v] {
			indeg[a.op]--
			if indeg[a.op] == 0 {
				ready = append(ready, a.op)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// PriorityIndicators computes p(v) for every operator: the length of the
// longest path from v to a sink in the graph, where length counts both
// vertex weights (execution times) and edge weights (transfer times),
// including t(v) itself. Descending p(v) is a topological order except
// where zero times or rounding tie a dependent pair, which ByPriority
// repairs (HIOS relies on the order; see §IV-A of the paper).
func (g *Graph) PriorityIndicators() []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic("graph: PriorityIndicators on cyclic graph: " + err.Error())
	}
	p := make([]float64, len(g.ops))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		// Direct adjacency iteration: the Succs callback form would
		// allocate one closure per operator (it captures best and p).
		for _, a := range g.succ[v] {
			if l := g.edges[a.edge].Time + p[a.op]; l > best {
				best = l
			}
		}
		p[v] = g.ops[v].Time + best
	}
	return p
}

// CriticalPathLength returns the length of the longest weighted path in the
// graph (vertex + edge weights): max over sources of p(v). It upper-bounds
// the best multi-GPU latency when every hop pays its transfer, and the
// vertex-weight-only variant (see CriticalComputeLength) lower-bounds any
// schedule's latency.
func (g *Graph) CriticalPathLength() float64 {
	p := g.PriorityIndicators()
	best := 0.0
	for _, x := range p {
		if x > best {
			best = x
		}
	}
	return best
}

// CriticalComputeLength returns the longest path counting only vertex
// weights (no transfer times). No schedule, on any number of GPUs, can beat
// this latency, because dependent operators can never overlap.
func (g *Graph) CriticalComputeLength() float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic("graph: CriticalComputeLength on cyclic graph: " + err.Error())
	}
	p := make([]float64, len(g.ops))
	best := 0.0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		m := 0.0
		g.Succs(v, func(to OpID, _ float64) {
			if p[to] > m {
				m = p[to]
			}
		})
		p[v] = g.ops[v].Time + m
		if p[v] > best {
			best = p[v]
		}
	}
	return best
}

// ByPriority returns all operator IDs sorted by descending priority
// indicator; ties break on ascending ID so the order is deterministic.
// The result is a topological order (see ByPriorityWith).
func (g *Graph) ByPriority() []OpID {
	p := g.PriorityIndicators()
	return g.ByPriorityWith(p)
}

// ByPriorityWith sorts operator IDs by descending precomputed priority,
// breaking ties by ascending ID, and returns a topological order. A
// dependent operator usually has strictly larger priority than its
// successor, but zero-time operators and float rounding (a huge time plus
// a tiny one) can tie the pair in the wrong ID order; only then is the
// sorted order repaired, by a Kahn sweep that always takes the earliest
// ready operator in it.
func (g *Graph) ByPriorityWith(p []float64) []OpID {
	ids := make([]OpID, len(g.ops))
	for i := range ids {
		ids[i] = OpID(i)
	}
	before := func(u, v OpID) bool {
		if p[u] != p[v] { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
			return p[u] > p[v]
		}
		return u < v
	}
	sort.SliceStable(ids, func(i, j int) bool { return before(ids[i], ids[j]) })
	if !slices.ContainsFunc(g.edges, func(e Edge) bool { return !before(e.From, e.To) }) {
		return ids
	}
	pos := make([]int, len(ids))
	for i, v := range ids {
		pos[v] = i
	}
	order, _ := g.kahn(pos) // Finalize has ruled out cycles
	return order
}

// Layers partitions the operators into topological levels: layer 0 holds
// the sources, and each operator sits one past its deepest predecessor.
// Used by model builders and the random DAG generator.
func (g *Graph) Layers() [][]OpID {
	order, err := g.TopoOrder()
	if err != nil {
		panic("graph: Layers on cyclic graph: " + err.Error())
	}
	level := make([]int, len(g.ops))
	maxLevel := 0
	for _, v := range order {
		l := 0
		g.Preds(v, func(from OpID, _ float64) {
			if level[from]+1 > l {
				l = level[from] + 1
			}
		})
		level[v] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	layers := make([][]OpID, maxLevel+1)
	for v := range g.ops {
		layers[level[v]] = append(layers[level[v]], OpID(v))
	}
	return layers
}
