// Package graph implements the weighted directed acyclic computation graph
// used throughout HIOS.
//
// A graph G = (V, E) models a DAG-structured deep-learning model: each
// vertex is an operator with an execution-time weight t(v) (the time the
// operator takes running alone on one GPU), and each edge (u, v) carries a
// transfer-time weight t(u, v) (the time to move u's output tensor to
// another GPU when u and v are placed on different devices).
//
// The package also provides the graph algorithms the HIOS schedulers are
// built from: topological sorting, the priority indicator p(v) (length of
// the longest weighted path from v to a sink), the longest-valid-path
// search of HIOS-LP, reachability queries, and the vertex-contraction cycle
// check used by the intra-GPU sliding-window pass.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// OpID identifies an operator inside one Graph. IDs are dense: a graph with
// n operators uses IDs 0..n-1, which lets algorithms index slices by OpID.
type OpID int

// None is the sentinel for "no operator".
const None OpID = -1

// Op is a single operator (vertex) in a computation graph.
type Op struct {
	ID   OpID
	Name string
	// Time is t(v): the execution time of the operator running alone on
	// one GPU, in milliseconds.
	Time float64
	// Util is the fraction of one GPU the operator saturates while
	// running alone, in (0, 1]. It drives the concurrent-stage contention
	// model: operators whose utilizations sum to more than 1 contend.
	// Zero means "unknown"; cost models substitute a default.
	Util float64
	// Bytes is the size of the operator's output tensor in bytes. It is
	// informational here; transfer times on edges are authoritative.
	Bytes int64
	// Kind is an optional label ("conv", "pool", ...) used by model
	// builders and trace output. The scheduling algorithms ignore it.
	Kind string
}

// Edge is a data dependency u -> v: v consumes the output tensor of u.
type Edge struct {
	From, To OpID
	// Time is t(u, v): the transfer time of u's output between two
	// different GPUs, in milliseconds. It is charged only when the two
	// endpoints are mapped to different devices.
	Time float64
}

// Graph is a weighted DAG of operators. Construct one with New and AddOp /
// AddEdge, then call Finalize (or use Build) before running algorithms.
type Graph struct {
	ops   []Op
	edges []Edge

	// Adjacency, built by Finalize.
	succ [][]adj // outgoing edges per op
	pred [][]adj // incoming edges per op

	// topo is the topological order computed (and validated) by
	// Finalize, served by TopoOrder without recomputation. Finalized
	// graphs are immutable, so it can never go stale.
	topo []OpID

	// closure caches the transitive-closure bitset built lazily by
	// Closure. Atomic so concurrent sweep workers may share one graph;
	// see the invalidation contract on type Closure.
	closure atomic.Pointer[Closure]

	finalized bool
}

// adj is one adjacency entry: the neighbor and the connecting edge's index.
type adj struct {
	op   OpID
	edge int
}

// New returns an empty graph with capacity hints for n operators and m
// edges.
func New(n, m int) *Graph {
	return &Graph{
		ops:   make([]Op, 0, n),
		edges: make([]Edge, 0, m),
	}
}

// AddOp appends an operator and returns its ID. The ID field of the
// argument is overwritten with the assigned ID.
func (g *Graph) AddOp(op Op) OpID {
	if g.finalized {
		panic("graph: AddOp after Finalize")
	}
	op.ID = OpID(len(g.ops))
	g.ops = append(g.ops, op)
	return op.ID
}

// AddEdge appends the dependency from -> to with transfer time t.
func (g *Graph) AddEdge(from, to OpID, t float64) {
	if g.finalized {
		panic("graph: AddEdge after Finalize")
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Time: t})
}

// Finalize validates the graph and builds adjacency structures. It must be
// called once after all AddOp/AddEdge calls and before any algorithm runs.
func (g *Graph) Finalize() error {
	if g.finalized {
		return nil
	}
	n := len(g.ops)
	for i, e := range g.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) references unknown operator", i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: edge %d is a self-loop on operator %d", i, e.From)
		}
		if e.Time < 0 {
			return fmt.Errorf("graph: edge %d (%d->%d) has negative transfer time %g", i, e.From, e.To, e.Time)
		}
		if !finite(e.Time) {
			return fmt.Errorf("graph: edge %d (%d->%d) has non-finite transfer time %g", i, e.From, e.To, e.Time)
		}
	}
	for _, op := range g.ops {
		if op.Time < 0 {
			return fmt.Errorf("graph: operator %d (%s) has negative execution time %g", op.ID, op.Name, op.Time)
		}
		if !finite(op.Time) {
			return fmt.Errorf("graph: operator %d (%s) has non-finite execution time %g", op.ID, op.Name, op.Time)
		}
		// A NaN utilization passes both of the cost model's clamps and
		// turns the work and utilization sums of every stage it joins
		// into NaN, which silently drops the contention terms.
		if math.IsNaN(op.Util) {
			return fmt.Errorf("graph: operator %d (%s) has NaN utilization", op.ID, op.Name)
		}
	}
	g.succ = adjacency(n, g.edges, true)
	g.pred = adjacency(n, g.edges, false)
	g.finalized = true
	order, err := g.computeTopoOrder()
	if err != nil {
		g.finalized = false
		g.succ, g.pred = nil, nil
		return err
	}
	g.topo = order
	return nil
}

// adjacency builds the per-operator edge lists of Finalize: out-edges
// (keyed by From, neighbor To) when out is set, in-edges otherwise. Each
// list is sorted by neighbor, so the order does not depend on insertion
// order. The lists are carved out of one flat array, so building them
// costs three allocations rather than a few per operator; an operator
// without such edges keeps a nil list.
func adjacency(n int, edges []Edge, out bool) [][]adj {
	ends := func(e Edge) (key, other OpID) {
		if out {
			return e.From, e.To
		}
		return e.To, e.From
	}
	off := make([]int, n+1)
	for _, e := range edges {
		k, _ := ends(e)
		off[k+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	flat := make([]adj, len(edges))
	lists := make([][]adj, n)
	for v := range lists {
		if off[v] < off[v+1] {
			lists[v] = flat[off[v]:off[v]:off[v+1]]
		}
	}
	for i, e := range edges {
		k, o := ends(e)
		lists[k] = append(lists[k], adj{op: o, edge: i})
	}
	for _, l := range lists {
		slices.SortFunc(l, func(a, b adj) int { return cmp.Compare(a.op, b.op) })
	}
	return lists
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MustFinalize is Finalize that panics on error; for use with graphs whose
// construction is statically known to be valid (builders, tests).
func (g *Graph) MustFinalize() *Graph {
	if err := g.Finalize(); err != nil {
		panic(err)
	}
	return g
}

// ErrCycle reports that a supposed DAG contains a directed cycle.
var ErrCycle = errors.New("graph: cycle detected")

// NumOps returns |V|.
func (g *Graph) NumOps() int { return len(g.ops) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Op returns the operator with the given ID.
func (g *Graph) Op(id OpID) Op { return g.ops[id] }

// Ops returns the operator slice, indexed by OpID. Callers must not
// modify it.
func (g *Graph) Ops() []Op { return g.ops }

// Edges returns the edge slice. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Time returns t(v) for the operator.
func (g *Graph) Time(id OpID) float64 { return g.ops[id].Time }

// Succs calls fn for every outgoing edge of v with the successor operator
// and the transfer time of the connecting edge.
func (g *Graph) Succs(v OpID, fn func(to OpID, transfer float64)) {
	for _, a := range g.succ[v] {
		fn(a.op, g.edges[a.edge].Time)
	}
}

// Preds calls fn for every incoming edge of v with the predecessor operator
// and the transfer time of the connecting edge.
func (g *Graph) Preds(v OpID, fn func(from OpID, transfer float64)) {
	for _, a := range g.pred[v] {
		fn(a.op, g.edges[a.edge].Time)
	}
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v OpID) int { return len(g.succ[v]) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v OpID) int { return len(g.pred[v]) }

// SuccAt returns the i-th outgoing edge of v (successor and transfer
// time), 0 <= i < OutDegree(v). The indexed form lets hot loops iterate
// adjacency without the callback closure of Succs.
func (g *Graph) SuccAt(v OpID, i int) (OpID, float64) {
	a := g.succ[v][i]
	return a.op, g.edges[a.edge].Time
}

// PredAt returns the i-th incoming edge of v (predecessor and transfer
// time), 0 <= i < InDegree(v).
func (g *Graph) PredAt(v OpID, i int) (OpID, float64) {
	a := g.pred[v][i]
	return a.op, g.edges[a.edge].Time
}

// HasEdge reports whether the direct edge u -> v exists.
func (g *Graph) HasEdge(u, v OpID) bool {
	for _, a := range g.succ[u] {
		if a.op == v {
			return true
		}
	}
	return false
}

// TransferTime returns t(u, v) for the direct edge u -> v, or 0 and false
// if the edge does not exist.
func (g *Graph) TransferTime(u, v OpID) (float64, bool) {
	for _, a := range g.succ[u] {
		if a.op == v {
			return g.edges[a.edge].Time, true
		}
	}
	return 0, false
}

// Sources returns the operators with no predecessors, in ID order.
func (g *Graph) Sources() []OpID {
	var out []OpID
	for v := range g.ops {
		if len(g.pred[v]) == 0 {
			out = append(out, OpID(v))
		}
	}
	return out
}

// Sinks returns the operators with no successors, in ID order.
func (g *Graph) Sinks() []OpID {
	var out []OpID
	for v := range g.ops {
		if len(g.succ[v]) == 0 {
			out = append(out, OpID(v))
		}
	}
	return out
}

// TotalOpTime returns the sum of all operator execution times: the latency
// of fully sequential execution on one GPU (no transfers).
func (g *Graph) TotalOpTime() float64 {
	var s float64
	for _, op := range g.ops {
		s += op.Time
	}
	return s
}

// Clone returns a deep copy of the graph. The copy is finalized if and only
// if the receiver is.
func (g *Graph) Clone() *Graph {
	ng := New(len(g.ops), len(g.edges))
	ng.ops = append(ng.ops, g.ops...)
	ng.edges = append(ng.edges, g.edges...)
	if g.finalized {
		ng.MustFinalize()
	}
	return ng
}

// String returns a compact human-readable dump for debugging.
func (g *Graph) String() string {
	s := fmt.Sprintf("graph{|V|=%d |E|=%d", len(g.ops), len(g.edges))
	if len(g.ops) <= 16 {
		for _, op := range g.ops {
			s += fmt.Sprintf(" %d:%s(%.3g)", op.ID, op.Name, op.Time)
		}
	}
	return s + "}"
}
