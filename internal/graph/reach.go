package graph

// Reachable reports whether there is a directed path (of length >= 1) from
// u to v. On a finalized graph this is one bit probe into the cached
// transitive closure (built on first use, O(V·E/64)); see Closure.
//
// Root annotation: in-module hot code holds a Closure and probes it
// directly, so this public entry is hot only through external callers and
// benchmarks — propagation cannot reach it statically.
//
//lint:hotpath
func (g *Graph) Reachable(u, v OpID) bool {
	if u == v {
		return false
	}
	return g.Closure().Reachable(u, v)
}

// Independent reports whether neither u reaches v nor v reaches u: the two
// operators may execute concurrently without violating any data dependency.
func (g *Graph) Independent(u, v OpID) bool {
	return u != v && !g.Reachable(u, v) && !g.Reachable(v, u)
}

// AllIndependent reports whether the operators are pairwise independent.
func (g *Graph) AllIndependent(ids []OpID) bool {
	return g.Closure().AllIndependent(ids)
}

// ReachScratch holds the reusable BFS state of ReachableBFS: an
// epoch-stamped visited array, so repeated queries neither allocate nor
// clear. The zero value is ready to use. Not safe for concurrent use.
type ReachScratch struct {
	seen  []int32
	epoch int32
	queue []OpID
}

// ReachableBFS answers the same query as Reachable by breadth-first
// search over the adjacency, without consulting (or building) the
// closure. It is the fallback for callers that cannot amortize a
// closure build — a graph still under construction-and-refinalization
// churn, or a one-shot query on a huge graph — and the differential
// oracle the closure is tested against. O(|V| + |E|) per query,
// allocation-free once the scratch is warm.
func (g *Graph) ReachableBFS(rs *ReachScratch, u, v OpID) bool {
	if u == v {
		return false
	}
	n := len(g.ops)
	if cap(rs.seen) < n {
		rs.seen = make([]int32, n)
		rs.epoch = 0
	}
	rs.seen = rs.seen[:n]
	rs.epoch++
	if rs.epoch == 0 { // wrapped: clear and restart epochs
		for i := range rs.seen {
			rs.seen[i] = 0
		}
		rs.epoch = 1
	}
	rs.queue = rs.queue[:0]
	rs.queue = append(rs.queue, u)
	rs.seen[u] = rs.epoch
	for qi := 0; qi < len(rs.queue); qi++ {
		x := rs.queue[qi]
		for _, a := range g.succ[x] {
			if rs.seen[a.op] == rs.epoch {
				continue
			}
			if a.op == v {
				return true
			}
			rs.seen[a.op] = rs.epoch
			rs.queue = append(rs.queue, a.op)
		}
	}
	return false
}
