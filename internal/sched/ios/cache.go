package ios

import (
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/dpcache"
	"github.com/shus-lab/hios/internal/graph"
)

// solveCached answers a block solve from the process-wide dpcache when it
// can, and routes the solve through solveBlock (then memoizes it) when it
// cannot.
//
// Caching is gated on the cost.ItemModel contract: for such models the DP
// is a pure function of the block's items, its intra-block dependency
// lists, the contention calibration and the pruning options — exactly the
// fields blockKey encodes, in block-local indices so the signature never
// depends on operator identity or on which graph the block came from.
// Probe-counting models take the uncached path and observe exactly the
// probe sequence they always have.
//
// solveCached sits above solveBlock on the hot path: sweeps call it once
// per block per scheduler run, so the signature build and the hit-path
// remap must stay allocation-lean (the key lives in the solver's
// reusable buffer; a hit costs two allocations).
//
//lint:hotpath
func (s *solver) solveCached(g *graph.Graph, m cost.Model, block []graph.OpID, opt Options) ([][]graph.OpID, error) {
	b := len(block)
	im, fast := m.(cost.ItemModel)
	if !fast || opt.NoCache || b < 2 || b > maxBlockOps {
		return s.solveBlock(g, m, block, opt)
	}
	key := s.blockKey(g, im, block, opt)
	if stages, ok := dpcache.Shared().Get(key); ok {
		return remapStages(stages, block), nil
	}
	out, err := s.solveBlock(g, m, block, opt)
	if err != nil {
		// Errors (cyclic sequences, beam exhaustion) are not cached: they
		// are rare, cheap to re-derive, and keeping the cache value shape
		// trivial keeps Get allocation-free.
		return nil, err
	}
	dpcache.Shared().Put(key, localStages(out, block, s))
	return out, nil
}

// blockKey builds the canonical signature of this block solve in the
// solver's reusable key buffer. Floats are exact bit patterns: the cache
// memoizes exact computations, so two solves share a key only when every
// input is bit-identical. Options.NoCache is deliberately absent: it only
// routes around this cache and never changes a block's solution.
func (s *solver) blockKey(g *graph.Graph, im cost.ItemModel, block []graph.OpID, opt Options) []byte {
	b := len(block)
	s.ensureInBlock(g.NumOps())
	for i, v := range block {
		s.inBlock[v] = int32(i)
	}
	sig := dpcache.NewSig(s.keyBuf)
	ct := im.Contention()
	sig.Float(ct.Alpha)
	sig.Float(ct.DefaultUtil)
	sig.Int(opt.MaxStage)
	sig.Int(opt.PruneWindow)
	sig.Int(opt.ExactLimit)
	sig.Int(opt.Beam)
	sig.Int(b)
	for _, v := range block {
		it := im.StageItem(v)
		sig.Float(float64(it.Time))
		sig.Float(it.Util)
	}
	// Intra-block predecessor lists in the exact order the DP collects
	// them. -1 terminates each list (a valid local index is never
	// negative).
	appendPred := func(u graph.OpID, _ float64) {
		if j := s.inBlock[u]; j >= 0 {
			sig.Int(int(j))
		}
	}
	for _, v := range block {
		g.Preds(v, appendPred)
		sig.Int(-1)
	}
	for _, v := range block {
		s.inBlock[v] = -1
	}
	s.keyBuf = sig.Bytes()
	return s.keyBuf
}

// remapStages turns cached block-local stages into the caller's operator
// IDs. One flat allocation backs every stage, so a cache hit costs two
// allocations regardless of stage count.
func remapStages(stages [][]int32, block []graph.OpID) [][]graph.OpID {
	total := 0
	for _, st := range stages {
		total += len(st)
	}
	flat := make([]graph.OpID, total)
	out := make([][]graph.OpID, len(stages))
	k := 0
	for i, st := range stages {
		seg := flat[k : k+len(st) : k+len(st)]
		for j, li := range st {
			seg[j] = block[li]
		}
		out[i] = seg
		k += len(st)
	}
	return out
}

// localStages converts a freshly solved decomposition to block-local
// indices for storage. The result is newly allocated — the cache retains
// it forever — and, like remapStages, flat-backed.
func localStages(stages [][]graph.OpID, block []graph.OpID, s *solver) [][]int32 {
	for i, v := range block {
		s.inBlock[v] = int32(i)
	}
	total := 0
	for _, st := range stages {
		total += len(st)
	}
	flat := make([]int32, total)
	out := make([][]int32, len(stages))
	k := 0
	for i, st := range stages {
		seg := flat[k : k+len(st) : k+len(st)]
		for j, v := range st {
			seg[j] = s.inBlock[v]
		}
		out[i] = seg
		k += len(st)
	}
	for _, v := range block {
		s.inBlock[v] = -1
	}
	return out
}
