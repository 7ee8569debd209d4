// Package mr implements the inter-GPU mapping pass of HIOS-MR (Algorithm
// 3 of the HIOS paper): mapping-recording-based operator scheduling across
// multiple GPUs. HIOS-MR is this pass followed by the same sliding-window
// intra-GPU pass as HIOS-LP (Algorithm 3, line 27); internal/experiments.Run
// composes the two.
//
// The algorithm walks the operators in descending-priority (topological)
// order and fills an n×M table in which entry (i, j) records the earliest
// finish time of operator v_i when it is mapped onto GPU j, together with
// the GPU that v_{i-1} occupied in the partial schedule realizing that
// finish time. For each candidate (i, j) it replays the recorded chain to
// reconstruct where v_1..v_{i-1} sit, computes GPU j's availability and the
// data-readiness of v_i's inputs (paying cross-GPU transfer times), and
// keeps the best predecessor choice. The final schedule is read back by
// following the recorded chain from the best last-operator entry.
//
// HIOS-MR is a greedy local optimizer: unlike HIOS-LP it never reasons
// about whole paths, so it tends to scatter dependent operators across
// GPUs and pay avoidable transfers — which is exactly the behaviour the
// paper observes (HIOS-LP beats it by 9–17% on real models).
package mr

import (
	"fmt"
	"math"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// Options configures the MR mapping pass.
type Options struct {
	// GPUs is M, the number of homogeneous devices. Must be >= 1.
	GPUs int
}

// Validate reports whether the options are usable: at least one GPU.
func (o Options) Validate() error {
	if o.GPUs < 1 {
		return fmt.Errorf("mr: need at least 1 GPU, got %d", o.GPUs)
	}
	return nil
}

// Schedule runs the MR mapping pass (Algorithm 3, lines 1–26) on g under
// cost model m and returns the inter-GPU schedule (one operator per
// stage): the "inter-GPU w/ MR" curve of the paper's figures.
//
//lint:hotpath
func Schedule(g *graph.Graph, m cost.Model, opt Options) (sched.Result, error) {
	if err := opt.Validate(); err != nil {
		return sched.Result{}, err
	}
	n := g.NumOps()
	M := opt.GPUs
	if n == 0 {
		return sched.Result{Schedule: sched.New(M), Latency: 0}, nil
	}

	// Line 1: topological order by descending priority indicator.
	order := g.ByPriority()
	pos := make([]int, n) // operator -> index in order
	for i, v := range order {
		pos[v] = i
	}

	// Lines 2–4: the n×M table of (earliest finish, predecessor GPU),
	// row-major in two flat arrays — entry (i, j) at index i*M+j.
	tTab := make([]units.Millis, n*M)
	gTab := make([]int, n*M)
	for i := range tTab {
		tTab[i] = units.Millis(math.Inf(1))
	}
	// Line 5: v_1 goes to GPU 1 (homogeneity makes the choice free).
	tTab[0] = m.OpTime(order[0])

	// Scratch buffers for the chain replay.
	tF := make([]units.Millis, n)
	gOf := make([]int, n)
	avail := make([]units.Millis, M)

	// Lines 6–21, with k as the outer loop: the recorded chain and the
	// per-GPU availability depend only on (i, k), so both are
	// reconstructed once and shared by every candidate GPU j — an
	// O(n·M·(n+M)) replay cost instead of the naive O(n²·M²). For each
	// fixed j the k values still arrive in ascending order, and the
	// strict < below keeps the first minimal k, so the table (and hence
	// the schedule) is identical to the j-outer formulation.
	for i := 1; i < n; i++ {
		vi := order[i]
		maxJ := M
		if i+1 < maxJ {
			maxJ = i + 1
		}
		maxK := M
		if i < maxK {
			maxK = i
		}
		for k := 0; k < maxK; k++ {
			if math.IsInf(float64(tTab[(i-1)*M+k]), 1) {
				continue // v_{i-1} cannot finish on GPU k
			}
			// Lines 10–12: replay the recorded chain to recover each
			// earlier operator's GPU and finish time under "v_{i-1}
			// on GPU k".
			mm := k
			for l := i - 1; l >= 0; l-- {
				tF[l] = tTab[l*M+mm]
				gOf[l] = mm
				mm = gTab[l*M+mm]
			}
			// Line 14: every GPU's availability in one pass.
			for j := 0; j < M; j++ {
				avail[j] = 0
			}
			for l := 0; l < i; l++ {
				if tF[l] > avail[gOf[l]] {
					avail[gOf[l]] = tF[l]
				}
			}
			for j := 0; j < maxJ; j++ {
				// Lines 15–19: data readiness of v_i's inputs.
				tk := avail[j]
				for p := 0; p < g.InDegree(vi); p++ {
					u, _ := g.PredAt(vi, p)
					lu := pos[u]
					if lu >= i {
						// A predecessor later in the priority
						// order would violate topological
						// ordering; cannot happen with positive
						// op times.
						return sched.Result{}, fmt.Errorf("mr: priority order is not topological at operator %d", vi)
					}
					if r := tF[lu] + cost.CommBetween(m, u, vi, gOf[lu], j); r > tk {
						tk = r
					}
				}
				// Lines 20–21.
				if f := tk + m.OpTime(vi); f < tTab[i*M+j] {
					tTab[i*M+j] = f
					gTab[i*M+j] = k
				}
			}
		}
	}

	// Lines 22–26: pick the best finish of v_n and walk the chain back.
	J := 0
	for j := 1; j < M; j++ {
		if tTab[(n-1)*M+j] < tTab[(n-1)*M+J] {
			J = j
		}
	}
	place := make([]int, n)
	mm := J
	for i := n - 1; i >= 0; i-- {
		place[order[i]] = mm
		mm = gTab[i*M+mm]
	}

	s := sched.FromPlacement(M, order, place)
	lat, err := sched.Latency(g, m, s)
	if err != nil {
		return sched.Result{}, err
	}
	return sched.Result{Schedule: s, Latency: lat}, nil
}
