package ios

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
)

// fuzzGraph decodes bytes into a small graph: one byte for the operator
// count (1–24), then per operator its time and utilization as float32
// bits, then 6-byte edge records (endpoint bytes, one past the last
// operator meaning "unknown", and the transfer time's float32 bits).
// Missing bytes read as zero. float32 bits reach every class of float —
// NaN, ±Inf, negatives, subnormals — while keeping any sum of 24 finite
// values, even scaled by the contention penalty, finite in float64.
func fuzzGraph(data []byte) *graph.Graph {
	next := func(k int) []byte {
		var buf [4]byte
		k = copy(buf[:k], data)
		data = data[k:]
		return buf[:]
	}
	f32 := func() float64 { return float64(math.Float32frombits(binary.LittleEndian.Uint32(next(4)))) }
	n := 1 + int(next(1)[0])%24
	g := graph.New(n, 0)
	for i := 0; i < n; i++ {
		g.AddOp(graph.Op{Time: f32(), Util: f32()})
	}
	for e := 0; len(data) > 0 && e < 64; e++ {
		ends := next(2)
		from := graph.OpID(int(ends[0]) % (n + 1))
		to := graph.OpID(int(ends[1]) % (n + 1))
		g.AddEdge(from, to, f32())
	}
	return g
}

// FuzzFinalizeSchedule checks the graph boundary end to end: arbitrary
// weights and edges either fail Finalize or yield, under both the default
// options and a forced narrow beam, a schedule that Validate accepts with
// a finite, non-negative latency no shorter than any operator's time.
// The seed corpus lives in testdata/fuzz/FuzzFinalizeSchedule; its
// nan-op-time and nan-util entries are graphs Finalize once accepted, and
// rounding-priority-tie is one whose priority order was not topological.
func FuzzFinalizeSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if err := g.Finalize(); err != nil {
			return
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		for _, opt := range []Options{{}, {ExactLimit: 1, Beam: 2}} {
			res, err := Schedule(g, m, opt)
			if err != nil {
				t.Fatalf("Schedule(%+v) on a finalized graph: %v", opt, err)
			}
			if err := sched.Validate(g, res.Schedule); err != nil {
				t.Fatalf("Schedule(%+v) returned an invalid schedule: %v", opt, err)
			}
			lat := float64(res.Latency)
			if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
				t.Fatalf("Schedule(%+v) latency %v, want finite and >= 0", opt, lat)
			}
			// Every operator runs inside one stage, and a stage lasts at
			// least as long as its longest member.
			for v := 0; v < g.NumOps(); v++ {
				if tv := g.Time(graph.OpID(v)); !(lat >= tv) {
					t.Fatalf("Schedule(%+v) latency %v below operator %d's time %v", opt, lat, v, tv)
				}
			}
		}
	})
}
