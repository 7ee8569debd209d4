package sim

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
)

// fuzzDAG decodes bytes into a small graph: one byte for the operator
// count (1–24 from its low seven bits), then per operator its time,
// utilization and output transfer time as float32 bits, then edge
// records: two endpoint bytes (one past the last operator meaning
// "unknown"), each edge carrying its producer's transfer time as the
// paper's graphs do. With the count byte's top bit set, each record
// carries its own transfer time as four more float32 bytes instead, so
// one producer's edges may take different times. Missing bytes read as
// zero. float32 bits reach NaN, ±Inf, negatives and subnormals, which
// Finalize must reject or the simulator must survive.
func fuzzDAG(data []byte) *graph.Graph {
	next := func(k int) []byte {
		var buf [4]byte
		k = copy(buf[:k], data)
		data = data[k:]
		return buf[:]
	}
	f32 := func() float64 { return float64(math.Float32frombits(binary.LittleEndian.Uint32(next(4)))) }
	head := next(1)[0]
	n, perEdge := 1+int(head&0x7f)%24, head&0x80 != 0
	g := graph.New(n, 0)
	comm := make([]float64, n+1)
	for i := 0; i < n; i++ {
		g.AddOp(graph.Op{Time: f32(), Util: f32()})
		comm[i] = f32()
	}
	for e := 0; len(data) > 0 && e < 64; e++ {
		ends := next(2)
		from, to := int(ends[0])%(n+1), int(ends[1])%(n+1)
		t := comm[from]
		if perEdge {
			t = f32()
		}
		g.AddEdge(graph.OpID(from), graph.OpID(to), t)
	}
	return g
}

// fuzzSchedule decodes bytes into a schedule of g that may be malformed.
// The first byte's low three bits give the GPU count (0–4). With its top
// bit set, the operators are placed one byte each in priority order: the
// byte's low six bits pick the GPU and bit 6 joins the GPU's last stage
// instead of opening a new one, so every operator is scheduled once but
// a stage may hold dependent operators or close a cycle between GPUs.
// Otherwise the rest is 2-byte records (control, operator) appended
// verbatim: the control byte picks the GPU, bit 7 opens a new stage and
// bit 6 appends an empty one, and the operator byte is a signed ID, so
// operators may be missing, repeated or unknown.
func fuzzSchedule(g *graph.Graph, data []byte) *sched.Schedule {
	if len(data) == 0 {
		return sched.New(0)
	}
	head, data := data[0], data[1:]
	s := sched.New(int(head&7) % 5)
	nG := s.NumGPUs()
	if nG == 0 {
		return s
	}
	add := func(gpu int, op graph.OpID, join bool) {
		q := &s.GPUs[gpu]
		if join && len(q.Stages) > 0 {
			last := &q.Stages[len(q.Stages)-1]
			last.Ops = append(last.Ops, op)
			return
		}
		q.Stages = append(q.Stages, sched.Stage{Ops: []graph.OpID{op}})
	}
	if head&0x80 != 0 {
		for i, op := range g.ByPriority() {
			var b byte
			if i < len(data) {
				b = data[i]
			}
			add(int(b&0x3f)%nG, op, b&0x40 != 0)
		}
		return s
	}
	for ; len(data) >= 2; data = data[2:] {
		ctl, op := data[0], graph.OpID(int8(data[1]))
		gpu := int(ctl&0x3f) % nG
		if ctl&0x40 != 0 {
			s.GPUs[gpu].Stages = append(s.GPUs[gpu].Stages, sched.Stage{})
		}
		add(gpu, op, ctl&0x80 == 0)
	}
	return s
}

// FuzzSimRun checks the simulator on fuzzed graphs and arbitrary,
// possibly malformed schedules: RunOpts, with links shared or not, never
// panics or hangs, and fails exactly when the analytic evaluator does.
// Otherwise its trace runs every stage once, every operator in its
// stage, each stage for the cost model's t(S) after its GPU's previous
// stage and after every input has arrived, and ends at the latency. With
// contention-free links the latency equals sched.Evaluate's bit for bit;
// sharing the links never makes it shorter.
//
// The seed corpus lives in testdata/fuzz/FuzzSimRun.
func FuzzSimRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, dag, plan []byte) {
		g := fuzzDAG(dag)
		if err := g.Finalize(); err != nil {
			return
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		s := fuzzSchedule(g, plan)
		want, werr := sched.Evaluate(g, m, s)
		var free *Trace
		for _, shared := range []bool{false, true} {
			tr, err := RunOpts(g, m, s, Options{SerializeLinks: shared})
			if (err == nil) != (werr == nil) {
				t.Fatalf("SerializeLinks=%v: RunOpts error %v, Evaluate error %v, on %v", shared, err, werr, s)
			}
			if err != nil {
				continue
			}
			checkTrace(t, g, m, s, tr)
			if !shared {
				if math.Float64bits(float64(tr.Latency)) != math.Float64bits(float64(want.Latency)) {
					t.Fatalf("latency %v, Evaluate %v, on %v", tr.Latency, want.Latency, s)
				}
				free = tr
			} else if tr.Latency < free.Latency {
				t.Fatalf("shared links finish at %v, before contention-free links at %v, on %v", tr.Latency, free.Latency, s)
			}
		}
	})
}

// checkTrace fails t unless tr is a complete execution of s on g under m.
func checkTrace(t *testing.T, g *graph.Graph, m cost.Model, s *sched.Schedule, tr *Trace) {
	t.Helper()
	if len(tr.Stages) != s.NumStages() {
		t.Fatalf("trace runs %d stages, schedule has %d", len(tr.Stages), s.NumStages())
	}
	n := g.NumOps()
	ran := make([]int, n) // operator -> index into tr.Stages, +1
	lastFinish := make([]float64, len(s.GPUs))
	prevIndex := make([]int, len(s.GPUs))
	for i := range prevIndex {
		prevIndex[i] = -1
	}
	var latency float64
	for i, st := range tr.Stages {
		if st.Index != prevIndex[st.GPU]+1 {
			t.Fatalf("GPU %d runs stage %d after stage %d", st.GPU, st.Index, prevIndex[st.GPU])
		}
		prevIndex[st.GPU] = st.Index
		if float64(st.Start) < lastFinish[st.GPU] {
			t.Fatalf("GPU %d stage %d starts at %v, before its previous stage ends at %v", st.GPU, st.Index, st.Start, lastFinish[st.GPU])
		}
		if st.Finish != st.Start+m.StageTime(st.Ops) { //lint:floatexact the simulator adds exactly t(S)
			t.Fatalf("GPU %d stage %d runs %v..%v, not for t(S) = %v", st.GPU, st.Index, st.Start, st.Finish, m.StageTime(st.Ops))
		}
		lastFinish[st.GPU] = float64(st.Finish)
		latency = max(latency, float64(st.Finish))
		for _, op := range st.Ops {
			if ran[op] != 0 {
				t.Fatalf("operator %d runs twice", op)
			}
			ran[op] = i + 1
		}
	}
	for op, r := range ran {
		if r == 0 {
			t.Fatalf("operator %d never runs", op)
		}
	}
	if latency != float64(tr.Latency) { //lint:floatexact the latency is the last finish
		t.Fatalf("latency %v, last stage finishes at %v", tr.Latency, latency)
	}
	for _, e := range g.Edges() {
		from, to := tr.Stages[ran[e.From]-1], tr.Stages[ran[e.To]-1]
		ready := from.Finish + cost.CommBetween(m, e.From, e.To, from.GPU, to.GPU)
		if to.Start < ready {
			t.Fatalf("operator %d starts at %v, before its input from %d is ready at %v", e.To, to.Start, e.From, ready)
		}
	}
}
