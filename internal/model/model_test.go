package model

import (
	"math"
	"testing"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
)

func TestTensorAccounting(t *testing.T) {
	ts := Tensor{C: 3, H: 4, W: 5}
	if ts.Elems() != 60 || ts.Bytes() != 240 {
		t.Fatalf("Elems/Bytes wrong: %d %d", ts.Elems(), ts.Bytes())
	}
	if ts.String() != "3x4x5" {
		t.Fatalf("String = %q", ts.String())
	}
}

func TestConvShapeInference(t *testing.T) {
	b := NewBuilder("t", gpu.A40(), gpu.NVLinkBridge())
	in := b.Input(3, 299, 299)
	c := b.Conv(in, 32, 3, 3, 2, 2, 0, 0, "c1")
	if got := b.Shape(c); got != (Tensor{C: 32, H: 149, W: 149}) {
		t.Fatalf("conv shape = %v", got)
	}
	p := b.MaxPool(c, 3, 2, 0, "p1")
	if got := b.Shape(p); got != (Tensor{C: 32, H: 74, W: 74}) {
		t.Fatalf("pool shape = %v", got)
	}
	s := b.SepConv(p, 64, 3, 1, 1, "s1")
	if got := b.Shape(s); got != (Tensor{C: 64, H: 74, W: 74}) {
		t.Fatalf("sepconv shape = %v", got)
	}
	gp := b.GlobalAvgPool(s, "gp")
	if got := b.Shape(gp); got != (Tensor{C: 64, H: 1, W: 1}) {
		t.Fatalf("globalpool shape = %v", got)
	}
	fc := b.Linear(gp, 10, "fc")
	if got := b.Shape(fc); got != (Tensor{C: 10, H: 1, W: 1}) {
		t.Fatalf("linear shape = %v", got)
	}
	n := b.MustBuild()
	// input, conv, pool, sep (2 ops), globalpool, linear.
	if n.G.NumOps() != 7 {
		t.Fatalf("ops = %d, want 7", n.G.NumOps())
	}
}

func TestConcatChecksSpatial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Concat accepted mismatched spatial dims")
		}
	}()
	b := NewBuilder("t", gpu.A40(), gpu.NVLinkBridge())
	in := b.Input(3, 64, 64)
	a := b.Conv1x1(in, 8, "a")
	c := b.Conv(in, 8, 3, 3, 2, 2, 0, 0, "c")
	b.Concat("bad", a, c)
}

func TestAddChecksShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted mismatched shapes")
		}
	}()
	b := NewBuilder("t", gpu.A40(), gpu.NVLinkBridge())
	in := b.Input(3, 64, 64)
	a := b.Conv1x1(in, 8, "a")
	c := b.Conv1x1(in, 16, "c")
	b.Add(a, c, "bad")
}

func TestDegenerateConvPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Conv accepted a kernel larger than its input")
		}
	}()
	b := NewBuilder("t", gpu.A40(), gpu.NVLinkBridge())
	in := b.Input(3, 4, 4)
	b.Conv(in, 8, 7, 7, 1, 1, 0, 0, "bad")
}

func TestOpWeightsPositiveAndFinite(t *testing.T) {
	n := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299)
	for _, op := range n.G.Ops() {
		if !(op.Time > 0) || math.IsInf(op.Time, 0) || math.IsNaN(op.Time) {
			t.Fatalf("op %s has bad time %g", op.Name, op.Time)
		}
		if op.Util <= 0 || op.Util > 1 {
			t.Fatalf("op %s has bad util %g", op.Name, op.Util)
		}
	}
	for _, e := range n.G.Edges() {
		if e.Time <= 0 || math.IsNaN(e.Time) {
			t.Fatalf("edge %d->%d has bad transfer %g", e.From, e.To, e.Time)
		}
	}
}

func TestInceptionV3Structure(t *testing.T) {
	n := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299)
	// Paper: 119 operators, 153 dependencies. Our builder keeps the
	// explicit input placeholder and classifier: 121 ops.
	if got := n.G.NumOps(); got != 121 {
		t.Fatalf("ops = %d, want 121", got)
	}
	if got := n.G.NumEdges(); got < 140 || got > 170 {
		t.Fatalf("edges = %d, want ~153", got)
	}
	if got := len(n.G.Sources()); got != 1 {
		t.Fatalf("sources = %d, want 1", got)
	}
	if got := len(n.G.Sinks()); got != 1 {
		t.Fatalf("sinks = %d, want 1", got)
	}
	if _, err := n.G.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	// Final classifier output must be 1000-way.
	sink := n.G.Sinks()[0]
	if n.Shapes[sink].C != 1000 {
		t.Fatalf("classifier shape = %v", n.Shapes[sink])
	}
}

func TestInceptionV3ScalesWithInput(t *testing.T) {
	small := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299)
	large := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 1024)
	if small.G.NumOps() != large.G.NumOps() {
		t.Fatal("input size must not change the graph structure")
	}
	if large.G.TotalOpTime() <= small.G.TotalOpTime()*1.5 {
		t.Fatalf("1024px work (%g ms) should clearly exceed 299px (%g ms)",
			large.G.TotalOpTime(), small.G.TotalOpTime())
	}
	// The paper's premise: growing the input makes operators saturate
	// the GPU (higher solo utilization), shrinking the intra-GPU
	// parallelization headroom.
	meanUtil := func(n *Net) float64 {
		var s float64
		for _, op := range n.G.Ops() {
			s += op.Util
		}
		return s / float64(n.G.NumOps())
	}
	if meanUtil(large) <= meanUtil(small) {
		t.Fatalf("mean utilization should grow with input size: %g vs %g",
			meanUtil(large), meanUtil(small))
	}
}

func TestNASNetStructure(t *testing.T) {
	n := NASNet(gpu.A40(), gpu.NVLinkBridge(), 331)
	// Paper: 374 operators, 576 dependencies.
	if got := n.G.NumOps(); got != 374 {
		t.Fatalf("ops = %d, want 374", got)
	}
	if got := n.G.NumEdges(); got < 500 || got > 650 {
		t.Fatalf("edges = %d, want ~576", got)
	}
	if got := len(n.G.Sources()); got != 1 {
		t.Fatalf("sources = %d, want 1", got)
	}
	if _, err := n.G.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	sink := n.G.Sinks()[0]
	if n.Shapes[sink].C != 1000 {
		t.Fatalf("classifier shape = %v", n.Shapes[sink])
	}
}

func TestNASNetWiderThanInception(t *testing.T) {
	// NASNet's cells are wider (more parallel branches) than
	// Inception's: its maximum layer width must exceed Inception's.
	inc := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299)
	nas := NASNet(gpu.A40(), gpu.NVLinkBridge(), 331)
	width := func(n *Net) int {
		w := 0
		for _, l := range n.G.Layers() {
			if len(l) > w {
				w = len(l)
			}
		}
		return w
	}
	if width(nas) <= width(inc)/2 {
		t.Fatalf("NASNet width %d vs Inception %d: expected branch-heavy NASNet", width(nas), width(inc))
	}
}

func TestDifferentDevicesDifferentTimes(t *testing.T) {
	a40 := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299)
	v100 := InceptionV3(gpu.V100S(), gpu.PCIe3(), 299)
	if a40.G.TotalOpTime() >= v100.G.TotalOpTime() {
		t.Fatalf("A40 (%g ms) should be faster than V100S (%g ms)",
			a40.G.TotalOpTime(), v100.G.TotalOpTime())
	}
}

// TestBuilderCacheStability: building the same net twice yields
// byte-identical graph weights — a build is a pure function of the
// architecture and the platform.
func TestBuilderCacheStability(t *testing.T) {
	a := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299)
	b := InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299)
	if a.G.NumOps() != b.G.NumOps() {
		t.Fatalf("op counts differ: %d vs %d", a.G.NumOps(), b.G.NumOps())
	}
	for v := range a.G.Ops() {
		oa, ob := a.G.Op(graph.OpID(v)), b.G.Op(graph.OpID(v))
		if oa.Time != ob.Time || oa.Util != ob.Util { //lint:floatexact
			t.Fatalf("op %d weights drifted across rebuilds: (%v,%v) vs (%v,%v)",
				v, oa.Time, oa.Util, ob.Time, ob.Util)
		}
	}
	ea, eb := a.G.Edges(), b.G.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Time != eb[i].Time { //lint:floatexact
			t.Fatalf("edge %d transfer drifted: %v vs %v", i, ea[i].Time, eb[i].Time)
		}
	}
}
