package hios_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	hios "github.com/shus-lab/hios"
)

func quickGraph(t *testing.T) (*hios.Graph, hios.CostModel) {
	t.Helper()
	cfg := hios.RandomModelDefaults()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 30, 5, 60, 11
	g, err := hios.RandomModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g, hios.DefaultCostModel(g)
}

func TestOptimizeAllAlgorithms(t *testing.T) {
	g, m := quickGraph(t)
	var latencies []hios.Millis
	for _, a := range hios.Algorithms() {
		res, err := hios.Optimize(g, m, a, hios.Options{GPUs: 2})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		lat, err := hios.Latency(g, m, res.Schedule)
		if err != nil {
			t.Fatalf("%s: schedule invalid: %v", a, err)
		}
		if lat != res.Latency {
			t.Fatalf("%s: reported %g != evaluated %g", a, res.Latency, lat)
		}
		latencies = append(latencies, lat)
	}
	// HIOS-LP (index 2) must beat sequential (index 0).
	if latencies[2] >= latencies[0] {
		t.Fatalf("HIOS-LP (%g) should beat sequential (%g)", latencies[2], latencies[0])
	}
}

func TestOptimizeUnknownAlgorithm(t *testing.T) {
	g, m := quickGraph(t)
	_, err := hios.Optimize(g, m, hios.Algorithm("bogus"), hios.Options{GPUs: 1})
	if !errors.Is(err, hios.ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want errors.Is(ErrUnknownAlgorithm)", err)
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error should name the algorithm: %v", err)
	}
}

// Options.Validate is the single home of the option rules; every
// sentinel must be errors.Is-matchable through Optimize.
func TestOptionsValidate(t *testing.T) {
	g, m := quickGraph(t)
	cases := []struct {
		name string
		algo hios.Algorithm
		opt  hios.Options
		want error
	}{
		{"unknown algorithm", hios.Algorithm("nope"), hios.Options{}, hios.ErrUnknownAlgorithm},
		{"lp without gpus", hios.HIOSLP, hios.Options{}, hios.ErrNoGPUs},
		{"mr negative gpus", hios.HIOSMR, hios.Options{GPUs: -2}, hios.ErrNoGPUs},
		{"inter-lp without gpus", hios.InterLP, hios.Options{}, hios.ErrNoGPUs},
		{"inter-mr without gpus", hios.InterMR, hios.Options{}, hios.ErrNoGPUs},
		{"negative window", hios.HIOSLP, hios.Options{GPUs: 2, Window: -1}, hios.ErrBadWindow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(tc.algo); !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want errors.Is %v", err, tc.want)
			}
			if _, err := hios.Optimize(g, m, tc.algo, tc.opt); !errors.Is(err, tc.want) {
				t.Fatalf("Optimize = %v, want errors.Is %v", err, tc.want)
			}
		})
	}
	// Single-GPU algorithms must keep accepting the zero Options.
	for _, algo := range []hios.Algorithm{hios.Sequential, hios.IOS} {
		if err := (hios.Options{}).Validate(algo); err != nil {
			t.Fatalf("%s rejected zero Options: %v", algo, err)
		}
	}
	if err := (hios.Options{GPUs: 2}).Validate(hios.HIOSLP); err != nil {
		t.Fatalf("valid multi-GPU options rejected: %v", err)
	}
}

func TestWriteTraceFacades(t *testing.T) {
	g, m := quickGraph(t)
	res, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var dot bytes.Buffer
	if err := hios.WriteDOT(&dot, g, res.Schedule); err != nil {
		t.Fatal(err)
	}
	if dot.String() != hios.DOT(g, res.Schedule) {
		t.Fatal("WriteDOT and DOT disagree")
	}
	tr, err := hios.Simulate(g, m, res.Schedule, true)
	if err != nil {
		t.Fatal(err)
	}
	var gantt bytes.Buffer
	if err := hios.WriteGantt(&gantt, g, tr, 40); err != nil {
		t.Fatal(err)
	}
	if gantt.String() != hios.Gantt(g, tr, 40) {
		t.Fatal("WriteGantt and Gantt disagree")
	}
}

func TestCustomGraphConstruction(t *testing.T) {
	g := hios.NewGraph(3, 2)
	a := g.AddOp(hios.Op{Name: "load", Time: 1, Util: 0.5})
	b := g.AddOp(hios.Op{Name: "conv", Time: 2, Util: 0.9})
	c := g.AddOp(hios.Op{Name: "fc", Time: 0.5, Util: 0.2})
	g.AddEdge(a, b, 0.1)
	g.AddEdge(b, c, 0.1)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := hios.DefaultCostModel(g)
	res, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 3.5 {
		t.Fatalf("chain latency = %g, want 3.5", res.Latency)
	}
}

func TestBenchmarkBuilders(t *testing.T) {
	inc := hios.InceptionV3(hios.DualA40(), 299)
	if inc.G.NumOps() != 121 {
		t.Fatalf("inception ops = %d", inc.G.NumOps())
	}
	nas := hios.NASNetA(hios.DualA40(), 331)
	if nas.G.NumOps() != 374 {
		t.Fatalf("nasnet ops = %d", nas.G.NumOps())
	}
	sq := hios.SqueezeNet(hios.DualA40(), 224)
	if sq.G.NumOps() != 39 {
		t.Fatalf("squeezenet ops = %d", sq.G.NumOps())
	}
	rn := hios.ResNet50(hios.DualA40(), 224)
	if rn.G.NumOps() != 73 {
		t.Fatalf("resnet50 ops = %d", rn.G.NumOps())
	}
	rw, err := hios.RandWireNet(hios.DualA40(), hios.DefaultRandWire())
	if err != nil {
		t.Fatal(err)
	}
	if rw.G.NumOps() < 100 {
		t.Fatalf("randwire ops = %d", rw.G.NumOps())
	}
}

// TestBuildNet checks that every model name builds the net of its
// builder at the default size when size is 0, honours an explicit size,
// and that an unknown name is an error.
func TestBuildNet(t *testing.T) {
	p := hios.DualA40()
	for _, c := range []struct {
		name string
		want *hios.Net
	}{
		{"inception", hios.InceptionV3(p, 299)},
		{"nasnet", hios.NASNetA(p, 331)},
		{"squeezenet", hios.SqueezeNet(p, 224)},
		{"resnet50", hios.ResNet50(p, 224)},
	} {
		net, err := hios.BuildNet(c.name, p, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if net.Name != c.want.Name || net.G.NumOps() != c.want.G.NumOps() {
			t.Errorf("%s: built %s (%d ops), want %s (%d ops)", c.name, net.Name, net.G.NumOps(), c.want.Name, c.want.G.NumOps())
		}
	}
	if net, err := hios.BuildNet("squeezenet", p, 160); err != nil || net.Name != hios.SqueezeNet(p, 160).Name {
		t.Errorf("squeezenet@160: %v", err)
	}
	if _, err := hios.BuildNet("vgg", p, 0); err == nil || !strings.Contains(err.Error(), `unknown model "vgg"`) {
		t.Errorf("unknown model: err = %v", err)
	}
}

func TestMemoryFacade(t *testing.T) {
	net := hios.InceptionV3(hios.DualA40(), 299)
	m := hios.DefaultCostModel(net.G)
	res, err := hios.Optimize(net.G, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hios.AnalyzeMemory(net.G, m, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPeak() <= 0 {
		t.Fatal("Inception should occupy device memory")
	}
	if !rep.Fits(48 << 30) {
		t.Fatalf("peak %d should fit an A40", rep.MaxPeak())
	}
}

// TestResNetIsTheControlCase: the near-chain ResNet-50 should gain almost
// nothing from multi-GPU scheduling — the dependency chain binds every
// scheduler. This validates that HIOS's wins on Inception/NASNet come
// from real branch-level parallelism, not an artifact of the cost model.
func TestResNetIsTheControlCase(t *testing.T) {
	net := hios.ResNet50(hios.DualA40(), 224)
	m := hios.DefaultCostModel(net.G)
	sq, err := hios.Optimize(net.G, m, hios.Sequential, hios.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := hios.Optimize(net.G, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp := sq.Latency / lp.Latency; sp > 1.3 {
		t.Fatalf("ResNet speedup %g implausibly high for a chain", sp)
	}
	if lp.Latency > sq.Latency+1e-9 {
		t.Fatalf("HIOS-LP (%g) worse than sequential (%g) on ResNet", lp.Latency, sq.Latency)
	}
}

func TestSimulateMatchesEvaluate(t *testing.T) {
	g, m := quickGraph(t)
	res, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hios.Simulate(g, m, res.Schedule, false)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tr.Latency - res.Latency; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("simulated %g != evaluated %g", tr.Latency, res.Latency)
	}
	// Serialized links can only slow things down.
	tr2, err := hios.Simulate(g, m, res.Schedule, true)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Latency < tr.Latency-1e-9 {
		t.Fatalf("serialized links sped up the schedule: %g < %g", tr2.Latency, tr.Latency)
	}
}

func TestExecuteProducesReferenceResults(t *testing.T) {
	g, m := quickGraph(t)
	res, err := hios.Optimize(g, m, hios.HIOSMR, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hios.Execute(g, m, res.Schedule, hios.ExecOptions{WorkPerMs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != g.NumOps() {
		t.Fatalf("outputs = %d, want %d", len(rep.Outputs), g.NumOps())
	}
}

func TestJSONRoundTripAndChromeTrace(t *testing.T) {
	g, m := quickGraph(t)
	res, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := hios.ExportJSON(g, res.Schedule, "random-30", hios.HIOSLP, res.Latency)
	if err != nil {
		t.Fatal(err)
	}
	back, err := hios.ImportJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := hios.Latency(g, m, back)
	if err != nil || lat != res.Latency {
		t.Fatalf("round trip: %g vs %g (%v)", lat, res.Latency, err)
	}
	tr, err := hios.Simulate(g, m, res.Schedule, true)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := hios.ChromeTrace(g, tr)
	if err != nil || len(ct) == 0 {
		t.Fatalf("chrome trace: %v", err)
	}
}

func TestProfiledFacade(t *testing.T) {
	g, m := quickGraph(t)
	pm := hios.Profiled(m, 0, 0)
	if _, err := hios.Optimize(g, pm, hios.HIOSLP, hios.Options{GPUs: 2}); err != nil {
		t.Fatal(err)
	}
	st := pm.Stats()
	if st.Probes() == 0 || st.SimulatedMs <= 0 {
		t.Fatalf("profiling accounting empty: %+v", st)
	}
	// Every operator must have been measured at least once.
	if st.OpProbes != g.NumOps() {
		t.Fatalf("op probes = %d, want %d", st.OpProbes, g.NumOps())
	}
}

func TestGanttFacade(t *testing.T) {
	g, m := quickGraph(t)
	res, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hios.Simulate(g, m, res.Schedule, true)
	if err != nil {
		t.Fatal(err)
	}
	out := hios.Gantt(g, tr, 40)
	if !strings.Contains(out, "GPU0") {
		t.Fatalf("gantt output: %q", out)
	}
}

func TestTopologyFacade(t *testing.T) {
	g, m := quickGraph(t)
	topo := hios.WithTopology(m, hios.TwoLevelTopology(2, 2, 8))
	res, err := hios.Optimize(g, topo, hios.HIOSLP, hios.Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The schedule must evaluate identically under the same topology
	// model, and a uniform topology must agree with the flat model.
	lat, err := hios.Latency(g, topo, res.Schedule)
	if err != nil || lat != res.Latency {
		t.Fatalf("topology latency mismatch: %g vs %g (%v)", lat, res.Latency, err)
	}
	uni := hios.WithTopology(m, hios.UniformTopology(4))
	flat, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	uniRes, err := hios.Optimize(g, uni, hios.HIOSLP, hios.Options{GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Latency != uniRes.Latency {
		t.Fatalf("uniform topology changed the result: %g vs %g", flat.Latency, uniRes.Latency)
	}
}

func TestPipelineFacade(t *testing.T) {
	g, m := quickGraph(t)
	res, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hios.AnalyzePipeline(g, m, res.Schedule, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencyMs != res.Latency {
		t.Fatalf("pipeline request-0 latency %g != schedule latency %g", rep.LatencyMs, res.Latency)
	}
	if rep.SteadyPeriodMs <= 0 || rep.SteadyPeriodMs > rep.LatencyMs+1e-9 {
		t.Fatalf("period %g out of (0, latency]", rep.SteadyPeriodMs)
	}
}

func TestParallelizeFacade(t *testing.T) {
	g, m := quickGraph(t)
	res, err := hios.Optimize(g, m, hios.InterLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	better, err := hios.Parallelize(g, m, res.Schedule, 4)
	if err != nil {
		t.Fatal(err)
	}
	if better.Latency > res.Latency+1e-9 {
		t.Fatalf("Parallelize increased latency: %g -> %g", res.Latency, better.Latency)
	}
}

func TestProfileSnapshotFacade(t *testing.T) {
	g, m := quickGraph(t)
	pm := hios.Profiled(m, 1, 1)
	live, err := hios.Optimize(g, pm, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := pm.Export("quick")
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := hios.ImportProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := hios.Optimize(g, frozen, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Latency != live.Latency || frozen.Misses() != 0 {
		t.Fatalf("frozen replay diverged: %g vs %g (%d misses)",
			replay.Latency, live.Latency, frozen.Misses())
	}
}
