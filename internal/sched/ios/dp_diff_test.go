package ios

// Differential tests of the DP. The block cache is advertised as EXACT —
// it may never change a returned schedule, only how fast it is computed —
// and the plain DP itself is pinned by a digest of a few hundred random
// instances, so any later edit to the search that changes a single stage
// or latency bit fails loudly.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/dpcache"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// diffInstances is the graph count per differential test. The instances
// are small enough that a pair of solves each stays well under a second
// in total.
const diffInstances = 200

// diffCorpusDigest is the SHA-256 of the concatenated renderSchedule
// output of every diffCase instance, solved with NoCache. It was recorded
// before the incumbent pruning and intra-solve workers were deleted, and
// so proves the remaining DP returns exactly the schedules it did then.
const diffCorpusDigest = "96e8a6f224f338fa9c1d75a4f271cfc95289aee7c5da9d62b8d3b994021302f2"

// diffCase derives the i-th differential instance: a random graph whose
// size and shape vary with i (small multi-block graphs through wide
// beam-mode blocks) plus an options value that cycles through exact
// mode, beam mode, and tight stage bounds.
func diffCase(i int) (*randdag.Config, Options) {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	cfg := randdag.Paper()
	cfg.Ops = 15 + rng.Intn(35)
	cfg.Layers = 3 + rng.Intn(8)
	cfg.Deps = cfg.Ops + rng.Intn(cfg.Ops)
	cfg.Seed = int64(i + 1)
	var opt Options
	switch i % 3 {
	case 0: // defaults: exact for narrow blocks, beam for wide ones
	case 1: // force beam mode everywhere
		opt.ExactLimit = 1
		opt.Beam = 8 + rng.Intn(48)
	case 2: // exact everywhere, tight stage bounds (kept small: the
		// exact DP is exponential in the block width)
		cfg.Ops = 12 + rng.Intn(12)
		cfg.Deps = cfg.Ops + rng.Intn(cfg.Ops)
		opt.ExactLimit = 512
		opt.MaxStage = 2 + rng.Intn(2)
		opt.PruneWindow = 4 + rng.Intn(4)
	}
	return &cfg, opt
}

// renderSchedule solves the graph under the options and returns an exact
// textual rendering of the result: every stage's operator list plus the
// latency's full float formatting. Two renderings are equal iff the
// schedules are identical.
func renderSchedule(t *testing.T, cfg *randdag.Config, opt Options) string {
	t.Helper()
	g := randdag.MustGenerate(*cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	res, err := Schedule(g, m, opt)
	if err != nil {
		t.Fatalf("Schedule(%+v): %v", opt, err)
	}
	if err := sched.Validate(g, res.Schedule); err != nil {
		t.Fatalf("invalid schedule under %+v: %v", opt, err)
	}
	return fmt.Sprintf("%v|%b", res.Schedule.GPUs[0].Stages, float64(res.Latency))
}

// TestDiffCorpusDigest pins every schedule of the differential corpus —
// exact, beam and tight-bound modes — to one recorded digest.
func TestDiffCorpusDigest(t *testing.T) {
	h := sha256.New()
	for i := 0; i < diffInstances; i++ {
		cfg, opt := diffCase(i)
		opt.NoCache = true
		fmt.Fprintln(h, renderSchedule(t, cfg, opt))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != diffCorpusDigest {
		t.Fatalf("differential corpus digest changed: got %s, want %s", got, diffCorpusDigest)
	}
}

func TestCachedMatchesUncached(t *testing.T) {
	dpcache.Shared().Reset()
	for i := 0; i < diffInstances; i++ {
		cfg, opt := diffCase(i)
		opt.NoCache = true
		want := renderSchedule(t, cfg, opt)
		opt.NoCache = false
		cold := renderSchedule(t, cfg, opt) // fills the cache
		warm := renderSchedule(t, cfg, opt) // replays from it
		if cold != want || warm != want {
			t.Fatalf("instance %d (%+v): caching changed the schedule\nuncached: %s\ncold:     %s\nwarm:     %s",
				i, opt, want, cold, warm)
		}
	}
	if st := dpcache.Shared().Stats(); st.Hits == 0 {
		t.Fatalf("warm re-solves never hit the cache: %+v", st)
	}
}

// wideBeamDigest is the SHA-256 of the renderSchedule output of every
// wideBeamCase instance, solved with NoCache. The differential corpus
// above stays under 50 operators; these are 200-operator paper graphs,
// whose single wide block runs the beam search every bucket.
const wideBeamDigest = "5219def9aef5158910d6e34e7aa8f4f91313685c3f2d1981669d68bad587bae2"

// wideBeamCase derives the i-th wide instance: paper-default graph i+1
// under one of four beam widths, the third also widening the frontier
// window.
func wideBeamCase(i int) (*randdag.Config, Options) {
	cfg := randdag.Paper()
	cfg.Seed = int64(i/4 + 1)
	opt := Options{NoCache: true}
	switch i % 4 {
	case 0:
		opt.Beam = 1
	case 1:
		opt.Beam = 2
	case 2:
		opt.Beam = 4
		opt.PruneWindow = 10
	case 3:
		opt.Beam = 32
	}
	return &cfg, opt
}

// TestWideBeamDigest pins the beam-mode schedules of 12 wide graphs at
// four beam widths to one recorded digest.
func TestWideBeamDigest(t *testing.T) {
	h := sha256.New()
	for i := 0; i < 12*4; i++ {
		cfg, opt := wideBeamCase(i)
		fmt.Fprintln(h, renderSchedule(t, cfg, opt))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wideBeamDigest {
		t.Fatalf("wide beam digest changed: got %s, want %s", got, wideBeamDigest)
	}
}

// probeModel prices stages with an inner model but hides its ItemModel
// methods, so the DP takes the generic StageTime path, and folds every
// probe's operator IDs, in call order, into a running FNV-1a hash.
type probeModel struct {
	inner  cost.Model
	hash   uint64
	probes int
}

func (m *probeModel) OpTime(v graph.OpID) units.Millis      { return m.inner.OpTime(v) }
func (m *probeModel) CommTime(u, v graph.OpID) units.Millis { return m.inner.CommTime(u, v) }
func (m *probeModel) StageTime(ops []graph.OpID) units.Millis {
	const prime = 1099511628211
	for _, v := range ops {
		m.hash = (m.hash ^ uint64(v)) * prime
	}
	m.hash = (m.hash ^ 0xff) * prime // probe separator
	m.probes++
	return m.inner.StageTime(ops)
}

// genericProbeDigest is the SHA-256 over genericProbeCase instances of
// each schedule together with the count and FNV-1a hash of its StageTime
// probe sequence: the sequence profile.CostTable counts for Fig. 14.
const genericProbeDigest = "feac8216b7b2f894d83f5ee63fa582fef4be399256e6c563950b11c03c9afbca"

// TestGenericProbeDigest pins the generic (non-ItemModel) path: its
// schedules and every StageTime probe it issues, in order.
func TestGenericProbeDigest(t *testing.T) {
	h := sha256.New()
	for i := 0; i < 6; i++ {
		cfg := randdag.Paper()
		cfg.Seed = int64(100 + i)
		opt := Options{NoCache: true}
		if i%2 == 1 {
			opt.Beam = 4
		}
		g := randdag.MustGenerate(cfg)
		m := &probeModel{inner: cost.FromGraph(g, cost.DefaultContention()), hash: 14695981039346656037}
		if _, ok := cost.Model(m).(cost.ItemModel); ok {
			t.Fatal("probeModel must not satisfy cost.ItemModel")
		}
		res, err := Schedule(g, m, opt)
		if err != nil {
			t.Fatalf("Schedule(%+v): %v", opt, err)
		}
		if err := sched.Validate(g, res.Schedule); err != nil {
			t.Fatalf("invalid schedule under %+v: %v", opt, err)
		}
		fmt.Fprintf(h, "%v|%b|%d|%x\n", res.Schedule.GPUs[0].Stages, float64(res.Latency), m.probes, m.hash)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != genericProbeDigest {
		t.Fatalf("generic probe digest changed: got %s, want %s", got, genericProbeDigest)
	}
}

// opaqueModel hides every method of a model but cost.Model's, so the DP
// takes the generic StageTime path with no stage memo.
type opaqueModel struct{ cost.Model }

// TestFastPathMatchesGeneric holds the fast path's candidate lists to the
// generic path's recursion. Every list of up to 16 positions, at every
// stage bound, must hold the stages in the recursion's visit order, and
// every differential instance, plus wide-window instances (PruneWindow
// 10-16, MaxStage 3-11), must solve to the same stages and latency bits
// on the ItemModel and behind an opaque wrapper. The order matters: it
// decides the first minimal predecessor of a state and when the beam
// bound falls.
func TestFastPathMatchesGeneric(t *testing.T) {
	var s solver
	for maxStage := 1; maxStage <= 16; maxStage++ {
		s.reset(0, 0, Options{MaxStage: maxStage})
		for n := 1; n <= 16; n++ {
			list := s.candList(n)
			e := 0
			// visit walks the recursion's stages that extend entry parent
			// (of size-1 members) with positions i..n-1, and checks that
			// the list holds each one next.
			var visit func(parent int32, i, size int)
			visit = func(parent int32, i, size int) {
				for j := i; j < n; j++ {
					want := cand{parent: parent, pos: uint16(j), size: uint16(size)}
					if e >= len(list) || list[e] != want {
						t.Fatalf("n %d, MaxStage %d: entry %d of %d is not %+v", n, maxStage, e, len(list), want)
					}
					e++
					if size < maxStage {
						visit(int32(e-1), j+1, size+1)
					}
				}
			}
			visit(-1, 0, 1)
			if e != len(list) {
				t.Fatalf("n %d, MaxStage %d: %d candidates, the recursion visits %d", n, maxStage, len(list), e)
			}
		}
	}

	solve := func(cfg *randdag.Config, opt Options) (string, string) {
		g := randdag.MustGenerate(*cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		opt.NoCache = true
		var out [2]string
		for i, mm := range []cost.Model{m, opaqueModel{m}} {
			res, err := Schedule(g, mm, opt)
			if err != nil {
				t.Fatalf("Schedule(%+v): %v", opt, err)
			}
			out[i] = fmt.Sprintf("%v|%b", res.Schedule.GPUs[0].Stages, float64(res.Latency))
		}
		return out[0], out[1]
	}
	for i := 0; i < diffInstances; i++ {
		cfg, opt := diffCase(i)
		if fast, generic := solve(cfg, opt); fast != generic {
			t.Fatalf("instance %d (%+v): fast path %s, generic path %s", i, opt, fast, generic)
		}
	}
	widest := 0
	for i := 0; i < 40; i++ {
		rng := rand.New(rand.NewSource(int64(5000 + i)))
		cfg := randdag.Paper()
		cfg.Ops = 16 + rng.Intn(15)
		cfg.Layers = 2 + rng.Intn(5)
		cfg.Deps = cfg.Ops + rng.Intn(cfg.Ops)
		cfg.Seed = int64(i + 1)
		opt := Options{
			PruneWindow: 10 + rng.Intn(7),
			MaxStage:    3 + rng.Intn(9),
			ExactLimit:  1,
			Beam:        1 + rng.Intn(4),
		}
		if fast, generic := solve(&cfg, opt); fast != generic {
			t.Fatalf("wide instance %d (%+v): fast path %s, generic path %s", i, opt, fast, generic)
		}
		g := randdag.MustGenerate(cfg)
		_, _, w := dpWork(t, g, cost.FromGraph(g, cost.DefaultContention()), opt)
		widest = max(widest, w)
	}
	if widest < 16 {
		t.Fatalf("the wide instances reach frontiers of %d operators, want 16", widest)
	}
}
