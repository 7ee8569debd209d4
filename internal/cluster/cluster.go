// Package cluster is the online serving layer of the HIOS reproduction:
// one deterministic discrete-event engine serving deadline-aware,
// multi-tenant traffic on anything from a single node to a
// heterogeneous GPU fleet behind one gateway.
//
// The paper answers an offline question — one request, one schedule, one
// latency. A deployment answers an online one, and a deployed model is
// characterized by the two numbers the pipeline analysis derives from
// its schedule — the single-request latency L and the steady-state
// admission period P — so scheduler quality (lower L, lower P) is
// directly visible as serving capacity and SLO attainment. A fleet adds
// three control-plane questions (the aibrix / kthena architecture
// split): which node should a request run on (the *router*), how many
// replicas should each node hold (the *autoscaler*), and which requests
// should never be admitted at all (gateway *admission control*). Run
// models those three components over a fleet of nodes built from the
// paper's platform presets (A40, A5500, V100S) — the same model is
// scheduled by HIOS-LP/MR per platform, so a V100S node serves the same
// deployment with a different latency/period profile than an A40 node,
// and the router's cost/latency tradeoff is real. Serve is the
// degenerate case: one node with one pool per model, no gateway limits
// and no autoscaler.
//
// The engine obeys the repository's determinism contract (DESIGN.md
// §7, §9, §14): no wall clock, no global RNG; arrivals draw from
// rand.Rand streams seeded via stats.MixSeed, events are totally ordered
// by (time, sequence) — one eventq.Queue, the queue the schedule
// simulator also runs on, with the pre-drawn open-loop arrivals merged
// into its order — and every report slice is emitted in deterministic
// order — the same options always render a byte-identical report. Each
// pool's request queue is an eventq.Queue too, keyed by absolute
// deadline (EDF) or a constant (FIFO, which leaves push order).
package cluster

import (
	"errors"
	"fmt"
	"math"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/units"
)

// Tenant is one request class sharing the deployment: an arrival process
// plus a relative deadline (the tenant's SLO). Exactly one of Rate
// (open-loop) and Clients (closed-loop) must be positive.
type Tenant struct {
	// Name labels the tenant in reports.
	Name string
	// Model indexes Options.Deployments (ServeOptions.Models for Serve):
	// the deployment this tenant's requests run on.
	Model int
	// Deadline is the relative deadline of every request: a request
	// arriving at t meets its SLO iff it completes by t + Deadline.
	Deadline units.Millis
	// Rate, when positive, makes the tenant open-loop: a Poisson
	// process with this mean arrival rate in requests per second.
	Rate float64
	// Clients, when positive, makes the tenant closed-loop: this many
	// clients, each issuing one request, waiting for its completion (or
	// shedding), thinking for an exponential time with mean Think, and
	// issuing again.
	Clients int
	// Think is the closed-loop mean think time (0 = reissue
	// immediately).
	Think units.Millis
}

// finite reports whether no value is NaN or ±Inf. The Validate methods
// reject both up front: the range checks after them let NaN through, and
// an infinite rate or horizon never ends the arrival pre-draw.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// validateTenants applies the tenant rules Options.Validate and
// ServeOptions.Validate share: a model index below n, finite parameters,
// a positive deadline, no negative parameter, and exactly one arrival
// process. noun names what Model indexes; bad is the caller's sentinel.
func validateTenants(ts []Tenant, n int, noun string, bad error) error {
	for i, t := range ts {
		if t.Model < 0 || t.Model >= n {
			return fmt.Errorf("%w: tenant %d (%s) references %s %d of %d", bad, i, t.Name, noun, t.Model, n)
		}
		if !finite(float64(t.Deadline), t.Rate, float64(t.Think)) {
			return fmt.Errorf("%w: tenant %d (%s) has a non-finite deadline, rate or think time", bad, i, t.Name)
		}
		if t.Deadline <= 0 {
			return fmt.Errorf("%w: tenant %d (%s) needs a positive deadline", bad, i, t.Name)
		}
		if t.Rate < 0 || t.Clients < 0 || t.Think < 0 {
			return fmt.Errorf("%w: tenant %d (%s) has a negative rate, client count or think time", bad, i, t.Name)
		}
		open, closed := t.Rate > 0, t.Clients > 0
		if open == closed {
			return fmt.Errorf("%w: tenant %d (%s) must be exactly one of open-loop (Rate > 0) or closed-loop (Clients > 0)", bad, i, t.Name)
		}
	}
	return nil
}

// Preset couples a fleet platform key with the paper's dual-GPU testbed
// it provisions and a relative cost rate — the price of keeping one node
// of that platform running, in arbitrary cost units, which the weighted
// router and the report's cost accounting use. The rates follow typical
// cloud pricing order: the A40 node is the fastest and most expensive,
// the V100S the slowest and cheapest.
type Preset struct {
	// Key names the platform in NodeSpec.Platform ("a40", ...).
	Key string
	// Platform is the device + interconnect + GPU count preset.
	Platform gpu.Platform
	// Cost is the relative cost rate of one node.
	Cost float64
}

// Presets lists the fleet platform presets, in declaration order. The
// keys are the vocabulary of NodeSpec.Platform and Profile.Platform.
func Presets() []Preset {
	return []Preset{
		{Key: "a40", Platform: gpu.DualA40(), Cost: 1.0},
		{Key: "a5500", Platform: gpu.DualA5500(), Cost: 0.8},
		{Key: "v100s", Platform: gpu.DualV100S(), Cost: 0.45},
	}
}

// PresetByKey returns the named preset and whether it exists.
func PresetByKey(key string) (Preset, bool) {
	for _, p := range Presets() {
		if p.Key == key {
			return p, true
		}
	}
	return Preset{}, false
}

// PresetKeys returns the valid platform keys, in declaration order.
func PresetKeys() []string {
	ps := Presets()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Key
	}
	return out
}

// Sentinel errors of the Validate methods, all errors.Is-matchable.
var (
	// ErrNoNodes reports a FleetSpec with no nodes.
	ErrNoNodes = errors.New("cluster: fleet has no nodes")
	// ErrUnknownPlatform reports a platform key outside PresetKeys.
	ErrUnknownPlatform = errors.New("cluster: unknown platform preset")
	// ErrBadNode reports a NodeSpec with a negative count or replica
	// count.
	ErrBadNode = errors.New("cluster: bad node spec")
	// ErrNoDeployments reports an Options with no deployments.
	ErrNoDeployments = errors.New("cluster: no deployments")
	// ErrBadDeployment reports a Deployment with a structurally invalid
	// profile (nonpositive latency or period, period above latency).
	ErrBadDeployment = errors.New("cluster: bad deployment")
	// ErrMissingProfile reports a Deployment lacking a serving profile
	// for a platform present in the fleet.
	ErrMissingProfile = errors.New("cluster: deployment lacks a profile for a fleet platform")
	// ErrNoTenants reports an Options with no tenants.
	ErrNoTenants = errors.New("cluster: no tenants")
	// ErrBadTenant reports a structurally invalid tenant (same rules as
	// ServeOptions.Validate).
	ErrBadTenant = errors.New("cluster: bad tenant")
	// ErrUnknownRouterPolicy reports a RouterPolicy outside the registry.
	ErrUnknownRouterPolicy = errors.New("cluster: unknown router policy")
	// ErrBadAdmission reports a negative admission-control parameter.
	ErrBadAdmission = errors.New("cluster: bad admission options")
	// ErrBadAutoscaler reports inconsistent autoscaler options.
	ErrBadAutoscaler = errors.New("cluster: bad autoscaler options")
	// ErrBadHorizon reports a negative arrival horizon.
	ErrBadHorizon = errors.New("cluster: bad horizon")
)

// NodeSpec declares a group of identical nodes in a fleet.
type NodeSpec struct {
	// Platform is the preset key ("a40", "a5500", "v100s").
	Platform string
	// Count is the number of identical nodes of this group (0 = 1).
	Count int
	// Replicas is the initial replica count each node holds per
	// deployment (0 = 1). The autoscaler moves it at runtime.
	Replicas int
}

// FleetSpec declares a heterogeneous fleet: groups of nodes per
// platform preset, flattened in declaration order.
type FleetSpec struct {
	// Nodes lists the node groups. Required.
	Nodes []NodeSpec
}

// Validate reports the first structural violation of the fleet spec
// with an errors.Is-matchable sentinel.
func (f FleetSpec) Validate() error {
	if len(f.Nodes) == 0 {
		return ErrNoNodes
	}
	for i, n := range f.Nodes {
		if _, ok := PresetByKey(n.Platform); !ok {
			return fmt.Errorf("%w %q at node group %d (want one of %v)", ErrUnknownPlatform, n.Platform, i, PresetKeys())
		}
		if n.Count < 0 || n.Replicas < 0 {
			return fmt.Errorf("%w: group %d (%s) has count %d, replicas %d", ErrBadNode, i, n.Platform, n.Count, n.Replicas)
		}
	}
	return nil
}

// NumNodes returns the flattened node count (zero counts default to 1).
func (f FleetSpec) NumNodes() int {
	total := 0
	for _, n := range f.Nodes {
		c := n.Count
		if c == 0 {
			c = 1
		}
		total += c
	}
	return total
}

// Platforms returns the distinct platform keys of the fleet in first-
// appearance order.
func (f FleetSpec) Platforms() []string {
	var out []string
	for _, n := range f.Nodes {
		seen := false
		for _, k := range out {
			if k == n.Platform {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, n.Platform)
		}
	}
	return out
}

// Profile is one deployment's serving characteristics on one platform:
// the latency and steady-state admission period of the HIOS schedule
// computed for that platform's devices, plus the total GPU busy time one
// request adds to a replica (utilization and cost accounting).
type Profile struct {
	// Platform is the preset key this profile was scheduled for.
	Platform string
	// Latency is the single-request completion time on an idle replica.
	Latency units.Millis
	// Period is the steady-state admission interval (<= Latency).
	Period units.Millis
	// Busy is the total per-request GPU busy time across the replica's
	// devices; the report charges it once per start.
	Busy units.Millis
}

// ProfileOf converts a serving model derived for the given platform
// (NewServeModel on a schedule computed with that platform's cost model)
// into a cluster profile.
func ProfileOf(platform string, m ServeModel) Profile {
	var busy units.Millis
	for _, b := range m.GPUBusy {
		busy += b
	}
	return Profile{Platform: platform, Latency: m.Latency, Period: m.Period, Busy: busy}
}

// Deployment is one model served fleet-wide: a name plus one serving
// profile per platform the fleet provisions.
type Deployment struct {
	// Name labels the deployment in reports.
	Name string
	// Profiles holds one Profile per platform, in any order; Validate
	// requires one for every platform in the fleet.
	Profiles []Profile
}

// profile returns the deployment's profile for the platform key.
func (d Deployment) profile(platform string) (Profile, bool) {
	for _, p := range d.Profiles {
		if p.Platform == platform {
			return p, true
		}
	}
	return Profile{}, false
}

// Admission configures gateway admission control. The zero value admits
// everything: both mechanisms are opt-in.
type Admission struct {
	// RatePerSec, when positive, enables a token bucket at the gateway:
	// requests are admitted at this sustained rate with Burst headroom;
	// a request arriving to an empty bucket is shed immediately.
	RatePerSec float64
	// Burst is the token-bucket capacity (0 = 16 when the bucket is
	// enabled).
	Burst int
	// MaxQueue, when positive, sheds an arrival when the cluster-wide
	// queued-request count is already at or above it (queue-depth
	// shedding).
	MaxQueue int
	// ShedHopeless additionally sheds a queued request at dispatch time
	// when even an immediate start provably misses its deadline, as the
	// single-node edf-shed policy does.
	ShedHopeless bool
}

// Validate reports negative or non-finite admission parameters.
func (a Admission) Validate() error {
	if !finite(a.RatePerSec) || a.RatePerSec < 0 || a.Burst < 0 || a.MaxQueue < 0 {
		return fmt.Errorf("%w: rate %g, burst %d, max-queue %d", ErrBadAdmission, a.RatePerSec, a.Burst, a.MaxQueue)
	}
	return nil
}

// Options configures one cluster simulation. Zero values of optional
// fields select documented defaults; Validate reports structural
// violations with errors.Is-matchable sentinels.
type Options struct {
	// Fleet declares the nodes. Required.
	Fleet FleetSpec
	// Deployments lists the served models with their per-platform
	// profiles. Required.
	Deployments []Deployment
	// Tenants lists the request classes; Tenant.Model indexes
	// Deployments. Required.
	Tenants []Tenant
	// Router selects the routing policy. Empty selects least-load.
	Router RouterPolicy
	// Admission configures the gateway (zero value admits everything).
	Admission Admission
	// Autoscaler configures replica scaling (zero value disables it).
	Autoscaler AutoscalerOptions
	// Horizon is the arrival window: no request arrives at or after this
	// time, and the simulation runs until everything admitted drains.
	// Zero selects 1000 ms.
	Horizon units.Millis
	// Seed seeds the arrival processes and the random router. Zero
	// selects 1.
	Seed int64
}

// fill normalizes the defaulted fields on a private copy. Slices that
// defaulting mutates are copied so the caller's values never change.
func (o *Options) fill() {
	if o.Router == "" {
		o.Router = RouterLeastLoad
	}
	// Validate already rejected negatives, so <= 0 means "unset".
	if o.Horizon <= 0 {
		o.Horizon = units.Millis(1000)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Admission.RatePerSec > 0 && o.Admission.Burst == 0 {
		o.Admission.Burst = 16
	}
	nodes := make([]NodeSpec, len(o.Fleet.Nodes))
	copy(nodes, o.Fleet.Nodes)
	for i := range nodes {
		if nodes[i].Count == 0 {
			nodes[i].Count = 1
		}
		if nodes[i].Replicas == 0 {
			nodes[i].Replicas = 1
		}
	}
	o.Fleet.Nodes = nodes
	o.Autoscaler.fill()
}

// Validate checks the configuration, returning the first violation
// wrapped around one of the package sentinels. Zero values with
// documented defaults are valid.
func (o Options) Validate() error {
	if err := o.Fleet.Validate(); err != nil {
		return err
	}
	if len(o.Deployments) == 0 {
		return ErrNoDeployments
	}
	platforms := o.Fleet.Platforms()
	for di, d := range o.Deployments {
		for _, p := range d.Profiles {
			if _, ok := PresetByKey(p.Platform); !ok {
				return fmt.Errorf("%w %q in deployment %d (%s)", ErrUnknownPlatform, p.Platform, di, d.Name)
			}
			if !finite(float64(p.Latency), float64(p.Period), float64(p.Busy)) {
				return fmt.Errorf("%w: deployment %d (%s) on %s has a non-finite latency, period or busy time", ErrBadDeployment, di, d.Name, p.Platform)
			}
			if p.Latency <= 0 || p.Period <= 0 {
				return fmt.Errorf("%w: deployment %d (%s) on %s needs positive latency and period", ErrBadDeployment, di, d.Name, p.Platform)
			}
			if p.Period > p.Latency {
				return fmt.Errorf("%w: deployment %d (%s) on %s has period %g above latency %g",
					ErrBadDeployment, di, d.Name, p.Platform, float64(p.Period), float64(p.Latency))
			}
			if p.Busy < 0 {
				return fmt.Errorf("%w: deployment %d (%s) on %s has negative busy time", ErrBadDeployment, di, d.Name, p.Platform)
			}
		}
		for _, plat := range platforms {
			if _, ok := d.profile(plat); !ok {
				return fmt.Errorf("%w: deployment %d (%s) has no profile for %s", ErrMissingProfile, di, d.Name, plat)
			}
		}
	}
	if len(o.Tenants) == 0 {
		return ErrNoTenants
	}
	if err := validateTenants(o.Tenants, len(o.Deployments), "deployment", ErrBadTenant); err != nil {
		return err
	}
	if o.Router != "" && !RouterRegistry.Valid(o.Router) {
		return fmt.Errorf("%w %q (want one of %v)", ErrUnknownRouterPolicy, string(o.Router), RouterPolicies())
	}
	if err := o.Admission.Validate(); err != nil {
		return err
	}
	if err := o.Autoscaler.Validate(); err != nil {
		return err
	}
	if !finite(float64(o.Horizon)) || o.Horizon < 0 {
		return fmt.Errorf("%w: %g ms", ErrBadHorizon, float64(o.Horizon))
	}
	return nil
}

// Capacity returns the fleet's maximum sustainable throughput for the
// deployment in requests per second at the initial replica counts: each
// node admits Replicas requests every platform Period.
func (o Options) Capacity(dep int) float64 {
	if dep < 0 || dep >= len(o.Deployments) {
		return 0
	}
	total := 0.0
	for _, n := range o.Fleet.Nodes {
		p, ok := o.Deployments[dep].profile(n.Platform)
		if !ok || p.Period <= 0 {
			continue
		}
		count, reps := n.Count, n.Replicas
		if count == 0 {
			count = 1
		}
		if reps == 0 {
			reps = 1
		}
		total += float64(count*reps) * 1e3 / float64(p.Period)
	}
	return total
}
