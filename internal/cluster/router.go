package cluster

import "github.com/shus-lab/hios/internal/units"

// RouterPolicy selects how the gateway picks a node for each admitted
// request.
type RouterPolicy string

const (
	// RouterLeastLoad routes to the node with the fewest outstanding
	// requests (queued plus in service) per live replica of the target
	// deployment, ties broken by node index. This is the classic
	// least-outstanding-requests gateway policy.
	RouterLeastLoad RouterPolicy = "least-load"
	// RouterWeighted routes to the node with the lowest estimated
	// finish score: the queue-drain estimate plus the platform latency,
	// scaled by the platform's relative cost rate. Cheap slow nodes win
	// when lightly loaded; fast expensive nodes win under pressure.
	RouterWeighted RouterPolicy = "weighted"
	// RouterAffinity pins each tenant to a preferred node (a
	// deterministic hash of the tenant index over the fleet) for cache
	// and session locality, falling back to least-load routing when the
	// preferred node's queue grows past 4 requests per live replica.
	RouterAffinity RouterPolicy = "affinity"
	// RouterRandom routes uniformly at random (seeded); the baseline the
	// informed policies are measured against.
	RouterRandom RouterPolicy = "random"
)

// RouterRegistry enumerates the router policies. RouterPolicies,
// Options.Validate and the CLI usage text all read from here, mirroring
// the dispatch policy registry (ServeRegistry).
var RouterRegistry = PolicyRegistry[RouterPolicy]{
	{Policy: RouterLeastLoad, Usage: "fewest outstanding requests per live replica"},
	{Policy: RouterWeighted, Usage: "lowest latency estimate weighted by platform cost"},
	{Policy: RouterAffinity, Usage: "per-tenant preferred node, least-load fallback"},
	{Policy: RouterRandom, Usage: "uniform random node (baseline)"},
}

// RouterPolicies lists every implemented router policy, enumerated from
// RouterRegistry.
func RouterPolicies() []RouterPolicy { return RouterRegistry.Policies() }

// RouterUsage renders the router policies as a flag usage string.
func RouterUsage() string { return RouterRegistry.Usage() }

// route selects the node for a request of tenant ti on deployment di.
// Pure function of engine state and the seeded router RNG stream, so
// routing decisions replay identically for a given Options.
func (e *engine) route(ti, di int) int {
	switch e.o.Router {
	case RouterWeighted:
		return e.routeWeighted(di)
	case RouterAffinity:
		pref := e.aff[ti]
		p := &e.nodes[pref].pools[di]
		if p.queue.Len() < 4*p.live {
			return pref
		}
		return e.routeLeastLoad(di)
	case RouterRandom:
		return e.rng.Intn(len(e.nodes))
	default: // least-load
		return e.routeLeastLoad(di)
	}
}

// routeLeastLoad minimizes (queued + in-service) / live over nodes with
// integer cross-multiplication — no float division, exact ties broken by
// node index.
func (e *engine) routeLeastLoad(di int) int {
	best := 0
	p := &e.nodes[0].pools[di]
	bn, bd := p.outstanding(), p.live
	for ni := 1; ni < len(e.nodes); ni++ {
		p := &e.nodes[ni].pools[di]
		n, d := p.outstanding(), p.live
		if n*bd < bn*d {
			best, bn, bd = ni, n, d
		}
	}
	return best
}

// routeWeighted minimizes cost * (drain estimate + latency): the queued
// work drains one request per live replica every Period, and the request
// itself then takes Latency on its platform.
func (e *engine) routeWeighted(di int) int {
	best, bestScore := 0, e.weightedScore(0, di)
	for ni := 1; ni < len(e.nodes); ni++ {
		if s := e.weightedScore(ni, di); s < bestScore {
			best, bestScore = ni, s
		}
	}
	return best
}

func (e *engine) weightedScore(ni, di int) units.Millis {
	nd := &e.nodes[ni]
	p := &nd.pools[di]
	drain := p.prof.Period.Scale(float64(p.outstanding()) / float64(p.live))
	return (drain + p.prof.Latency).Scale(nd.preset.Cost)
}
