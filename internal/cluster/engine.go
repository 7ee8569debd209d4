package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// Request lifecycle states.
const (
	stQueued = iota
	stRunning
	stDone
	stShedGateway  // dropped at admission (token bucket or queue depth)
	stShedHopeless // dropped at dispatch (provable deadline miss)
)

// request is one in-flight inference request.
type request struct {
	tenant   int
	index    int // per-tenant issue order
	client   int // closed-loop client index, -1 for open-loop
	arrive   units.Millis
	deadline units.Millis // absolute: arrive + tenant deadline
	finish   units.Millis
	qseq     int // global enqueue order, the FIFO key and EDF tie-break
	state    int
}

// Event kinds; simultaneous events execute in push order via the heap's
// internal sequence number.
const (
	evArrive = iota // a request reaches the gateway
	evFree          // a replica admits its next request
	evDone          // a request completes
	evTick          // the autoscaler evaluates every pool
)

// event is the heap payload; the (time, sequence) total-order key lives
// in the eventHeap.
type event struct {
	kind      int32
	node, dep int32 // evDone, evFree: the pool
	ref       int   // evArrive, evDone: the request; evFree: the replica
}

// pool is one (node, deployment) replica set: the unit the router
// targets and the autoscaler scales.
type pool struct {
	prof   Profile
	queue  requestQueue
	idle   replicaHeap
	live   int // current replica count
	target int // autoscaler's desired count (live catches up lazily)
	peak   int

	// starts[i] counts the requests replica i admitted; len(starts) is
	// the next fresh replica index for scale-up.
	starts []int

	// Replica-time integration for cost accounting: replicaMs
	// accumulates live replica-milliseconds up to lastChange.
	replicaMs  units.Millis
	lastChange units.Millis

	// Outstanding-depth integration for the autoscaler signal: outInt
	// accumulates outstanding-request-milliseconds up to lastTouch, so a
	// tick can read the exact time-weighted average depth since the
	// previous tick instead of a noisy instantaneous sample.
	outInt    units.Millis
	lastTouch units.Millis
	lastOut   units.Millis // outInt at the previous tick

	// Autoscaler sliding windows (nil while the autoscaler is off).
	depthWin      []float64
	doneWin       []int
	metWin        []int
	winIdx        int
	winFill       int
	done          int // cumulative completions
	met           int // cumulative in-deadline completions
	lastDone      int
	lastMet       int
	cooldownUntil units.Millis
}

// newPool returns a pool of reps idle replicas serving prof. fifo
// queues in arrival order instead of by deadline (Serve's fifo policy);
// a non-nil autoscaler allocates the pool's sliding windows.
func newPool(prof Profile, reps int, fifo bool, a *AutoscalerOptions) pool {
	p := pool{prof: prof, queue: requestQueue{byDeadline: !fifo}, starts: make([]int, reps)}
	if a != nil {
		p.depthWin = make([]float64, a.Window)
		p.doneWin = make([]int, a.Window)
		p.metWin = make([]int, a.Window)
	}
	for rp := 0; rp < reps; rp++ {
		p.idle.Push(rp)
	}
	p.live, p.target, p.peak = reps, reps, reps
	return p
}

// outstanding returns queued plus in-service requests: the router's load
// signal and the autoscaler's concurrency signal.
func (p *pool) outstanding() int { return p.queue.Len() + p.live - p.idle.Len() }

// admitted returns the requests the pool started across all replicas.
func (p *pool) admitted() int {
	n := 0
	for _, s := range p.starts {
		n += s
	}
	return n
}

// touch integrates the outstanding depth up to now. Called before every
// mutation that changes the depth; zero-elapsed calls are no-ops.
func (p *pool) touch(now units.Millis) {
	p.outInt += (now - p.lastTouch).Scale(float64(p.outstanding()))
	p.lastTouch = now
}

// setLive moves the live replica count to n at time now, integrating
// replica-time for cost accounting.
func (p *pool) setLive(n int, now units.Millis) {
	p.replicaMs += (now - p.lastChange).Scale(float64(p.live))
	p.lastChange = now
	p.live = n
	if n > p.peak {
		p.peak = n
	}
}

// node is one machine of the fleet: a platform preset plus one replica
// pool per deployment.
type node struct {
	preset Preset
	pools  []pool
}

// stream is one open-loop tenant's pending pre-drawn arrivals: the
// contiguous, time-sorted request run reqs[next:end].
type stream struct{ next, end int }

// slabSigmas is the headroom, in Poisson standard deviations, of the
// request slab's up-front capacity over the open-loop tenants' expected
// arrival counts.
const slabSigmas = 4

// engine is the running simulation state, shared by Run and Serve.
//
// Open-loop arrivals never enter the event heap. newEngine pre-draws
// them, so each open-loop tenant's requests form one contiguous
// time-sorted run of reqs, and while newEngine draws, the heap sequence
// number of every arrival equals its request index (Reserve keeps the
// counter in step for the arrivals the heap never holds). next merges
// the run heads against the heap top by (arrive, index) = (time,
// sequence), which replays the exact order of one heap holding every
// event, while the heap itself only holds in-flight work, closed-loop
// arrivals and the autoscaler tick.
type engine struct {
	o       Options
	nodes   []node
	reqs    []request
	issued  []int // per-tenant issue counter
	events  eventHeap[event]
	streams []stream // per open-loop tenant with arrivals
	head    int      // streams index of the earliest pending arrival, -1 when all are drained
	qseq    int      // enqueue sequence counter
	depth   int      // queued requests across all pools (gateway shedding signal)
	popped  int64
	points  []QueuePoint
	scales  []ScaleEvent
	rngs    []*rand.Rand // per-tenant arrival streams
	rng     *rand.Rand   // router stream (random policy only)
	aff     []int        // per-tenant affinity node (affinity policy only)

	// Token bucket (enabled when o.Admission.RatePerSec > 0).
	tokens     float64
	lastRefill units.Millis
}

// newEngine seeds a simulation of the filled options o over the
// flattened nodes: every tenant's arrival process, then the router's
// streams, then the first autoscaler tick. The streams are
// splitmix64-separated from o.Seed — one per tenant for arrivals, then
// the random router's, then one affinity draw per tenant — so adding
// tenants never perturbs earlier streams.
func newEngine(o Options, nodes []node) *engine {
	nt := len(o.Tenants)
	e := &engine{
		o:      o,
		nodes:  nodes,
		reqs:   make([]request, 0, slabHint(o)),
		issued: make([]int, nt),
		rngs:   make([]*rand.Rand, nt),
		tokens: float64(o.Admission.Burst),
	}
	for ti, t := range o.Tenants {
		e.rngs[ti] = rand.New(rand.NewSource(stats.MixSeed(o.Seed, ti)))
		if t.Rate > 0 {
			// Open-loop: pre-draw the whole Poisson arrival sequence as
			// one stream.
			mean := units.Millis(1e3 / t.Rate)
			lo := len(e.reqs)
			at := expMillis(e.rngs[ti], mean)
			for at < o.Horizon {
				e.newRequest(ti, -1, at)
				at += expMillis(e.rngs[ti], mean)
			}
			if hi := len(e.reqs); hi > lo {
				e.streams = append(e.streams, stream{next: lo, end: hi})
			}
		} else {
			// Closed-loop: every client starts in think state.
			for c := 0; c < t.Clients; c++ {
				at := expMillis(e.rngs[ti], t.Think)
				if at < o.Horizon {
					e.newRequest(ti, c, at)
				}
			}
		}
	}
	switch o.Router {
	case RouterRandom:
		e.rng = rand.New(rand.NewSource(stats.MixSeed(o.Seed, nt)))
	case RouterAffinity:
		e.aff = make([]int, nt)
		for ti := range e.aff {
			h := stats.MixSeed(o.Seed, nt+1+ti)
			e.aff[ti] = int((uint64(h) >> 1) % uint64(len(nodes)))
		}
	}
	if o.Autoscaler.Enabled {
		e.events.Push(o.Autoscaler.Interval, event{kind: evTick})
	}
	e.pickHead()
	return e
}

// slabHint returns the request slab's up-front capacity: every
// open-loop tenant's expected arrival count over the horizon plus
// slabSigmas standard deviations, and one request per closed-loop
// client. Closed-loop reissues and rare Poisson excess grow the slab.
func slabHint(o Options) int {
	n := 0.0
	for _, t := range o.Tenants {
		if t.Rate > 0 && o.Horizon > 0 {
			mean := t.Rate * float64(o.Horizon) / 1e3
			n += mean + slabSigmas*math.Sqrt(mean)
		} else {
			n += float64(t.Clients)
		}
	}
	return int(min(n, 1<<20))
}

// newRequest creates a request arriving at the given time. A closed-loop
// arrival is pushed on the event heap; an open-loop one (client < 0,
// only ever pre-drawn by newEngine) stays in its tenant's stream and
// only reserves its sequence number, which equals its request index.
func (e *engine) newRequest(tenant, client int, at units.Millis) {
	t := &e.o.Tenants[tenant]
	ri := len(e.reqs)
	e.reqs = append(e.reqs, request{
		tenant:   tenant,
		index:    e.issued[tenant],
		client:   client,
		arrive:   at,
		deadline: at + t.Deadline,
		state:    stQueued,
	})
	e.issued[tenant]++
	if client < 0 {
		e.events.Reserve()
		return
	}
	e.events.Push(at, event{kind: evArrive, ref: ri})
}

// pickHead points head at the stream whose pending arrival is earliest
// in (arrive, index) order, or -1 when every stream is drained.
func (e *engine) pickHead() {
	e.head = -1
	best := 0 // request index of the head's pending arrival
	for i, s := range e.streams {
		if s.next < s.end && (e.head < 0 || earlier(e.reqs[s.next].arrive, s.next, e.reqs[best].arrive, best)) {
			e.head, best = i, s.next
		}
	}
}

// next removes and returns the earliest pending event: the earliest
// open-loop arrival when its (arrive, index) key precedes the heap top,
// the heap top otherwise. ok is false once both are drained.
func (e *engine) next() (now units.Millis, ev event, ok bool) {
	if e.head >= 0 {
		s := &e.streams[e.head]
		ri := s.next
		if at := e.reqs[ri].arrive; e.events.Before(at, ri) {
			s.next++
			e.pickHead()
			return at, event{kind: evArrive, ref: ri}, true
		}
	}
	if e.events.Len() == 0 {
		return 0, event{}, false
	}
	now, ev = e.events.Pop()
	return now, ev, true
}

// expMillis draws an exponential duration with the given mean.
func expMillis(rng *rand.Rand, mean units.Millis) units.Millis {
	return mean.Scale(rng.ExpFloat64())
}

// reissue puts a closed-loop client back into think state after its
// request finished (completed or shed) at the given time.
func (e *engine) reissue(tenant, client int, now units.Millis) {
	if client < 0 {
		return
	}
	t := &e.o.Tenants[tenant]
	next := now + expMillis(e.rngs[tenant], t.Think)
	if next < e.o.Horizon {
		e.newRequest(tenant, client, next)
	}
}

// admit runs gateway admission control for a request arriving at now.
// It returns false after shedding the request when the token bucket is
// empty or the cluster-wide queue is at its depth limit.
func (e *engine) admit(ri int, now units.Millis) bool {
	a := &e.o.Admission
	if a.RatePerSec > 0 {
		e.tokens += (now - e.lastRefill).Ratio(units.Millis(1e3)) * a.RatePerSec
		if max := float64(a.Burst); e.tokens > max {
			e.tokens = max
		}
		e.lastRefill = now
		if e.tokens < 1 {
			e.shed(ri, stShedGateway, now)
			return false
		}
		e.tokens--
	}
	if a.MaxQueue > 0 && e.depth >= a.MaxQueue {
		e.shed(ri, stShedGateway, now)
		return false
	}
	return true
}

// shed drops request ri at time now in the given shed state.
func (e *engine) shed(ri, state int, now units.Millis) {
	r := &e.reqs[ri]
	r.state = state
	r.finish = now
	e.reissue(r.tenant, r.client, now)
}

// dispatch matches idle replicas of pool (ni, di) with its queued
// requests at time now, shedding hopeless requests first when the
// gateway is configured to. This is the per-event inner loop of the
// engine — the router feeds it and the free/scale events re-enter it —
// and the package's hot-path root.
//
//lint:hotpath
func (e *engine) dispatch(ni, di int, now units.Millis) {
	p := &e.nodes[ni].pools[di]
	p.touch(now)
	for p.idle.Len() > 0 && p.queue.Len() > 0 {
		ri := p.queue.Pop()
		r := &e.reqs[ri]
		e.depth--
		if e.o.Admission.ShedHopeless && now+p.prof.Latency > r.deadline {
			// Provably hopeless: even starting this instant misses the
			// deadline. Shed without consuming the replica.
			e.shed(ri, stShedHopeless, now)
			continue
		}
		rep := p.idle.Pop()
		r.state = stRunning
		p.starts[rep]++
		e.events.Push(now+p.prof.Latency, event{kind: evDone, node: int32(ni), dep: int32(di), ref: ri})
		e.events.Push(now+p.prof.Period, event{kind: evFree, node: int32(ni), dep: int32(di), ref: rep})
	}
}

// recordDepth appends a queue-depth change point at time now, coalescing
// multiple changes at the same instant into the final value.
func (e *engine) recordDepth(now units.Millis) {
	if n := len(e.points); n > 0 {
		if e.points[n-1].Depth == e.depth {
			return
		}
		// Exact IEEE equality: same event timestamp, not a tolerance.
		if e.points[n-1].T == now { //lint:floatexact same-event timestamp dedupe: both values are copies of one event time
			e.points[n-1].Depth = e.depth
			return
		}
	} else if e.depth == 0 {
		return
	}
	e.points = append(e.points, QueuePoint{T: now, Depth: e.depth})
}

// run drains the event loop and returns the makespan: the time the last
// event fired.
func (e *engine) run() (units.Millis, error) {
	var makespan units.Millis
	for {
		now, ev, ok := e.next()
		if !ok {
			break
		}
		e.popped++
		if now > makespan {
			makespan = now
		}
		switch ev.kind {
		case evArrive:
			if !e.admit(ev.ref, now) {
				break
			}
			r := &e.reqs[ev.ref]
			r.qseq = e.qseq
			e.qseq++
			di := e.o.Tenants[r.tenant].Model
			ni := e.route(r.tenant, di)
			p := &e.nodes[ni].pools[di]
			p.touch(now)
			p.queue.Push(r.deadline, r.qseq, ev.ref)
			e.depth++
			e.dispatch(ni, di, now)
		case evFree:
			p := &e.nodes[ev.node].pools[ev.dep]
			p.touch(now)
			if p.live > p.target {
				// A scale-down is pending: retire this replica instead of
				// returning it to the idle set.
				p.setLive(p.live-1, now)
				break
			}
			p.idle.Push(ev.ref)
			e.dispatch(int(ev.node), int(ev.dep), now)
		case evDone:
			r := &e.reqs[ev.ref]
			r.state = stDone
			r.finish = now
			p := &e.nodes[ev.node].pools[ev.dep]
			p.done++
			if r.finish <= r.deadline {
				p.met++
			}
			e.reissue(r.tenant, r.client, now)
		case evTick:
			e.tick(now)
		}
		e.recordDepth(now)
	}
	for i := range e.reqs {
		if st := e.reqs[i].state; st == stQueued || st == stRunning {
			return 0, fmt.Errorf("cluster: internal error: request %d ended in state %d", i, st)
		}
	}
	return makespan, nil
}

// Run simulates the cluster described by opt and returns its report.
// The same Options always produce the same Report.
func Run(opt Options) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.fill()
	e := newEngine(opt, fleetNodes(&opt))
	makespan, err := e.run()
	if err != nil {
		return nil, err
	}
	return e.report(makespan), nil
}

// fleetNodes flattens the filled options' fleet: node groups expand to
// individual nodes in declaration order, each holding one pool per
// deployment.
func fleetNodes(opt *Options) []node {
	var nodes []node
	var scaler *AutoscalerOptions
	if a := &opt.Autoscaler; a.Enabled {
		scaler = a
	}
	for _, ns := range opt.Fleet.Nodes {
		preset, _ := PresetByKey(ns.Platform)
		reps := ns.Replicas
		if scaler != nil {
			reps = min(max(reps, scaler.MinReplicas), scaler.MaxReplicas)
		}
		for c := 0; c < ns.Count; c++ {
			nd := node{preset: preset, pools: make([]pool, len(opt.Deployments))}
			for di, d := range opt.Deployments {
				prof, _ := d.profile(ns.Platform)
				nd.pools[di] = newPool(prof, reps, false, scaler)
			}
			nodes = append(nodes, nd)
		}
	}
	return nodes
}
