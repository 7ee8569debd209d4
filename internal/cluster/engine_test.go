package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/shus-lab/hios/internal/eventq"
	"github.com/shus-lab/hios/internal/units"
)

// TestArrivalMergeMatchesOneHeap pins the open-loop arrival merge: the
// engine's next must pop the same (time, sequence, payload) stream as a
// reference heap that holds every event. Arrival times are floored to
// whole milliseconds, so open-loop tenants tie with each other, with
// closed-loop arrivals and with the tick, and every popped event pushes
// follow-ups at the same instant or a millisecond or two later.
func TestArrivalMergeMatchesOneHeap(t *testing.T) {
	o := Options{
		Tenants: []Tenant{
			{Name: "a", Deadline: 10, Rate: 3000},
			{Name: "c", Deadline: 10, Clients: 5, Think: 2},
			{Name: "b", Deadline: 10, Rate: 2000},
			{Name: "d", Deadline: 10, Rate: 4000},
			{Name: "e", Deadline: 10, Clients: 3, Think: 1},
		},
		Autoscaler: AutoscalerOptions{Enabled: true, Interval: 3},
		Horizon:    40,
		Seed:       3,
	}
	o.fill()
	e := newEngine(o, []node{{}})

	// Floor every arrival: monotone, so each stream stays time-sorted.
	for i := range e.reqs {
		e.reqs[i].arrive = units.Millis(math.Floor(float64(e.reqs[i].arrive)))
	}
	// Refill the queue at the floored times with newEngine's push
	// sequence: each closed-loop arrival under its request index, a
	// reserved number for each open-loop one, then the tick. The refill
	// must leave newEngine's counters, which the checks below then pin.
	setupSeq, setupLen := e.events.Seq(), e.events.Len()
	e.events = eventq.Queue[event]{}
	for ri := range e.reqs {
		if e.reqs[ri].client < 0 {
			e.events.Reserve()
			continue
		}
		e.events.Push(e.reqs[ri].arrive, event{kind: evArrive, ref: ri})
	}
	e.events.Push(o.Autoscaler.Interval, event{kind: evTick})
	if e.events.Seq() != setupSeq || e.events.Len() != setupLen {
		t.Fatalf("refill left sequence %d and %d events, newEngine %d and %d", e.events.Seq(), e.events.Len(), setupSeq, setupLen)
	}
	e.pickHead()

	// The reference: every arrival pushed in request order (sequence =
	// request index), then the tick, as newEngine once did.
	var ref eventq.Queue[event]
	closed := 0
	for ri := range e.reqs {
		if e.reqs[ri].client >= 0 {
			closed++
		}
		ref.Push(e.reqs[ri].arrive, event{kind: evArrive, ref: ri})
	}
	ref.Push(o.Autoscaler.Interval, event{kind: evTick})
	if e.events.Seq() != ref.Seq() {
		t.Fatalf("engine sequence counter %d after setup, reference %d", e.events.Seq(), ref.Seq())
	}
	if got, want := e.events.Len(), closed+1; got != want {
		t.Fatalf("heap holds %d events after setup, want %d (closed-loop arrivals + tick)", got, want)
	}

	rng := rand.New(rand.NewSource(1))
	pushes, popped, ties := 0, 0, 0
	var last units.Millis = -1
	for {
		at, ev, ok := e.next()
		if ref.Len() == 0 {
			if ok {
				t.Fatalf("pop %d: engine popped (%v, %+v) after the reference drained", popped, at, ev)
			}
			break
		}
		rat, rev := ref.Pop()
		if !ok || at != rat || ev != rev { //lint:floatexact replay identity: both sides must pop the same bits
			t.Fatalf("pop %d: engine (%v, %+v, %v), reference (%v, %+v)", popped, at, ev, ok, rat, rev)
		}
		if at == last { //lint:floatexact counting same-instant pops
			ties++
		}
		last = at
		popped++
		for k := rng.Intn(3); k > 0 && pushes < 3000; k-- {
			next := at + units.Millis(rng.Intn(3))
			ev := event{kind: evDone, ref: 1_000_000 + pushes}
			e.events.Push(next, ev)
			ref.Push(next, ev)
			pushes++
		}
		if e.events.Seq() != ref.Seq() {
			t.Fatalf("pop %d: engine sequence counter %d, reference %d", popped, e.events.Seq(), ref.Seq())
		}
	}
	if ties < len(e.reqs)/2 {
		t.Fatalf("only %d same-instant pops of %d: the ties this test exists for are missing", ties, popped)
	}
}

// TestEventHeapHoldsInFlightWork locks in the streamed arrivals: on
// BenchmarkClusterServe's options the event heap's high-water mark stays
// within the in-flight bound — per pool, peak replicas times one evFree
// plus ceil(Latency/Period) evDone each — plus the closed-loop clients
// and the tick, far below the offered request count a heap holding the
// whole trace would reach.
func TestEventHeapHoldsInFlightWork(t *testing.T) {
	opt := clusterServeOptions()
	opt.fill()
	e := newEngine(opt, fleetNodes(&opt))
	makespan, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	r := e.report(makespan)

	bound := 1 // the tick
	for _, tn := range opt.Tenants {
		bound += tn.Clients
	}
	for _, nd := range e.nodes {
		for _, p := range nd.pools {
			bound += p.peak * (1 + int(math.Ceil(p.prof.Latency.Ratio(p.prof.Period))))
		}
	}
	if e.events.High() > bound {
		t.Fatalf("event heap high-water mark %d above the in-flight bound %d", e.events.High(), bound)
	}
	if 10*bound > r.Offered {
		t.Fatalf("in-flight bound %d is not far below the %d offered requests; the test no longer separates the designs", bound, r.Offered)
	}
}

// TestIdleReplicasPopLowest pins the idle set's lowest-index-first
// order: replicas returned out of order, a scale-up's fresh replica
// (the highest index, used last) and the autoscaler's scale-down, which
// retires the lowest idle replica at once.
func TestIdleReplicasPopLowest(t *testing.T) {
	o := Options{
		Tenants:    []Tenant{{Name: "a", Deadline: 10, Rate: 1}},
		Autoscaler: AutoscalerOptions{Enabled: true, MaxReplicas: 8},
	}
	o.fill()
	prof := Profile{Latency: 1, Period: 1}
	e := newEngine(o, []node{{pools: []pool{newPool(prof, 4, false, &o.Autoscaler)}}})
	p := &e.nodes[0].pools[0]
	check := func(step string, want ...int) {
		t.Helper()
		if !slices.Equal(p.idle, want) {
			t.Fatalf("%s: idle set %v, want %v", step, p.idle, want)
		}
	}
	check("new pool", 3, 2, 1, 0)
	for want := 0; want < 3; want++ {
		if got := p.idle.Pop(); got != want {
			t.Fatalf("pop %d: replica %d, want the lowest idle %d", want, got, want)
		}
	}
	p.idle.Push(2)
	p.idle.Push(0)
	p.idle.Push(1)
	check("returned out of order", 3, 2, 1, 0)

	e.scale(0, 0, 5, 0)
	check("scale-up", 4, 3, 2, 1, 0)
	e.scale(0, 0, 4, 1)
	check("scale-down retires the lowest", 4, 3, 2, 1)
	if p.live != 4 {
		t.Fatalf("live %d after the scale-down, want 4", p.live)
	}
	p.idle.Push(0)
	for want := 0; want < 5; want++ {
		if got := p.idle.Pop(); got != want {
			t.Fatalf("drain %d: replica %d, want %d", want, got, want)
		}
	}
}
