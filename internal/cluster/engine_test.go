package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

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
	for i := range e.events.items {
		it := &e.events.items[i]
		if it.payload.kind == evArrive {
			it.at = e.reqs[it.payload.ref].arrive
		}
	}
	// A slice sorted by (at, seq) is a valid heap.
	slices.SortFunc(e.events.items, func(a, b timed[event]) int {
		if earlier(a.at, a.seq, b.at, b.seq) {
			return -1
		}
		return 1
	})
	e.pickHead()

	// The reference: every arrival pushed in request order (sequence =
	// request index), then the tick, as newEngine once did.
	var ref eventHeap[event]
	closed := 0
	for ri := range e.reqs {
		if e.reqs[ri].client >= 0 {
			closed++
		}
		ref.Push(e.reqs[ri].arrive, event{kind: evArrive, ref: ri})
	}
	ref.Push(o.Autoscaler.Interval, event{kind: evTick})
	if e.events.seq != ref.seq {
		t.Fatalf("engine sequence counter %d after setup, reference %d", e.events.seq, ref.seq)
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
		if e.events.seq != ref.seq {
			t.Fatalf("pop %d: engine sequence counter %d, reference %d", popped, e.events.seq, ref.seq)
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
	if e.events.high > bound {
		t.Fatalf("event heap high-water mark %d above the in-flight bound %d", e.events.high, bound)
	}
	if 10*bound > r.Offered {
		t.Fatalf("in-flight bound %d is not far below the %d offered requests; the test no longer separates the designs", bound, r.Offered)
	}
}
