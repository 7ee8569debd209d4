package cluster

import (
	"bytes"
	"errors"
	"testing"

	"github.com/shus-lab/hios/internal/units"
)

// Run-size clamps of FuzzClusterRun. The offered load is what bounds a
// run, so the harness caps the horizon and the open-loop rates, and
// floors the closed-loop think time whenever a request can be shed:
// Clients/Think is the closed-loop retry rate, and a zero think time
// behind any shedding retries at the instant of the shed without end,
// an unbounded rate Validate does not reject yet.
const (
	fuzzMaxHorizon = 200   // ms
	fuzzMaxRate    = 20000 // requests per second per tenant
	fuzzMinThink   = 0.05  // ms, when a request can be shed
)

// FuzzClusterRun drives arbitrary tenant, admission and autoscaler
// settings through Validate and Run on a three-node fleet. Options that
// Validate rejects must make Run return the same error; options it
// accepts must run without panicking, render the same bytes on a
// second run, and conserve every request by reason: Offered = Admitted
// + gateway sheds and Admitted = Completed + hopeless sheds, counted
// from the requests' final states.
func FuzzClusterRun(f *testing.F) {
	f.Add(int64(7), 200.0, 2000.0, 1300.0, uint8(4), 5.0, 20.0, uint8(0), 0.0, uint8(0), uint8(0), false, false, false)
	f.Add(int64(3), 150.0, 3000.0, 800.0, uint8(3), 0.0, 12.0, uint8(1), 2200.0, uint8(8), uint8(12), true, true, true)
	f.Add(int64(1), 100.0, 5000.0, 900.0, uint8(0), 1.0, 3.0, uint8(3), 0.0, uint8(0), uint8(0), true, true, false)
	f.Add(int64(5), -1.0, 100.0, 100.0, uint8(2), 1.0, 5.0, uint8(2), 0.0, uint8(0), uint8(0), false, false, false)
	f.Fuzz(func(t *testing.T, seed int64, horizon, rate0, rate1 float64, clients uint8, think, deadline float64,
		router uint8, tokenRate float64, burst, maxQueue uint8, hopeless, autoscale, closedFirst bool) {
		horizon = min(horizon, fuzzMaxHorizon)
		rate0, rate1 = min(rate0, fuzzMaxRate), min(rate1, fuzzMaxRate)
		shedding := tokenRate > 0 || maxQueue > 0 || hopeless
		if shedding && think >= 0 && think < fuzzMinThink {
			think = fuzzMinThink
		}
		opt := testOptions()
		opt.Seed = seed
		opt.Horizon = units.Millis(horizon)
		opt.Tenants = []Tenant{
			{Name: "a", Deadline: units.Millis(deadline), Rate: rate0},
			{Name: "b", Deadline: 4 * units.Millis(deadline), Rate: rate1},
		}
		if clients > 0 {
			c := Tenant{Name: "c", Deadline: units.Millis(deadline), Clients: int(clients % 9), Think: units.Millis(think)}
			if closedFirst {
				opt.Tenants = append([]Tenant{c}, opt.Tenants...)
			} else {
				opt.Tenants = append(opt.Tenants, c)
			}
		}
		if policies := RouterPolicies(); router > 0 {
			opt.Router = policies[int(router)%len(policies)]
		}
		opt.Admission = Admission{RatePerSec: tokenRate, Burst: int(burst), MaxQueue: int(maxQueue), ShedHopeless: hopeless}
		if autoscale {
			opt.Autoscaler = AutoscalerOptions{Enabled: true, Interval: 10, Window: 3, Cooldown: 20, MaxReplicas: 4}
		}

		verr := opt.Validate()
		r, err := Run(opt)
		if verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("Validate: %v, but Run returned %v", verr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Run on valid options: %v", err)
		}

		opt.fill()
		e := newEngine(opt, fleetNodes(&opt))
		makespan, err := e.run()
		if err != nil {
			t.Fatal(err)
		}
		again := e.report(makespan)
		var a, b bytes.Buffer
		if err := errors.Join(r.Render(&a), r.WriteQueue(&a), again.Render(&b), again.WriteQueue(&b)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("two runs of the same options rendered differently:\n%s\n---\n%s", a.String(), b.String())
		}

		var gateway, hopelessShed, done int
		for i := range e.reqs {
			switch e.reqs[i].state {
			case stShedGateway:
				gateway++
			case stShedHopeless:
				hopelessShed++
			case stDone:
				done++
			default:
				t.Fatalf("request %d stranded in state %d", i, e.reqs[i].state)
			}
		}
		switch {
		case r.Offered != len(e.reqs):
			t.Fatalf("offered %d, %d requests issued", r.Offered, len(e.reqs))
		case r.Offered != r.Admitted+gateway:
			t.Fatalf("offered %d != admitted %d + gateway sheds %d", r.Offered, r.Admitted, gateway)
		case r.Admitted != r.Completed+hopelessShed:
			t.Fatalf("admitted %d != completed %d + hopeless sheds %d", r.Admitted, r.Completed, hopelessShed)
		case r.Completed != done || r.Shed != gateway+hopelessShed || r.SLOMet > r.Completed:
			t.Fatalf("report %+v disagrees with %d done, %d gateway and %d hopeless sheds", r, done, gateway, hopelessShed)
		}
	})
}
