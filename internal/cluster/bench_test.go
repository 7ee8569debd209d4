package cluster

import "testing"

// clusterServeOptions is BenchmarkClusterServe's configuration: a
// six-node heterogeneous fleet, two open-loop tenants at 2x aggregate
// capacity, least-load routing, full admission control and the
// autoscaler on — every event kind the engine has is exercised.
func clusterServeOptions() Options {
	return Options{
		Fleet: FleetSpec{Nodes: []NodeSpec{
			{Platform: "a40", Count: 2, Replicas: 2},
			{Platform: "a5500", Count: 2, Replicas: 2},
			{Platform: "v100s", Count: 2, Replicas: 2},
		}},
		Deployments: []Deployment{testDeployment()},
		Tenants: []Tenant{
			{Name: "web", Model: 0, Deadline: 20, Rate: 4000},
			{Name: "batch", Model: 0, Deadline: 100, Rate: 2000},
		},
		Router:     RouterLeastLoad,
		Admission:  Admission{RatePerSec: 5000, Burst: 64, MaxQueue: 256, ShedHopeless: true},
		Autoscaler: AutoscalerOptions{Enabled: true, MaxReplicas: 4},
		Horizon:    1000,
		Seed:       7,
	}
}

// BenchmarkClusterServe is the gated allocation benchmark of the cluster
// dispatch hot path on clusterServeOptions. Besides ns/op it reports
// events/op and ns/event, the engine's per-unit cost. Bounded in
// BENCH_ledger.json, checked by hios-benchdiff.
func BenchmarkClusterServe(b *testing.B) {
	opt := clusterServeOptions()
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		r, err := Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		events = r.Events
	}
	reportEventCost(b, events)
}

// reportEventCost reports events/op, the engine events one iteration
// processes, and ns/event, the wall time per processed event.
func reportEventCost(b *testing.B, events int64) {
	if events <= 0 {
		return
	}
	b.ReportMetric(float64(events), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events*int64(b.N)), "ns/event")
}
