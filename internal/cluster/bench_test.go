package cluster

import "testing"

// BenchmarkClusterServe is the gated allocation benchmark of the cluster
// dispatch hot path: a six-node heterogeneous fleet, two open-loop
// tenants at 2x aggregate capacity, least-load routing, full admission
// control and the autoscaler on — every event kind the engine has is
// exercised. Bounded in BENCH_ledger.json, checked by hios-benchdiff.
func BenchmarkClusterServe(b *testing.B) {
	opt := Options{
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}
