package hios_test

import (
	"fmt"
	"reflect"
	"testing"

	hios "github.com/shus-lab/hios"
)

// TestServeMatchesOneNodeCluster pins single-node serving as the
// degenerate case of fleet serving: Serve on one deployment and
// ClusterServe on one a40 node holding the same replicas — least-load
// routing, no gateway limits, no autoscaler, hopeless shedding iff the
// policy is edf-shed — must agree on every request-level figure, across
// seeds, loads, and mixed open- and closed-loop tenants.
func TestServeMatchesOneNodeCluster(t *testing.T) {
	cfg := hios.RandomModelDefaults()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 60, 8, 120, 5
	g, err := hios.RandomModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := hios.DefaultCostModel(g)
	res, err := hios.Optimize(g, m, hios.HIOSLP, hios.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	model, err := hios.NewServeModel("m", g, m, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	const replicas = 2
	model.Replicas = replicas
	capacity := model.Capacity()

	for _, policy := range []hios.ServePolicy{hios.ServeEDF, hios.ServeEDFShed} {
		for _, load := range []float64{0.6, 1.0, 1.5} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s/load=%g/seed=%d", policy, load, seed)
				t.Run(name, func(t *testing.T) {
					rate := load * capacity
					tenants := []hios.ServeTenant{
						{Name: "interactive", Deadline: model.Latency.Scale(4), Rate: 0.6 * rate},
						{Name: "batch", Deadline: model.Latency.Scale(12), Rate: 0.4 * rate},
						{Name: "closed", Deadline: model.Latency.Scale(6), Clients: 3, Think: model.Latency},
					}
					horizon := hios.Millis(300)
					sr, err := hios.Serve(hios.ServeOptions{
						Models:  []hios.ServeModel{model},
						Tenants: tenants,
						Policy:  policy,
						Horizon: horizon,
						Seed:    seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					cr, err := hios.ClusterServe(hios.ClusterOptions{
						Fleet: hios.FleetSpec{Nodes: []hios.ClusterNodeSpec{
							{Platform: "a40", Count: 1, Replicas: replicas},
						}},
						Deployments: []hios.ClusterDeployment{{
							Name:     model.Name,
							Profiles: []hios.ClusterProfile{hios.ClusterProfileOf("a40", model)},
						}},
						Tenants:   tenants,
						Admission: hios.ClusterAdmission{ShedHopeless: policy == hios.ServeEDFShed},
						Horizon:   horizon,
						Seed:      seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					if sr.Offered == 0 || sr.Completed == 0 {
						t.Fatalf("degenerate run: offered %d, completed %d", sr.Offered, sr.Completed)
					}

					type counters struct {
						Offered, Completed, SLOMet, Shed int
						P50, P95, P99, Max, Makespan     hios.Millis
						Attainment, GoodputPerSec        float64
					}
					sc := counters{sr.Offered, sr.Completed, sr.SLOMet, sr.Shed,
						sr.P50, sr.P95, sr.P99, sr.Max, sr.Makespan, sr.Attainment, sr.GoodputPerSec}
					cc := counters{cr.Offered, cr.Completed, cr.SLOMet, cr.Shed,
						cr.P50, cr.P95, cr.P99, cr.Max, cr.Makespan, cr.Attainment, cr.GoodputPerSec}
					if sc != cc {
						t.Errorf("counters differ:\nserve   %+v\ncluster %+v", sc, cc)
					}
					if !reflect.DeepEqual(sr.Tenants, cr.Tenants) {
						t.Errorf("tenant rows differ:\nserve   %+v\ncluster %+v", sr.Tenants, cr.Tenants)
					}
					if !reflect.DeepEqual(sr.Queue, cr.Queue) {
						t.Errorf("queue timelines differ (%d vs %d points)", len(sr.Queue), len(cr.Queue))
					}
					// Serve reports starts once per (replica, GPU) row; count
					// each replica once, from its first GPU.
					starts := 0
					for _, u := range sr.GPUs {
						if u.GPU == 0 {
							starts += u.Starts
						}
					}
					if len(cr.Nodes) != 1 || cr.Nodes[0].Starts != starts {
						t.Errorf("starts differ: serve %d, cluster nodes %+v", starts, cr.Nodes)
					}
				})
			}
		}
	}
}
