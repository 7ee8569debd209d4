package specflag

import (
	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/units"
)

// Tenant returns the shared tenant-spec grammar of hios-serve and
// hios-cluster: "name=web,deadline=20,rate=300" (open-loop) or
// "name=batch,deadline=200,clients=4,think=5" (closed-loop); deadline
// and think in ms, rate in req/s, model the deployment index.
func Tenant() *Parser[cluster.Tenant] {
	return New("tenant",
		Str("name", func(t *cluster.Tenant) *string { return &t.Name }),
		Int("model", func(t *cluster.Tenant) *int { return &t.Model }),
		Millis("deadline", func(t *cluster.Tenant) *units.Millis { return &t.Deadline }),
		Float("rate", func(t *cluster.Tenant) *float64 { return &t.Rate }),
		Int("clients", func(t *cluster.Tenant) *int { return &t.Clients }),
		Millis("think", func(t *cluster.Tenant) *units.Millis { return &t.Think }),
	)
}

// Node returns the node-group grammar of hios-cluster:
// "platform=a40,count=2,replicas=2".
func Node() *Parser[cluster.NodeSpec] {
	return New("node",
		Str("platform", func(n *cluster.NodeSpec) *string { return &n.Platform }),
		Int("count", func(n *cluster.NodeSpec) *int { return &n.Count }),
		Int("replicas", func(n *cluster.NodeSpec) *int { return &n.Replicas }),
	)
}
