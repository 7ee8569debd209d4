package specflag

import (
	"strings"
	"testing"

	"github.com/shus-lab/hios/internal/cluster"
)

func TestTenantParse(t *testing.T) {
	p := Tenant()
	got, err := p.Parse("name=web,deadline=20,rate=300")
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.Tenant{Name: "web", Deadline: 20, Rate: 300}
	if got != want {
		t.Fatalf("Parse = %+v, want %+v", got, want)
	}
	got, err = p.Parse(" name=batch , model=1, deadline=200,clients=4,think=5")
	if err != nil {
		t.Fatal(err)
	}
	want = cluster.Tenant{Name: "batch", Model: 1, Deadline: 200, Clients: 4, Think: 5}
	if got != want {
		t.Fatalf("Parse = %+v, want %+v", got, want)
	}
}

func TestTenantParseErrors(t *testing.T) {
	p := Tenant()
	cases := []struct{ in, wantSub string }{
		{"name", "want key=value"},
		{"sla=20", `unknown tenant field "sla"`},
		{"sla=20", "name, model, deadline, rate, clients or think"},
		{"deadline=abc", `bad tenant field "deadline=abc"`},
		{"clients=1.5", `bad tenant field "clients=1.5"`},
	}
	for _, c := range cases {
		if _, err := p.Parse(c.in); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.in, err, c.wantSub)
		}
	}
}

// TestRoundTrip: Parse(String(v)) == v, and String omits unset fields.
func TestRoundTrip(t *testing.T) {
	tp := Tenant()
	tenants := []cluster.Tenant{
		{Name: "web", Deadline: 20, Rate: 300},
		{Name: "batch", Model: 2, Deadline: 200, Clients: 4, Think: 5},
		{Deadline: 12.5, Rate: 0.25},
		{},
	}
	for _, in := range tenants {
		s := tp.String(in)
		if s == "" {
			continue // zero spec renders empty; nothing to reparse
		}
		out, err := tp.Parse(s)
		if err != nil {
			t.Fatalf("Parse(String(%+v)) = %q: %v", in, s, err)
		}
		if out != in {
			t.Fatalf("round trip %+v -> %q -> %+v", in, s, out)
		}
	}
	if got := tp.String(tenants[0]); got != "name=web,deadline=20,rate=300" {
		t.Fatalf("String = %q", got)
	}

	np := Node()
	node := cluster.NodeSpec{Platform: "a40", Count: 2, Replicas: 3}
	s := np.String(node)
	if s != "platform=a40,count=2,replicas=3" {
		t.Fatalf("node String = %q", s)
	}
	out, err := np.Parse(s)
	if err != nil || out != node {
		t.Fatalf("node round trip = %+v, %v", out, err)
	}
}

func TestNodeParse(t *testing.T) {
	p := Node()
	got, err := p.Parse("platform=v100s,count=4")
	if err != nil {
		t.Fatal(err)
	}
	if got != (cluster.NodeSpec{Platform: "v100s", Count: 4}) {
		t.Fatalf("Parse = %+v", got)
	}
	if _, err := p.Parse("gpu=a40"); err == nil || !strings.Contains(err.Error(), "platform, count or replicas") {
		t.Fatalf("unknown key error = %v", err)
	}
}

func TestKeys(t *testing.T) {
	got := strings.Join(Tenant().Keys(), ",")
	if got != "name,model,deadline,rate,clients,think" {
		t.Fatalf("Keys = %q", got)
	}
}
