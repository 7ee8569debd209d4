package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenPath holds one "name sha256" line per golden configuration,
// recorded from the engine's reports.
const goldenPath = "testdata/golden.sha256"

// goldenCase is one configuration of the output golden table: a cluster
// run (opt) or a single-node serve run (serve), never both.
type goldenCase struct {
	name  string
	opt   *Options
	serve *ServeOptions
}

// goldenCases covers every router with the autoscaler on and off, each
// gateway shedding mechanism, open-loop only traffic, closed-loop
// tenants after, before and between open-loop ones (which interleaves
// the pre-drawn and reissued request ranges), a zero-think closed loop
// that reissues at the instant its request finishes, and every serve
// policy.
func goldenCases() []goldenCase {
	// overload offers ~1.3x the testOptions fleet's 2500 req/s.
	overload := func() Options {
		o := testOptions()
		o.Tenants[0].Rate, o.Tenants[1].Rate = 2000, 1300
		return o
	}
	scaler := AutoscalerOptions{Enabled: true, Interval: 20, Window: 4, Cooldown: 40, MaxReplicas: 4}
	closed := Tenant{Name: "closed", Model: 0, Deadline: 30, Clients: 4, Think: 5}
	eager := Tenant{Name: "eager", Model: 0, Deadline: 15, Clients: 3, Think: 0}

	var cs []goldenCase
	add := func(name string, o Options) { cs = append(cs, goldenCase{name: name, opt: &o}) }
	for _, r := range RouterPolicies() {
		for _, auto := range []bool{false, true} {
			o := overload()
			o.Router = r
			if auto {
				o.Autoscaler = scaler
			}
			add(fmt.Sprintf("cluster/router=%s/autoscaler=%t", r, auto), o)
		}
	}

	o := overload()
	o.Admission = Admission{RatePerSec: 2200, Burst: 8}
	add("cluster/shed=token-bucket", o)
	o = overload()
	o.Admission = Admission{MaxQueue: 12}
	add("cluster/shed=max-queue", o)
	o = overload()
	o.Admission = Admission{ShedHopeless: true}
	add("cluster/shed=hopeless", o)
	o = overload()
	o.Admission = Admission{RatePerSec: 2600, Burst: 32, MaxQueue: 64, ShedHopeless: true}
	o.Autoscaler = scaler
	add("cluster/shed=all/autoscaler=true", o)

	o = testOptions()
	add("cluster/open-only", o)
	o = overload()
	o.Tenants = append(o.Tenants, closed)
	add("cluster/closed-after-open", o)
	o = overload()
	o.Tenants = append([]Tenant{closed}, o.Tenants...)
	o.Admission = Admission{ShedHopeless: true}
	o.Autoscaler = scaler
	add("cluster/closed-before-open", o)
	o = overload()
	o.Tenants = []Tenant{o.Tenants[0], eager, o.Tenants[1]}
	o.Admission = Admission{MaxQueue: 24, ShedHopeless: true}
	add("cluster/closed-think0-between-open", o)

	// Two deployments: tenants of different models share the gateway
	// and the event loop but not the pools.
	o = overload()
	second := testDeployment()
	second.Name = "n"
	for i := range second.Profiles {
		second.Profiles[i].Latency *= 2
		second.Profiles[i].Period *= 2
	}
	o.Deployments = append(o.Deployments, second)
	o.Tenants = []Tenant{closed, o.Tenants[0], {Name: "other", Model: 1, Deadline: 40, Rate: 900}, o.Tenants[1]}
	o.Router = RouterWeighted
	o.Autoscaler = scaler
	add("cluster/two-deployments", o)

	for _, p := range ServePolicies() {
		open := []Tenant{
			{Name: "tight", Deadline: 8, Rate: 600},
			{Name: "loose", Deadline: 40, Rate: 700},
		}
		mixed := []Tenant{closed, open[0], eager, open[1]}
		for _, tc := range []struct {
			name    string
			tenants []Tenant
		}{{"open-only", open}, {"mixed", mixed}} {
			so := ServeOptions{
				Models:         []ServeModel{testModel(2)},
				Tenants:        tc.tenants,
				Policy:         p,
				Horizon:        500,
				Seed:           11,
				RecordRequests: true,
			}
			cs = append(cs, goldenCase{name: fmt.Sprintf("serve/policy=%s/%s", p, tc.name), serve: &so})
		}
	}
	return cs
}

// goldenDigest runs one configuration and hashes everything its report
// emits: Render, the queue CSV, the event count, and for serve runs
// every recorded request outcome.
func goldenDigest(t *testing.T, c goldenCase) string {
	t.Helper()
	h := sha256.New()
	var err error
	if c.opt != nil {
		r, rerr := Run(*c.opt)
		if rerr != nil {
			t.Fatalf("%s: Run: %v", c.name, rerr)
		}
		err = firstErr(r.Render(h), r.WriteQueue(h))
		fmt.Fprintf(h, "events %d\n", r.Events)
	} else {
		r, rerr := Serve(*c.serve)
		if rerr != nil {
			t.Fatalf("%s: Serve: %v", c.name, rerr)
		}
		err = firstErr(r.Render(h), r.WriteQueue(h))
		for _, q := range r.Requests {
			fmt.Fprintf(h, "%+v\n", q)
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// readGoldens parses the committed digest file into name -> digest.
func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestOutputGoldens pins the byte output of every golden configuration
// to the digests in testdata/golden.sha256. An engine change that is
// meant to be output-neutral must pass it unchanged; on a failure the
// log holds the full recomputed file.
func TestOutputGoldens(t *testing.T) {
	want := readGoldens(t)
	cs := goldenCases()
	var got strings.Builder
	for _, c := range cs {
		d := goldenDigest(t, c)
		fmt.Fprintf(&got, "%s %s\n", c.name, d)
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no recorded digest", c.name)
		} else if w != d {
			t.Errorf("%s: digest %s, recorded %s", c.name, d, w)
		}
	}
	if len(want) != len(cs) {
		t.Errorf("%s holds %d digests for %d configurations", goldenPath, len(want), len(cs))
	}
	if t.Failed() {
		t.Logf("recomputed %s:\n%s", goldenPath, got.String())
	}
}
