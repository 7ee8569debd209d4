package hios

import (
	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/experiments"
)

// This file extends the facade to the online serving layer (DESIGN.md
// §9): a deterministic discrete-event simulator of a deadline-aware,
// multi-tenant model-serving deployment built on the offline scheduling
// core — the one-node case of the cluster engine (§14).
// cmd/hios-serve is an ordinary client of exactly this surface.

type (
	// ServeOptions configures one serving simulation: deployed models,
	// tenants, dispatch policy, arrival horizon and seed. It follows
	// the validated-options pattern — zero values select documented
	// defaults and Validate reports violations with errors.Is-matchable
	// sentinels.
	ServeOptions = cluster.ServeOptions
	// ServeReport is the outcome of a serving simulation: attainment,
	// goodput, tail latencies, per-tenant and per-GPU breakdowns and
	// the queue-depth timeline.
	ServeReport = cluster.ServeReport
	// ServeModel is one deployed model: pipeline replicas characterized
	// by the latency and steady-state period of a schedule.
	ServeModel = cluster.ServeModel
	// ServeTenant is one request class: an arrival process (open-loop
	// Poisson rate or closed-loop clients) plus a relative deadline.
	ServeTenant = cluster.Tenant
	// ServePolicy selects the dispatch discipline.
	ServePolicy = cluster.ServePolicy
	// ServeTenantReport is one tenant's slice of a ServeReport.
	ServeTenantReport = cluster.TenantReport
	// ServeGPUUtil is the utilization of one GPU of one replica.
	ServeGPUUtil = cluster.ServeGPUUtil
	// ServeQueuePoint is one step of the queue-depth timeline.
	ServeQueuePoint = cluster.QueuePoint
	// ServeRequestOutcome is one request's fate, recorded when
	// ServeOptions.RecordRequests is set.
	ServeRequestOutcome = cluster.ServeRequestOutcome
	// ServeSweepOptions parameterizes AttainmentVsLoad.
	ServeSweepOptions = experiments.ServeSweepOptions
)

// The implemented dispatch policies.
const (
	// ServeFIFO serves requests in arrival order.
	ServeFIFO = cluster.ServeFIFO
	// ServeEDF serves the earliest absolute deadline first.
	ServeEDF = cluster.ServeEDF
	// ServeEDFShed is EDF plus shed-on-hopeless admission control.
	ServeEDFShed = cluster.ServeEDFShed
)

// ServePolicies lists every implemented dispatch policy.
func ServePolicies() []ServePolicy { return cluster.ServePolicies() }

// Sentinel errors of ServeOptions.Validate, re-exported for errors.Is
// matching without importing internal paths.
var (
	// ErrServeNoModels reports a ServeOptions with no deployed models.
	ErrServeNoModels = cluster.ErrServeNoModels
	// ErrServeNoTenants reports a ServeOptions with no tenants.
	ErrServeNoTenants = cluster.ErrServeNoTenants
	// ErrServeUnknownPolicy reports an unrecognized ServePolicy.
	ErrServeUnknownPolicy = cluster.ErrServeUnknownPolicy
	// ErrServeBadModel reports a structurally invalid ServeModel.
	ErrServeBadModel = cluster.ErrServeBadModel
	// ErrServeBadTenant reports a structurally invalid ServeTenant.
	ErrServeBadTenant = cluster.ErrServeBadTenant
	// ErrServeBadHorizon reports a negative arrival horizon.
	ErrServeBadHorizon = cluster.ErrServeBadHorizon
)

// NewServeModel derives a deployment model from a schedule: latency and
// admission period from the pipeline unrolling analysis, per-GPU busy
// time from the evaluated timing. Replicas starts at 1; scale it to the
// GPU budget before serving.
func NewServeModel(name string, g *Graph, m CostModel, s *Schedule) (ServeModel, error) {
	return cluster.NewServeModel(name, g, m, s)
}

// Serve runs one online serving simulation: seeded stochastic arrivals,
// deadline-aware dispatch, shedding under the admission-control policy.
// It is a one-node ClusterServe, so the two always agree on the same
// traffic. The same options always produce the same report (DESIGN.md
// §7, §9).
func Serve(opt ServeOptions) (*ServeReport, error) { return cluster.Serve(opt) }

// AttainmentVsLoad sweeps SLO attainment versus offered load for every
// real-system scheduler × dispatch policy; the resulting figure is
// byte-identical at any Workers width.
func AttainmentVsLoad(opt ServeSweepOptions) (Figure, error) {
	return experiments.AttainmentVsLoad(opt)
}
