package hios

import (
	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/experiments"
	"github.com/shus-lab/hios/internal/specflag"
)

// This file extends the facade to the cluster control plane (DESIGN.md
// §14): a deterministic discrete-event simulator of a heterogeneous GPU
// fleet behind a routing/admission gateway with a replica autoscaler.
// cmd/hios-cluster is an ordinary client of exactly this surface.

type (
	// ClusterOptions configures one cluster simulation: fleet, deployed
	// models with per-platform profiles, tenants, router policy,
	// admission control and autoscaler. It follows the validated-options
	// pattern — zero values select documented defaults and Validate
	// reports violations with errors.Is-matchable sentinels.
	ClusterOptions = cluster.Options
	// ClusterReport is the outcome of a cluster simulation: attainment,
	// goodput, tail latencies, per-tenant and per-pool breakdowns, the
	// autoscaler timeline and replica-time cost.
	ClusterReport = cluster.Report
	// FleetSpec declares the heterogeneous fleet: node groups per
	// platform preset.
	FleetSpec = cluster.FleetSpec
	// ClusterNodeSpec is one group of identical nodes in a FleetSpec.
	ClusterNodeSpec = cluster.NodeSpec
	// ClusterPreset couples a platform key with its dual-GPU testbed
	// and relative cost rate.
	ClusterPreset = cluster.Preset
	// ClusterDeployment is one model served fleet-wide, with one
	// serving profile per platform.
	ClusterDeployment = cluster.Deployment
	// ClusterProfile is one deployment's serving characteristics on one
	// platform (latency, period, busy time of its HIOS schedule).
	ClusterProfile = cluster.Profile
	// ClusterTenant is one request class sharing the cluster; identical
	// to ServeTenant.
	ClusterTenant = cluster.Tenant
	// ClusterAdmission configures gateway admission control: token
	// bucket plus queue-depth shedding.
	ClusterAdmission = cluster.Admission
	// RouterPolicy selects how the gateway routes admitted requests.
	RouterPolicy = cluster.RouterPolicy
	// AutoscalerOptions configures the per-pool replica autoscaler.
	AutoscalerOptions = cluster.AutoscalerOptions
	// ClusterNodeReport is one (node, deployment) pool's slice of a
	// ClusterReport.
	ClusterNodeReport = cluster.NodeReport
	// ClusterScaleEvent is one autoscaler decision.
	ClusterScaleEvent = cluster.ScaleEvent
	// FleetSweepOptions parameterizes AttainmentVsFleet (figure Serve2).
	FleetSweepOptions = experiments.FleetSweepOptions
)

// The implemented router policies.
const (
	// RouterLeastLoad routes to the fewest outstanding requests per
	// live replica.
	RouterLeastLoad = cluster.RouterLeastLoad
	// RouterWeighted routes to the lowest latency estimate weighted by
	// platform cost.
	RouterWeighted = cluster.RouterWeighted
	// RouterAffinity pins each tenant to a preferred node with
	// least-load fallback.
	RouterAffinity = cluster.RouterAffinity
	// RouterRandom routes uniformly at random (the baseline).
	RouterRandom = cluster.RouterRandom
)

// RouterPolicies lists every implemented router policy, enumerated from
// the same registry that validation and CLI usage strings read.
func RouterPolicies() []RouterPolicy { return cluster.RouterPolicies() }

// Sentinel errors of ClusterOptions.Validate, re-exported for errors.Is
// matching without importing internal paths.
var (
	// ErrClusterNoNodes reports a FleetSpec with no nodes.
	ErrClusterNoNodes = cluster.ErrNoNodes
	// ErrClusterUnknownPlatform reports a platform key outside the
	// presets.
	ErrClusterUnknownPlatform = cluster.ErrUnknownPlatform
	// ErrClusterBadNode reports a structurally invalid ClusterNodeSpec.
	ErrClusterBadNode = cluster.ErrBadNode
	// ErrClusterNoDeployments reports a ClusterOptions with no
	// deployments.
	ErrClusterNoDeployments = cluster.ErrNoDeployments
	// ErrClusterBadDeployment reports a structurally invalid profile.
	ErrClusterBadDeployment = cluster.ErrBadDeployment
	// ErrClusterMissingProfile reports a deployment lacking a profile
	// for a fleet platform.
	ErrClusterMissingProfile = cluster.ErrMissingProfile
	// ErrClusterNoTenants reports a ClusterOptions with no tenants.
	ErrClusterNoTenants = cluster.ErrNoTenants
	// ErrClusterBadTenant reports a structurally invalid tenant.
	ErrClusterBadTenant = cluster.ErrBadTenant
	// ErrUnknownRouterPolicy reports a RouterPolicy outside the
	// registry.
	ErrUnknownRouterPolicy = cluster.ErrUnknownRouterPolicy
	// ErrClusterBadAdmission reports negative admission parameters.
	ErrClusterBadAdmission = cluster.ErrBadAdmission
	// ErrClusterBadAutoscaler reports inconsistent autoscaler options.
	ErrClusterBadAutoscaler = cluster.ErrBadAutoscaler
	// ErrClusterBadHorizon reports a negative arrival horizon.
	ErrClusterBadHorizon = cluster.ErrBadHorizon
)

// ClusterPresets lists the fleet platform presets (a40, a5500, v100s)
// with their testbeds and relative cost rates.
func ClusterPresets() []ClusterPreset { return cluster.Presets() }

// ClusterProfileOf converts a single-node ServeModel — derived from a
// schedule computed with one platform's cost model — into that
// platform's cluster serving profile.
func ClusterProfileOf(platform string, m ServeModel) ClusterProfile {
	return cluster.ProfileOf(platform, m)
}

// ClusterServe runs one fleet-scale serving simulation: seeded
// arrivals, gateway admission and routing, per-pool dispatch, replica
// autoscaling. The same options always produce the same report
// (DESIGN.md §7, §14).
func ClusterServe(opt ClusterOptions) (*ClusterReport, error) { return cluster.Run(opt) }

// AttainmentVsFleet sweeps SLO attainment versus fleet size for every
// router policy (figure Serve2); the resulting figure is byte-identical
// at any Workers width.
func AttainmentVsFleet(opt FleetSweepOptions) (Figure, error) {
	return experiments.AttainmentVsFleet(opt)
}

// SpecParser parses and renders one comma-separated key=value spec
// grammar (the -tenant/-node flag language shared by hios-serve and
// hios-cluster).
type SpecParser[T any] = specflag.Parser[T]

// TenantSpec returns the shared tenant-spec grammar, e.g.
// "name=web,deadline=20,rate=300" (open-loop) or
// "name=batch,deadline=200,clients=4,think=5" (closed-loop).
func TenantSpec() *SpecParser[ServeTenant] { return specflag.Tenant() }

// NodeSpecParser returns the node-group grammar of hios-cluster, e.g.
// "platform=a40,count=2,replicas=2".
func NodeSpecParser() *SpecParser[ClusterNodeSpec] { return specflag.Node() }

// ServePolicyUsage renders the dispatch policies as a one-line flag
// usage string, enumerated from the policy registry.
func ServePolicyUsage() string { return cluster.ServePolicyUsage() }

// RouterPolicyUsage renders the router policies as a one-line flag
// usage string, enumerated from the router registry.
func RouterPolicyUsage() string { return cluster.RouterUsage() }
