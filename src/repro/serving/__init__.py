"""Open-loop serving: dynamic batching, routing, and latency accounting.

The deployment-facing layer of the reproduction (see ``docs/serving.md``).
It answers the question the paper's Sec. 5.1 batch-size case study opens
— "what batch size should the OS schedule for an open request stream?" —
with a discrete-event simulator driven by memoized profiler cost models:

* :mod:`repro.serving.request` — requests and arrival processes
* :mod:`repro.serving.costmodel` — memoized per-batch cost models
* :mod:`repro.serving.policies` — fixed / timeout / SLO-adaptive batching
* :mod:`repro.serving.router` — placement across heterogeneous devices
* :mod:`repro.serving.scenarios` — named multi-tenant traffic mixes
* :mod:`repro.serving.finetune` — background fine-tuning jobs sharing
  devices with inference traffic through stream resource shares
* :mod:`repro.serving.faults` — declarative fault plans (device loss,
  thermal throttling, stalls), retry/shed accounting, graceful
  degradation, and the named chaos scenarios
* :mod:`repro.serving.simulator` — single- and multi-tenant serving on
  device slots (one-replica groups of the engine) and its report
* :mod:`repro.serving.fleet` — the serving engine and fleet-scale
  serving: homogeneous device groups, faults, cross-group hop costs,
  reactive autoscaling
* :mod:`repro.serving.report` — formatted throughput–tail-latency tables
"""

from repro.serving.costmodel import (
    DEFAULT_ANCHORS,
    PROFILE_STATS,
    CallableCostModel,
    ProfiledCostModel,
    TraceCostModel,
    clear_cost_cache,
    throughput_optimal_batch,
)
from repro.serving.faults import (
    CHAOS_SCENARIO_NAMES,
    CHAOS_SCENARIOS,
    DegradedMode,
    DeviceDown,
    DeviceFaultStats,
    DeviceRecover,
    FaultPlan,
    FaultPlanError,
    FaultStats,
    RetryPolicy,
    TenantFaultStats,
    ThermalThrottle,
    TransientStall,
    chaos_plan,
    degraded_mode_for,
    load_fault_plan,
)
from repro.serving.fleet import (
    AutoscalePolicy,
    DeviceGroup,
    FleetConfig,
    FleetConfigError,
    FleetReport,
    GroupStats,
    ScalingEvent,
    parse_autoscale,
    parse_groups,
    simulate_fleet,
)
from repro.serving.finetune import (
    FinetuneJob,
    FinetuneStats,
    TrainingCostModel,
    finetune_progress,
    inference_slowdown,
    make_finetune_jobs,
    total_background_share,
)
from repro.serving.policies import (
    POLICY_NAMES,
    AdaptiveSLOPolicy,
    BatchingPolicy,
    FixedBatchPolicy,
    TimeoutBatchPolicy,
    make_policy,
)
from repro.serving.report import (
    fleet_summary,
    format_device_breakdown,
    format_fault_stats,
    format_finetune_breakdown,
    format_policy_comparison,
    format_tenant_breakdown,
    mixed_serving_summary,
    serving_summary,
)
from repro.serving.request import (
    Request,
    RequestColumns,
    RequestTable,
    closed_arrivals,
    make_requests,
    poisson_arrivals,
    sort_request_columns,
)
from repro.serving.router import (
    EarliestFinishRouter,
    RoundRobinRouter,
    Router,
    RouterScaleError,
    make_router,
)
from repro.serving.scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    Scenario,
    get_scenario,
    make_tenants,
    scenario_columns,
    scenario_requests,
)
from repro.serving.simulator import (
    DeviceStats,
    ServingReport,
    TenantSpec,
    TenantStats,
    simulate,
    simulate_mixed,
    slot_labels,
    validate_fault_plan,
)

__all__ = [
    "DEFAULT_ANCHORS", "PROFILE_STATS", "CallableCostModel", "ProfiledCostModel",
    "TraceCostModel", "clear_cost_cache", "throughput_optimal_batch",
    "CHAOS_SCENARIO_NAMES", "CHAOS_SCENARIOS", "DegradedMode", "DeviceDown",
    "DeviceFaultStats", "DeviceRecover", "FaultPlan", "FaultPlanError",
    "FaultStats", "RetryPolicy", "TenantFaultStats", "ThermalThrottle",
    "TransientStall", "chaos_plan", "degraded_mode_for", "load_fault_plan",
    "AutoscalePolicy", "DeviceGroup", "FleetConfig", "FleetConfigError",
    "FleetReport", "GroupStats", "ScalingEvent", "parse_autoscale",
    "parse_groups", "simulate_fleet",
    "FinetuneJob", "FinetuneStats", "TrainingCostModel", "finetune_progress",
    "inference_slowdown", "make_finetune_jobs", "total_background_share",
    "POLICY_NAMES", "AdaptiveSLOPolicy", "BatchingPolicy", "FixedBatchPolicy",
    "TimeoutBatchPolicy", "make_policy",
    "fleet_summary", "format_device_breakdown", "format_fault_stats",
    "format_finetune_breakdown", "format_policy_comparison",
    "format_tenant_breakdown", "mixed_serving_summary", "serving_summary",
    "Request", "RequestColumns", "RequestTable", "closed_arrivals",
    "make_requests",
    "poisson_arrivals", "sort_request_columns",
    "EarliestFinishRouter", "RoundRobinRouter", "Router", "RouterScaleError",
    "make_router",
    "SCENARIO_NAMES", "SCENARIOS", "Scenario", "get_scenario", "make_tenants",
    "scenario_columns", "scenario_requests",
    "DeviceStats", "ServingReport", "TenantSpec", "TenantStats",
    "simulate", "simulate_mixed", "slot_labels", "validate_fault_plan",
]
