"""The paper's characterization analyses, one module per figure group."""

from repro.core.analysis.batchsize import (
    BatchSizeResult,
    batch_size_study,
    peak_memory_study,
    speedup_factor,
)
from repro.core.analysis.concurrency import (
    ConcurrencyAnalysis,
    analyze_concurrency,
    concurrency_study,
)
from repro.core.analysis.edge import (
    EDGE_SCALE,
    EdgeLatency,
    StallProfile,
    dominant_stalls,
    edge_latency_study,
    edge_resource_study,
    edge_stall_study,
    multimodal_ratio,
)
from repro.core.analysis.heterogeneity import (
    HotspotRecord,
    hotspot_across_fusions,
    hotspot_across_stages,
    kernel_breakdown_analysis,
)
from repro.core.analysis.modality import ExclusiveSets, exclusive_correct_analysis
from repro.core.analysis.performance import (
    PerformanceRow,
    best_by_kind,
    fusion_spread,
    performance_analysis,
)
from repro.core.analysis.robustness import RobustnessReport, robustness_analysis
from repro.core.analysis.serving import best_batch_for_slo, policy_study, serving_sweep
from repro.core.analysis.stage import stage_resource_analysis, stage_time_analysis
from repro.core.analysis.training import (
    TrainingCrossCheck,
    TrainingStepBreakdown,
    traced_vs_synthetic,
    training_batch_sweep,
    training_step_analysis,
)
from repro.core.analysis.synchronization import (
    SyncShare,
    modality_time_analysis,
    sync_share_analysis,
)

__all__ = [
    "ConcurrencyAnalysis", "analyze_concurrency", "concurrency_study",
    "RobustnessReport", "robustness_analysis",
    "best_batch_for_slo", "policy_study", "serving_sweep",
    "BatchSizeResult", "batch_size_study", "peak_memory_study", "speedup_factor",
    "EDGE_SCALE", "EdgeLatency", "StallProfile", "dominant_stalls",
    "edge_latency_study", "edge_resource_study", "edge_stall_study", "multimodal_ratio",
    "HotspotRecord", "hotspot_across_fusions", "hotspot_across_stages",
    "kernel_breakdown_analysis",
    "ExclusiveSets", "exclusive_correct_analysis",
    "PerformanceRow", "best_by_kind", "fusion_spread", "performance_analysis",
    "stage_resource_analysis", "stage_time_analysis",
    "SyncShare", "modality_time_analysis", "sync_share_analysis",
    "TrainingCrossCheck", "TrainingStepBreakdown", "traced_vs_synthetic",
    "training_batch_sweep", "training_step_analysis",
]
