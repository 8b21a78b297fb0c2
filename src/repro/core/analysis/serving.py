"""Serving analyses: batch-size sweeps and dynamic-batching policy studies.

Extends the Sec. 5.1 batch-size case study from a closed 10,000-task batch
run into open-loop serving analyses on the :mod:`repro.serving` engine:
given an arrival rate, what *fixed* batch size minimizes tail latency
while sustaining the load (:func:`serving_sweep` /
:func:`best_batch_for_slo`) — and how much better does a *dynamic*
batching policy do under the same stream (:func:`policy_study`)?
"""

from __future__ import annotations

from repro.serving import (
    BatchingPolicy,
    FixedBatchPolicy,
    ProfiledCostModel,
    ServingReport,
    make_policy,
    simulate,
)


def serving_sweep(
    workload: str = "avmnist",
    fusion: str | None = None,
    batch_sizes: tuple[int, ...] = (1, 8, 40, 100, 400),
    n_tasks: int = 10_000,
    arrival_rate: float | None = None,
    device: str = "2080ti",
    seed: int = 0,
) -> dict[int, ServingReport]:
    """Simulate serving ``n_tasks`` at each fixed batch size; per-size reports.

    ``arrival_rate=None`` reproduces the paper's closed-batch setting (all
    tasks queued at t=0); a finite rate simulates an open Poisson stream.
    """
    cost = ProfiledCostModel(workload, fusion, seed=seed)
    return {
        batch_size: simulate(
            cost, FixedBatchPolicy(batch_size), devices=(device,),
            n_requests=n_tasks, arrival_rate=arrival_rate, seed=seed,
        )
        for batch_size in batch_sizes
    }


def best_batch_for_slo(results: dict[int, ServingReport], p99_slo: float) -> int | None:
    """Largest batch size whose p99 latency meets the SLO (None if none do)."""
    feasible = [b for b, r in results.items() if r.p99_latency <= p99_slo]
    return max(feasible) if feasible else None


def policy_study(
    workload: str = "avmnist",
    fusion: str | None = None,
    policies: dict[str, BatchingPolicy] | tuple[str, ...] = ("fixed", "adaptive"),
    devices: tuple[str, ...] = ("2080ti",),
    n_requests: int = 5_000,
    arrival_rate: float | None = 1_000.0,
    slo: float = 50e-3,
    seed: int = 0,
) -> dict[str, ServingReport]:
    """Run each dynamic-batching policy against the same arrival stream.

    ``policies`` is either a mapping of label -> policy instance, or a
    tuple of policy names built via :func:`repro.serving.make_policy`
    (``slo`` seeds the adaptive policy). Identical ``seed`` means every
    policy sees the identical Poisson stream, so differences are purely
    the policy's doing.
    """
    if not isinstance(policies, dict):
        policies = {name: make_policy(name, slo=slo) for name in policies}
    cost = ProfiledCostModel(workload, fusion, seed=seed)
    return {
        label: simulate(cost, policy, devices=devices, n_requests=n_requests,
                        arrival_rate=arrival_rate, seed=seed)
        for label, policy in policies.items()
    }
