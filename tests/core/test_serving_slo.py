"""SLO batch selection and the policy study on the serving subsystem."""

import pytest

from repro.core.analysis.serving import best_batch_for_slo, policy_study
from repro.serving import ServingReport
from repro.serving.request import RequestTable


def result(batch_size: int, p99: float) -> ServingReport:
    return ServingReport(
        policy=f"fixed({batch_size})", router="earliest-finish", n_requests=100,
        arrival_rate=None, makespan=1.0, throughput=100.0,
        mean_latency=p99 / 2, p50_latency=p99 / 2, p95_latency=p99,
        p99_latency=p99, mean_queue_time=0.0, mean_formation_wait=0.0,
        mean_service_time=p99 / 2, device_stats={},
        table=RequestTable.from_requests([]),
    )


class TestBestBatchForSLO:
    def test_no_feasible_batch_returns_none(self):
        results = {1: result(1, 0.5), 8: result(8, 0.9)}
        assert best_batch_for_slo(results, p99_slo=0.1) is None

    def test_single_feasible_batch(self):
        results = {1: result(1, 0.05), 8: result(8, 0.9), 40: result(40, 2.0)}
        assert best_batch_for_slo(results, p99_slo=0.1) == 1

    def test_boundary_is_inclusive(self):
        results = {4: result(4, 0.1)}
        assert best_batch_for_slo(results, p99_slo=0.1) == 4

    def test_picks_largest_of_many(self):
        results = {b: result(b, 0.01 * b) for b in (1, 2, 4, 8)}
        assert best_batch_for_slo(results, p99_slo=0.05) == 4

    def test_empty_results(self):
        assert best_batch_for_slo({}, p99_slo=1.0) is None


class TestPolicyStudy:
    def test_same_stream_all_policies(self):
        reports = policy_study(
            workload="avmnist", policies=("fixed", "adaptive"),
            devices=("2080ti",), n_requests=500, arrival_rate=500.0,
            slo=0.05, seed=0,
        )
        assert set(reports) == {"fixed", "adaptive"}
        arrivals = {label: [r.arrival for r in rep.requests[:10]]
                    for label, rep in reports.items()}
        assert arrivals["fixed"] == arrivals["adaptive"]

    def test_rejects_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown policy"):
            policy_study(policies=("belady",), n_requests=10)
