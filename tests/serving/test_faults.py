"""Fault injection: plan validation, aborts/retries, throttles, degradation."""

import json

import numpy as np
import pytest

from repro.core.cli import main
from repro.serving import (
    CHAOS_SCENARIO_NAMES,
    DegradedMode,
    DeviceDown,
    DeviceRecover,
    EarliestFinishRouter,
    FaultPlan,
    FaultPlanError,
    FixedBatchPolicy,
    RetryPolicy,
    RoundRobinRouter,
    TenantSpec,
    ThermalThrottle,
    TransientStall,
    chaos_plan,
    load_fault_plan,
    simulate,
    simulate_mixed,
    slot_labels,
    validate_fault_plan,
)
from repro.serving.faults import FaultRuntime, _jitter_fraction
from repro.serving.finetune import FinetuneJob, _up_windows, finetune_progress


def affine(k: int) -> float:
    return 1e-3 + 1e-4 * k


def run(plan=None, retry=None, devices=("a", "b"), n=400, rate=2_000.0,
        policy=None, seed=0):
    return simulate(affine, policy or FixedBatchPolicy(8), devices=devices,
                    n_requests=n, arrival_rate=rate, seed=seed,
                    faults=plan, retry=retry)


class TestPlanValidation:
    def test_unknown_device_names_offender_and_slots(self):
        plan = FaultPlan((DeviceDown("zzz", 0.1),))
        with pytest.raises(FaultPlanError, match=r"unknown device 'zzz'.*a, b"):
            validate_fault_plan(plan, ("a", "b"))

    def test_overlapping_down_windows(self):
        plan = FaultPlan((DeviceDown("a", 0.1), DeviceDown("a", 0.2),
                          DeviceRecover("a", 0.3)))
        with pytest.raises(FaultPlanError, match="overlapping down windows"):
            validate_fault_plan(plan, ("a", "b"))

    def test_recover_without_down(self):
        plan = FaultPlan((DeviceRecover("a", 0.1),))
        with pytest.raises(FaultPlanError, match="recover without a matching"):
            validate_fault_plan(plan, ("a", "b"))

    def test_plan_killing_every_device_rejected(self):
        plan = FaultPlan((DeviceDown("a", 0.1), DeviceDown("b", 0.1)))
        with pytest.raises(FaultPlanError, match="at least one slot"):
            validate_fault_plan(plan, ("a", "b"))

    def test_event_field_validation(self):
        with pytest.raises(FaultPlanError, match="negative time"):
            FaultPlan((DeviceDown("a", -1.0),))
        with pytest.raises(FaultPlanError, match="factor must be positive"):
            FaultPlan((ThermalThrottle("a", 0.0, 1.0, factor=0.0),))
        with pytest.raises(FaultPlanError, match="end after it starts"):
            FaultPlan((ThermalThrottle("a", 1.0, 0.5, factor=2.0),))
        with pytest.raises(FaultPlanError, match="duration must be positive"):
            FaultPlan((TransientStall("a", 0.0, duration=0.0),))
        with pytest.raises(FaultPlanError, match="not a fault event"):
            FaultPlan(("down",))

    def test_duplicate_slots_expand_by_device_name(self):
        # "d" names both slots of a two-of-the-same pool.
        plan = FaultPlan((DeviceDown("d#0", 0.1), DeviceRecover("d#0", 0.2)))
        validate_fault_plan(plan, ("d", "d"))
        assert list(slot_labels(("d", "d"))) == ["d#0", "d#1"]


class TestJsonRoundTrip:
    def test_round_trip_preserves_events(self):
        plan = FaultPlan((
            DeviceDown("a", 0.1), DeviceRecover("a", 0.2),
            ThermalThrottle("b", 0.0, 0.5, factor=2.5),
            TransientStall("b", 0.3, duration=0.05),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        plan = FaultPlan((DeviceDown("a", 0.1), DeviceRecover("a", 0.2)))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        assert load_fault_plan(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown kind 'explode'"):
            FaultPlan.from_json({"events": [{"kind": "explode", "device": "a",
                                             "time": 0.1}]})


#: Malformed plan JSON (wrong types where ``from_json`` indexes or hashes,
#: a time past the float64 range) and the fragment its FaultPlanError names.
MALFORMED_PLANS = {
    "number-events": ('{"events": 5}', "events: not a list: 5"),
    "null-events": ('{"events": null}', "events: not a list: None"),
    "true-events": ('{"events": true}', "events: not a list: True"),
    "infinite-events": ('{"events": Infinity}', "events: not a list: inf"),
    "list-kind": ('{"events": [{"kind": ["down"], "device": "nano", '
                  '"time": 0.1}]}', "event[0]: unknown kind ['down']"),
    "object-kind": ('{"events": [{"kind": {}, "device": "nano", "time": 0.1}]}',
                    "event[0]: unknown kind {}"),
    "huge-time": ('{"events": [{"kind": "down", "device": "nano", "time": 1'
                  + "0" * 400 + "}]}", "event[0]: time must be a finite number"),
}


class TestMalformedPlanJson:
    @pytest.fixture(params=sorted(MALFORMED_PLANS))
    def plan(self, request, tmp_path):
        text, fragment = MALFORMED_PLANS[request.param]
        path = tmp_path / "plan.json"
        path.write_text(text)
        return text, str(path), fragment

    def test_from_json_raises_fault_plan_error(self, plan):
        text, _, fragment = plan
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_json(json.loads(text))
        assert fragment in str(excinfo.value)

    def test_mmbench_serve_exits_2(self, plan, capsys):
        _, path, fragment = plan
        assert main(["serve", "--faults", path, "--arrival-rate", "100",
                     "--n-requests", "50", "--devices", "2080ti,nano"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and fragment in err
        assert "Traceback" not in err

    def test_mmbench_lint_exits_2(self, plan, capsys):
        _, path, fragment = plan
        assert main(["lint", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"lint: {path}: {fragment}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_int_past_the_digit_limit_is_unreadable(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"events": [{"kind": "down", "device": "nano", '
                        '"time": ' + "1" * 5000 + "}]}")
        with pytest.raises(FaultPlanError, match="cannot read fault plan"):
            load_fault_plan(path)


class TestDownRecover:
    def test_outage_aborts_and_retries(self):
        plan = FaultPlan((DeviceDown("a", 0.01), DeviceRecover("a", 0.05)))
        report = run(plan=plan)
        fs = report.fault_stats
        assert fs.completed + fs.shed == fs.issued == 400
        assert fs.devices["a"].downtime == pytest.approx(0.04)
        assert fs.devices["a"].down_windows == [(0.01, 0.05)]
        # Traffic was flowing at t=0.01, so the outage caught a batch.
        assert fs.devices["a"].aborted_batches >= 1
        assert fs.retries >= fs.devices["a"].aborted_requests
        assert sum(k * v for k, v in fs.retry_histogram.items()) == fs.retries
        assert fs.recovery_p99 >= fs.recovery_p50 > 0

    def test_retried_requests_complete_with_latency(self):
        plan = FaultPlan((DeviceDown("a", 0.01), DeviceRecover("a", 0.05)))
        report = run(plan=plan)
        retried = [r for r in report.requests if r.retries and not r.shed]
        assert retried
        for r in retried:
            assert r.latency > 0 and r.finish >= 0.01

    def test_outage_on_idle_pool_costs_nothing(self):
        # The outage window sits long after the last arrival completes.
        plan = FaultPlan((DeviceDown("a", 1e9), DeviceRecover("a", 2e9)))
        base = run()
        faulted = run(plan=plan)
        assert faulted.makespan == base.makespan
        assert faulted.fault_stats.retries == 0

    def test_deadline_sheds_but_conserves(self):
        retry = RetryPolicy(deadline=2e-3)
        report = run(retry=retry, rate=20_000.0, n=1_000, devices=("a",))
        fs = report.fault_stats
        assert fs.shed > 0
        assert fs.completed + fs.shed == fs.issued == 1_000
        assert all(r.shed == (r.tenant == "" and r.finish != r.finish)
                   or True for r in report.requests)  # shed flag consistent
        shed_reqs = [r for r in report.requests if r.shed]
        assert len(shed_reqs) == fs.shed
        assert report.completed == fs.completed
        # Latency stats are over completed requests only.
        assert report.p99_latency == report.p99_latency  # not NaN

    def test_zero_retries_sheds_aborted_requests(self):
        plan = FaultPlan((DeviceDown("a", 0.01), DeviceRecover("a", 0.05)))
        report = run(plan=plan, retry=RetryPolicy(max_retries=0))
        fs = report.fault_stats
        assert fs.shed >= 1
        assert fs.completed + fs.shed == fs.issued


class TestThrottle:
    def test_uniform_factor_scales_service_time(self):
        plan = FaultPlan((ThermalThrottle("a", 0.0, 1e9, factor=2.0),))
        report = run(plan=plan, devices=("a",))
        for r in report.requests:
            assert r.service_time == pytest.approx(2.0 * affine(r.batch_size))
        fs = report.fault_stats
        assert fs.devices["a"].throttle_time == pytest.approx(report.makespan)

    def test_throttle_window_recorded_and_bounded(self):
        plan = FaultPlan((ThermalThrottle("a", 0.01, 0.05, factor=3.0),))
        report = run(plan=plan)
        d = report.fault_stats.devices["a"]
        assert d.throttle_windows == [(0.01, 0.05, 3.0)]
        assert d.throttle_time == pytest.approx(0.04)
        assert report.makespan >= run().makespan

    def test_overlapping_throttles_compound(self):
        plan = FaultPlan((ThermalThrottle("a", 0.0, 1e9, factor=2.0),
                          ThermalThrottle("a", 0.0, 1e9, factor=3.0)))
        report = run(plan=plan, devices=("a",), n=64)
        for r in report.requests:
            assert r.service_time == pytest.approx(6.0 * affine(r.batch_size))


class TestStall:
    def test_stall_delays_and_is_recorded(self):
        base = run(devices=("a",))
        plan = FaultPlan((TransientStall("a", 0.005, duration=0.1),))
        report = run(plan=plan, devices=("a",))
        # The stall happens early and the queue drains before the run
        # ends, so the makespan recovers — but latencies must not.
        assert report.mean_latency > base.mean_latency
        assert report.fault_stats.devices["a"].stall_time == pytest.approx(0.1)
        fs = report.fault_stats
        assert fs.completed == fs.issued and fs.shed == 0


class TestRouterDownSlots:
    def test_rank_excludes_down_slots(self):
        class Cost:
            def latency(self, slot, k):
                return 1e-3

        for router in (EarliestFinishRouter(), RoundRobinRouter()):
            router.note_down("a")
            assert router.rank(["a", "b"], 8, Cost()) == ["b"]
            router.note_recover("a")
            assert set(router.rank(["a", "b"], 8, Cost())) == {"a", "b"}

    def test_note_dispatch_on_down_slot_raises(self):
        for router in (EarliestFinishRouter(), RoundRobinRouter()):
            router.note_down("a")
            with pytest.raises(RuntimeError, match="down slot"):
                router.note_dispatch("a")

    def test_down_slots_frozen_view(self):
        router = EarliestFinishRouter()
        assert router.down_slots == frozenset()
        router.note_down("a")
        assert router.down_slots == frozenset({"a"})

    def test_flap_every_event_plan_still_conserves(self):
        """Regression: rapid down/recover flapping must never resurrect a
        dead slot inside the router or lose a request."""
        events = []
        t = 0.002
        for _ in range(60):
            events.append(DeviceDown("a", t))
            events.append(DeviceRecover("a", t + 0.001))
            t += 0.002
        plan = FaultPlan(tuple(events))
        report = run(plan=plan, retry=RetryPolicy(max_retries=100),
                     rate=5_000.0)
        fs = report.fault_stats
        assert fs.completed + fs.shed == fs.issued == 400
        assert len(fs.devices["a"].down_windows) == 60


class TestChaosBuilders:
    @pytest.mark.parametrize("name", CHAOS_SCENARIO_NAMES)
    def test_builders_produce_valid_plans(self, name):
        devices = ("2080ti", "nano")
        plan = chaos_plan(name, devices, horizon=1.0, seed=3)
        assert not plan.empty
        validate_fault_plan(plan, devices)

    def test_names_cover_issue_scenarios(self):
        assert set(CHAOS_SCENARIO_NAMES) >= {
            "single-failure", "rolling-restart", "thermal-brownout",
            "flaky-device"}

    def test_unknown_scenario_raises(self):
        with pytest.raises(FaultPlanError, match="unknown chaos scenario"):
            chaos_plan("nope", ("a", "b"), horizon=1.0)

    def test_deterministic_in_seed(self):
        a = chaos_plan("flaky-device", ("a", "b"), horizon=1.0, seed=7)
        b = chaos_plan("flaky-device", ("a", "b"), horizon=1.0, seed=7)
        assert a == b

    def test_single_failure_end_to_end(self):
        devices = ("a", "b")
        plan = chaos_plan("single-failure", devices, horizon=0.2, seed=0)
        report = run(plan=plan, devices=devices)
        fs = report.fault_stats
        assert fs.total_downtime > 0
        assert fs.completed + fs.shed == fs.issued


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=0.0)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=0.0)

    def test_backoff_grows_exponentially(self):
        retry = RetryPolicy(backoff_base=1e-3, backoff_factor=2.0, jitter=0.0)
        assert retry.backoff(0, 1) == pytest.approx(1e-3)
        assert retry.backoff(0, 2) == pytest.approx(2e-3)
        assert retry.backoff(0, 3) == pytest.approx(4e-3)

    def test_jitter_is_deterministic_and_bounded(self):
        for index in range(50):
            for attempt in range(1, 4):
                f = _jitter_fraction(index, attempt)
                assert 0.0 <= f < 1.0
                assert f == _jitter_fraction(index, attempt)


class TestBuildStats:
    """``build_stats`` makes one pass over the requests, and none at all
    when nothing was aborted or served degraded. Its retry histogram and
    degraded-mode attainment must equal plain per-tenant scans."""

    @staticmethod
    def scanned(report, slos):
        histogram: dict[int, int] = {}
        for r in report.requests:
            if r.retries:
                histogram[r.retries] = histogram.get(r.retries, 0) + 1
        attainment = {}
        for name, slo in slos.items():
            latencies = [r.latency for r in report.requests
                         if r.tenant == name and r.degraded and not r.shed]
            attainment[name] = (float(np.mean(np.array(latencies) <= slo))
                                if latencies and slo is not None else None)
        return dict(sorted(histogram.items())), attainment

    @pytest.mark.parametrize("chaos", [None, "single-failure"])
    @pytest.mark.parametrize("degraded", [False, True])
    def test_matches_per_tenant_scans(self, chaos, degraded):
        mode = DegradedMode("image", 0.5, enter_wait=3e-3) if degraded else None
        slos = {"x": 20e-3, "y": None, "z": 30e-3}
        tenants = [TenantSpec(name, affine, FixedBatchPolicy(8), slo=slo,
                              degraded=mode if name != "z" else None)
                   for name, slo in slos.items()]
        devices = ("a", "b")
        plan = chaos_plan(chaos, devices, 0.1, seed=0) if chaos else None
        report = simulate_mixed(tenants, devices=devices, n_requests=1_500,
                                arrival_rate=15_000.0, faults=plan,
                                retry=RetryPolicy(), seed=0, lint=False)
        fs = report.fault_stats
        histogram, attainment = self.scanned(report, slos)
        assert fs.retry_histogram == histogram
        assert {name: t.degraded_slo_attainment
                for name, t in fs.tenants.items()} == attainment
        assert (fs.retries > 0) == (chaos is not None)
        assert (fs.tenants["x"].degraded_requests > 0) == degraded
        if degraded:
            assert attainment["x"] is not None and attainment["y"] is None


class TestConservationUnit:
    def test_check_conservation_raises_on_mismatch(self):
        runtime = FaultRuntime(FaultPlan(), RetryPolicy(), ("a",),
                               {"a": "a"})
        runtime.queued = 1
        with pytest.raises(RuntimeError, match="conservation"):
            runtime.check_conservation(issued=0)
        runtime.check_conservation(issued=1)  # balanced again


class TestDegradedMode:
    def test_validation(self):
        with pytest.raises(ValueError, match="latency_factor"):
            DegradedMode("image", 0.0, enter_wait=1.0)
        with pytest.raises(ValueError, match="enter_wait"):
            DegradedMode("image", 0.5, enter_wait=0.0)
        with pytest.raises(ValueError, match="exit_wait"):
            DegradedMode("image", 0.5, enter_wait=1.0, exit_wait=2.0)
        assert DegradedMode("image", 0.5, enter_wait=1.0).exit_wait == 0.5

    def test_pressure_triggers_degraded_serving(self):
        mode = DegradedMode("image", 0.25, enter_wait=5e-3)
        tenants = [TenantSpec("t", affine, FixedBatchPolicy(8), slo=50e-3,
                              degraded=mode)]
        report = simulate_mixed(tenants, devices=("d",), n_requests=3_000,
                                arrival_rate=9_000.0, seed=0)
        fs = report.fault_stats
        t = fs.tenants["t"]
        assert t.degraded_available
        assert t.degraded_requests > 0
        assert t.degraded_activations >= 1
        assert t.degraded_time > 0
        assert t.degraded_slo_attainment is not None
        degraded = [r for r in report.requests if r.degraded]
        assert len(degraded) == t.degraded_requests
        # Degraded batches really run cheaper than their nominal cost.
        for r in degraded:
            assert r.service_time == pytest.approx(0.25 * affine(r.batch_size))

    def test_no_pressure_no_degradation(self):
        mode = DegradedMode("image", 0.25, enter_wait=10.0)
        tenants = [TenantSpec("t", affine, FixedBatchPolicy(8), slo=50e-3,
                              degraded=mode)]
        report = simulate_mixed(tenants, devices=("d",), n_requests=500,
                                arrival_rate=1_000.0, seed=0)
        t = report.fault_stats.tenants["t"]
        assert t.degraded_available and t.degraded_requests == 0


class TestFinetuneCheckpointRestart:
    def test_up_windows_invert_down(self):
        assert _up_windows(1.0, [(0.2, 0.4)]) == [(0.2, True), (0.6, False)]
        assert _up_windows(1.0, []) == [(1.0, False)]
        # Windows past the makespan clamp away.
        assert _up_windows(1.0, [(2.0, 3.0)]) == [(1.0, False)]

    def test_restart_rolls_back_to_checkpoint(self):
        job = FinetuneJob(name="j", workload="avmnist", share=0.5,
                          batch_size=4, checkpoint_interval=10)
        stats_clean = finetune_progress([job], {"s": "2080ti"}, makespan=1.0)
        step = list(stats_clean["j"].step_times.values())[0] / job.share
        # One failure after ~25 partitioned steps: roll back to step 20.
        down = {"s": [(25.0 * step, 30.0 * step)]}
        makespan = 40.0 * step
        stats = finetune_progress([job], {"s": "2080ti"}, makespan=makespan,
                                  down_windows=down)["j"]
        assert stats.restarts == 1
        assert stats.lost_steps == pytest.approx(5.0, abs=1e-6)
        assert stats.downtime == pytest.approx(5.0 * step)
        # 20 checkpointed + 10 after recovery.
        assert stats.steps_completed == pytest.approx(30.0, abs=1e-6)

    def test_no_down_windows_matches_clean_run(self):
        job = FinetuneJob(name="j", workload="avmnist", share=0.25)
        clean = finetune_progress([job], {"s": "2080ti"}, makespan=2.0)
        faulted = finetune_progress([job], {"s": "2080ti"}, makespan=2.0,
                                    down_windows={})
        assert clean["j"].steps_completed == faulted["j"].steps_completed
        assert faulted["j"].restarts == 0 and faulted["j"].lost_steps == 0

    def test_checkpoint_interval_validated(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            FinetuneJob(name="j", workload="avmnist", share=0.1,
                        checkpoint_interval=0)

    def test_mixed_run_wires_down_windows_to_jobs(self):
        tenants = [TenantSpec("t", affine, FixedBatchPolicy(8), slo=50e-3)]
        jobs = [FinetuneJob(name="bg", workload="avmnist", share=0.3,
                            batch_size=4, checkpoint_interval=5)]
        plan = FaultPlan((DeviceDown("2080ti", 0.01),
                          DeviceRecover("2080ti", 0.2)))
        report = simulate_mixed(tenants, devices=("2080ti", "nano"),
                                n_requests=800,
                                arrival_rate=2_000.0, seed=0, finetune=jobs,
                                faults=plan)
        stats = report.finetune_stats["bg"]
        assert stats.restarts >= 1
        assert stats.downtime > 0
