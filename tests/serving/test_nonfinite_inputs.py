"""Non-finite and non-numeric serving inputs fail with a structured error.

Every time, rate, factor and backoff reaches the event heap; a NaN or an
infinity there does not crash, it silently reorders events (p99 ``nan``,
makespan ``inf``, a deadline that never sheds). Each case below is one
input that used to get through, and must now be rejected up front with
the module's own error: :class:`FaultPlanError` for plan fields,
``ValueError`` for constructors, exit code 2 and one line from the CLI.
"""

import json
import math

import numpy as np
import pytest

from repro.core.cli import main
from repro.serving import (
    AdaptiveSLOPolicy,
    AutoscalePolicy,
    DeviceGroup,
    FaultPlanError,
    FixedBatchPolicy,
    FleetConfigError,
    RetryPolicy,
    TenantSpec,
    TimeoutBatchPolicy,
    load_fault_plan,
    parse_autoscale,
    parse_groups,
    simulate,
    simulate_fleet,
    simulate_mixed,
)
from repro.serving.request import (Request, RequestColumns, check_arrivals,
                                   poisson_arrivals)
from repro.serving.scenarios import scenario_columns


def affine(k: int) -> float:
    return 1e-3 + 1e-4 * k


def tenants():
    return [TenantSpec("x", affine, FixedBatchPolicy(8)),
            TenantSpec("y", affine, FixedBatchPolicy(8))]


def write_plan(tmp_path, event) -> str:
    """A plan file as JSON text; ``json`` writes NaN/Infinity literals and
    reads them back, exactly as a hand-written plan would reach us."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"events": [event]}))
    return str(path)


class TestFaultPlanFields:
    @pytest.mark.parametrize("event, field", [
        ({"kind": "down", "device": "a", "time": "0.1"}, "time"),
        ({"kind": "down", "device": "a", "time": None}, "time"),
        ({"kind": "down", "device": "a", "time": True}, "time"),
        ({"kind": "recover", "device": "a", "time": math.nan}, "time"),
        ({"kind": "down", "device": "a", "time": math.inf}, "time"),
        ({"kind": "throttle", "device": "a", "time": 0.1, "until": math.inf,
          "factor": 2.0}, "until"),
        ({"kind": "throttle", "device": "a", "time": 0.1, "until": 0.2,
          "factor": math.nan}, "factor"),
        ({"kind": "stall", "device": "a", "time": 0.1, "duration": math.nan},
         "duration"),
        ({"kind": "down", "device": ["a"], "time": 0.1}, "device"),
    ], ids=["time-string", "time-null", "time-bool", "time-nan", "time-inf",
            "until-inf", "factor-nan", "duration-nan", "device-list"])
    def test_plan_file_field_rejected(self, tmp_path, event, field):
        with pytest.raises(FaultPlanError, match=rf"event\[0\]: {field} must be"):
            load_fault_plan(write_plan(tmp_path, event))

    def test_cli_plan_with_string_time_exits_2(self, tmp_path, capsys):
        path = write_plan(tmp_path, {"kind": "down", "device": "2080ti",
                                     "time": "0.1"})
        code = main(["serve", "--faults", path, "--arrival-rate", "100",
                     "--n-requests", "50", "--devices", "2080ti,nano"])
        assert code == 2
        assert "event[0]: time must be a finite number" in capsys.readouterr().err


class TestRetryPolicy:
    @pytest.mark.parametrize("field, value", [
        ("backoff_base", math.inf),
        ("backoff_base", math.nan),
        ("backoff_factor", math.nan),
        ("deadline", math.nan),
        ("max_retries", math.nan),
    ])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize("flag", ["--retry-backoff", "--request-deadline"])
    def test_cli_infinite_retry_flag_exits_2(self, flag, capsys):
        code = main(["serve", "--faults", "single-failure", flag, "inf",
                     "--arrival-rate", "1000", "--n-requests", "50",
                     "--devices", "2080ti,nano"])
        assert code == 2
        assert f"{flag} must be positive and finite" in capsys.readouterr().err


class TestArrivalRate:
    def test_poisson_arrivals_rejects_infinite_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            poisson_arrivals(10, math.inf)

    def test_scenario_columns_rejects_bool_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            scenario_columns("uniform", tenants(), 10, arrival_rate=True)

    def test_simulate_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            simulate(affine, FixedBatchPolicy(8), devices=("a",),
                     n_requests=50, arrival_rate=math.nan)

    def test_simulate_mixed_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            simulate_mixed(tenants(), devices=("a",), n_requests=50,
                           arrival_rate=math.nan)

    def test_simulate_fleet_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="arrival_rate"):
            simulate_fleet(tenants(), parse_groups("a:2"), n_requests=50,
                           arrival_rate=math.nan)

    @pytest.mark.parametrize("extra", [[], ["--mix", "uniform"]],
                             ids=["single", "mix"])
    def test_cli_nan_rate_exits_2(self, extra, capsys):
        code = main(["serve", "--arrival-rate", "nan", "--n-requests", "50",
                     *extra])
        assert code == 2
        assert "--arrival-rate must be positive and finite" in (
            capsys.readouterr().err)


class TestRequestStreams:
    """Caller-supplied arrivals are checked where they enter the engine;
    the error names the first bad request by its position."""

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, "0.5", None,
                                     True],
                             ids=["negative", "nan", "inf", "string", "none",
                                  "bool"])
    def test_simulate_mixed_request_list(self, bad):
        requests = [Request(0, 0.0, "x"), Request(1, 0.001, "y"),
                    Request(2, bad, "x"), Request(3, 0.003, "y")]
        with pytest.raises(ValueError, match=r"request arrival \[2\]"):
            simulate_mixed(tenants(), devices=("a",), requests=requests)

    @pytest.mark.parametrize("arrivals, position", [
        ([10**400], 0), ([0.0, 0.5, -(10**400)], 2), ([0.0, 1, 10**400, 2], 2),
    ], ids=["alone", "negative-after-floats", "among-ints"])
    def test_int_too_large_for_float64_is_named(self, arrivals, position):
        # An int past the float64 range cannot be cast; it is not finite.
        with pytest.raises(ValueError, match=rf"request arrival \[{position}\] "
                                             "must be finite"):
            check_arrivals(arrivals)

    def test_plain_numbers_and_other_reals_give_one_column(self):
        from fractions import Fraction

        for arrivals in ([0.0, 1, 2.5], [0.0, np.float64(1.0), Fraction(5, 2)]):
            column = check_arrivals(arrivals)
            assert column.dtype == np.float64
            assert column.tolist() == [0.0, 1.0, 2.5]

    def test_unsorted_request_list_still_sorted(self):
        requests = [Request(0, 0.002, "x"), Request(1, 0.0, "y"),
                    Request(2, 0.001, "x")]
        report = simulate_mixed(tenants(), devices=("a",), requests=requests)
        assert [r.index for r in report.requests] == [1, 2, 0]

    @pytest.mark.parametrize("position", [0, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0],
                             ids=["nan", "inf", "negative"])
    def test_simulate_fleet_columns(self, position, bad):
        arrivals = np.linspace(0.0, 0.01, 6)
        arrivals[position] = bad
        columns = RequestColumns(arrivals, np.array([0, 1, 0, 1, 0, 1]),
                                 ("x", "y"))
        with pytest.raises(ValueError,
                           match=rf"request arrival \[{position}\]"):
            simulate_fleet(tenants(), parse_groups("a:2"), columns=columns)


class TestPolicies:
    def test_adaptive_rejects_nan_slo(self):
        with pytest.raises(ValueError, match="slo"):
            AdaptiveSLOPolicy(math.nan)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf])
    def test_timeout_rejects_non_finite_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            TimeoutBatchPolicy(8, timeout)


FLEET_CLI = ["serve", "--fleet", "--groups", "2080ti:2", "--workloads", "avmnist",
             "--policy", "fixed", "--n-requests", "50", "--arrival-rate", "1000"]


class TestFleetSettings:
    @pytest.mark.parametrize("spec, field", [
        ("queue:nan", "threshold"),
        ("queue:inf", "threshold"),
        ("queue:64:nan", "interval"),
        ("queue:64:inf", "interval"),
        ("queue:64:0.01:nan", "cooldown"),
        ("queue:64:0.01:inf", "cooldown"),
    ])
    def test_parse_autoscale_rejects_non_finite(self, spec, field):
        with pytest.raises(FleetConfigError, match=f"autoscale {field} must be"):
            parse_autoscale(spec)

    @pytest.mark.parametrize("field, value", [
        ("step", 1.5),
        ("step", True),
        ("min_replicas", 1.5),
        ("max_replicas", 2.5),
    ])
    def test_autoscale_counts_must_be_ints(self, field, value):
        with pytest.raises(FleetConfigError, match=f"autoscale {field} must be"):
            AutoscalePolicy(**{field: value})

    @pytest.mark.parametrize("kwargs, field", [
        ({"replicas": 2.5}, "replicas"),
        ({"replicas": True}, "replicas"),
        ({"replicas": 2, "pool": 4.5}, "pool"),
    ])
    def test_device_group_counts_must_be_ints(self, kwargs, field):
        with pytest.raises(FleetConfigError, match=f"{field} must be an integer"):
            DeviceGroup("2080ti", **kwargs)

    @pytest.mark.parametrize("hop_bytes", [math.nan, math.inf])
    def test_simulate_fleet_rejects_non_finite_hop_bytes(self, hop_bytes):
        with pytest.raises(ValueError, match="hop_bytes"):
            simulate_fleet(tenants(), parse_groups("a:2"), n_requests=50,
                           arrival_rate=1000.0, hop_bytes=hop_bytes)

    @pytest.mark.parametrize("field, value", [
        ("slo", math.nan), ("slo", math.inf),
        ("weight", math.nan), ("weight", math.inf),
    ])
    def test_tenant_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"tenant {field}"):
            TenantSpec("x", affine, FixedBatchPolicy(8), **{field: value})

    @pytest.mark.parametrize("extra, message", [
        (["--autoscale", "queue:nan"], "autoscale threshold must be"),
        (["--autoscale", "queue:64:nan"], "autoscale interval must be"),
        (["--hop-bytes", "nan"], "--hop-bytes must be non-negative and finite"),
        (["--hop-bytes", "inf"], "--hop-bytes must be non-negative and finite"),
        (["--slo", "nan"], "--slo must be positive and finite"),
    ], ids=["autoscale-threshold", "autoscale-interval", "hop-nan", "hop-inf",
            "slo-nan"])
    def test_cli_fleet_flag_exits_2(self, extra, message, capsys):
        assert main([*FLEET_CLI, *extra]) == 2
        assert message in capsys.readouterr().err
