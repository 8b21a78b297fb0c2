"""The ``mmbench serve`` subcommand."""

import json

import pytest

from repro.core.cli import main

#: Serve command lines that set a flag their mode never reads, or an SLO
#: no request can meet, with the fragment of the one line they exit 2 with.
MISAPPLIED = {
    "single-negative-slo": (["--slo", "-1"], "--slo must be positive and finite"),
    "single-nan-slo": (["--slo", "nan"], "--slo must be positive and finite"),
    "single-groups": (["--groups", "2080ti:2"],
                      "--groups applies to --fleet only; a single-workload "
                      "serve reads --workload, --fusion, --devices"),
    "single-autoscale": (["--autoscale", "queue:4"],
                         "--autoscale applies to --fleet only"),
    "single-hop-bytes": (["--hop-bytes", "1e6"],
                         "--hop-bytes applies to --fleet only"),
    "single-finetune-workloads": (["--finetune-workloads", "mmimdb"],
                                  "--finetune-workloads applies to --mix only"),
    "mix-groups": (["--mix", "uniform", "--workloads", "avmnist",
                    "--groups", "2080ti:2"],
                   "--groups applies to --fleet only; --mix reads --workloads"),
    "mix-autoscale": (["--mix", "uniform", "--workloads", "avmnist",
                       "--autoscale", "queue:4"],
                      "--autoscale applies to --fleet only; --mix reads"),
    "fleet-devices": (["--fleet", "--groups", "2080ti:2", "--workloads",
                       "avmnist", "--devices", "nano"],
                      "--devices applies to a single-workload serve and --mix "
                      "only; --fleet reads --workloads, --groups"),
    "fleet-finetune-share": (["--fleet", "--groups", "2080ti:2", "--workloads",
                              "avmnist", "--finetune-share", "5"],
                             "--finetune-share applies to --mix only; "
                             "--fleet reads"),
}


@pytest.mark.parametrize("case", sorted(MISAPPLIED))
def test_misapplied_flag_exits_2_naming_flag_and_mode(case, capsys):
    extra, fragment = MISAPPLIED[case]
    code = main(["serve", "--arrival-rate", "1000", "--n-requests", "50",
                 "--policy", "fixed", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and fragment in err
    assert "Traceback" not in err


#: Policy flags no policy can take, with the fragment of the one line they
#: exit 2 with: every policy's constructor checks its flags, listed or not.
BAD_POLICY_FLAGS = {
    "adaptive-batch-size-0": (["--policy", "adaptive", "--batch-size", "0"],
                              "batch_size must be positive"),
    "adaptive-negative-timeout": (["--policy", "adaptive", "--timeout", "-5"],
                                  "timeout must be non-negative and finite"),
    "adaptive-nan-timeout": (["--policy", "adaptive", "--timeout", "nan"],
                             "timeout must be non-negative and finite"),
    "fixed-max-batch-0": (["--policy", "fixed", "--max-batch", "0"],
                          "max_batch must be positive"),
}


@pytest.mark.parametrize("case", sorted(BAD_POLICY_FLAGS))
def test_bad_policy_flag_exits_2_whichever_policy_is_listed(case, capsys):
    extra, fragment = BAD_POLICY_FLAGS[case]
    code = main(["serve", "--arrival-rate", "500", "--n-requests", "100", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and fragment in err
    assert "Traceback" not in err


def test_zero_timeout_stays_valid(capsys):
    assert main(["serve", "--arrival-rate", "500", "--n-requests", "100",
                 "--policy", "adaptive", "--timeout", "0"]) == 0


class TestServeCommand:
    def test_reports_two_policies_on_two_devices(self, capsys):
        code = main([
            "serve", "--workload", "avmnist", "--arrival-rate", "2000",
            "--n-requests", "400", "--policy", "fixed,adaptive",
            "--devices", "2080ti,nano", "--slo", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Throughput, p50/p99 latency and chosen batch sizes per policy.
        assert "throughput" in out and "p50 latency" in out and "p99 latency" in out
        assert "batch sizes" in out
        assert "fixed(40)" in out and "adaptive(slo=0.05s)" in out
        # Both device models appear in the routing breakdown.
        assert "2080ti" in out and "nano" in out

    def test_closed_batch_default(self, capsys):
        code = main(["serve", "--n-requests", "400", "--policy", "fixed",
                     "--devices", "2080ti"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed batch" in out

    def test_timeout_policy(self, capsys):
        code = main([
            "serve", "--n-requests", "300", "--arrival-rate", "1000",
            "--policy", "timeout", "--batch-size", "16", "--timeout", "0.002",
            "--devices", "2080ti",
        ])
        assert code == 0
        assert "timeout(16,0.002s)" in capsys.readouterr().out

    def test_unknown_policy_fails_cleanly(self, capsys):
        code = main(["serve", "--policy", "belady"])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err


class TestServeMixCommand:
    def test_mixed_run_reports_per_tenant(self, capsys):
        code = main([
            "serve", "--mix", "heavy-head", "--arrival-rate", "2000",
            "--n-requests", "600", "--workloads", "avmnist,mmimdb,transfuser",
            "--devices", "2080ti,orin,nano", "--policy", "adaptive",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mix=heavy-head" in out
        assert "Per-tenant latency / SLO breakdown" in out
        for tenant in ("avmnist", "mmimdb", "transfuser"):
            assert tenant in out
        assert "attainment" in out
        # All three device models show up in the routing breakdown.
        assert "orin" in out and "nano" in out

    def test_mix_defaults_to_all_workloads(self, capsys):
        code = main(["serve", "--mix", "uniform", "--arrival-rate", "3000",
                     "--n-requests", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "9 tenants" in out

    def test_unknown_mix_fails_cleanly(self, capsys):
        code = main(["serve", "--mix", "flat"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_time_varying_mix_requires_rate(self, capsys):
        code = main(["serve", "--mix", "bursty", "--n-requests", "100"])
        assert code == 2
        assert "--arrival-rate" in capsys.readouterr().err

    def test_mix_runs_every_listed_policy(self, capsys):
        code = main(["serve", "--mix", "uniform", "--arrival-rate", "2000",
                     "--n-requests", "200", "--workloads", "avmnist",
                     "--policy", "fixed,adaptive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy=fixed" in out and "policy=adaptive" in out
        assert out.count("Per-tenant latency / SLO breakdown") == 2

    def test_mix_rejects_duplicate_workloads_cleanly(self, capsys):
        code = main(["serve", "--mix", "uniform", "--arrival-rate", "100",
                     "--workloads", "avmnist,avmnist"])
        assert code == 2
        assert "duplicate workloads" in capsys.readouterr().err

    def test_workloads_flag_requires_mix(self, capsys):
        code = main(["serve", "--workloads", "avmnist,mmimdb",
                     "--arrival-rate", "100"])
        assert code == 2
        assert "--mix" in capsys.readouterr().err

    def test_mix_rejects_explicit_workload_flag(self, capsys):
        code = main(["serve", "--mix", "uniform", "--arrival-rate", "100",
                     "--workload", "mmimdb"])
        assert code == 2
        assert "--workloads" in capsys.readouterr().err

    def test_mix_rejects_bad_slo_cleanly(self, capsys):
        code = main(["serve", "--mix", "uniform", "--arrival-rate", "100",
                     "--policy", "fixed", "--slo", "-1"])
        assert code == 2
        assert "--slo must be positive" in capsys.readouterr().err


class TestServeFaults:
    def test_chaos_scenario_end_to_end(self, capsys):
        code = main([
            "serve", "--mix", "heavy-head", "--workloads", "avmnist,mmimdb",
            "--faults", "single-failure", "--arrival-rate", "2000",
            "--n-requests", "600", "--policy", "adaptive",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "issued (conserved)" in out
        assert "Per-device fault windows" in out
        assert "Per-tenant shedding / degraded mode" in out

    def test_single_workload_path_takes_faults(self, capsys):
        code = main([
            "serve", "--workload", "avmnist", "--faults", "thermal-brownout",
            "--arrival-rate", "2000", "--n-requests", "400",
            "--policy", "fixed", "--devices", "2080ti,nano",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "issued (conserved)" in out
        assert "throttled" in out

    def test_plan_json_file(self, capsys, tmp_path):
        plan = {"events": [
            {"kind": "down", "device": "nano", "time": 0.01},
            {"kind": "recover", "device": "nano", "time": 0.05},
        ]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code = main([
            "serve", "--workload", "avmnist", "--faults", str(path),
            "--arrival-rate", "2000", "--n-requests", "400",
            "--policy", "fixed", "--devices", "2080ti,nano",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "issued (conserved)" in out

    def test_bogus_faults_value_fails_cleanly(self, capsys):
        code = main(["serve", "--faults", "bogus", "--arrival-rate", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "single-failure" in err and "'bogus'" in err

    def test_chaos_scenario_requires_rate(self, capsys):
        code = main(["serve", "--faults", "single-failure",
                     "--n-requests", "100"])
        assert code == 2
        assert "--arrival-rate" in capsys.readouterr().err

    def test_plan_naming_unknown_device_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"events": [
            {"kind": "down", "device": "xeon", "time": 0.01}]}))
        code = main(["serve", "--faults", str(path),
                     "--arrival-rate", "100", "--devices", "2080ti,nano"])
        assert code == 2
        assert "unknown device 'xeon'" in capsys.readouterr().err

    def test_request_deadline_sheds(self, capsys):
        code = main([
            "serve", "--workload", "avmnist", "--request-deadline", "0.004",
            "--arrival-rate", "20000", "--n-requests", "600",
            "--policy", "fixed", "--devices", "nano",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "issued (conserved)" in out

    def test_bad_retry_flags_fail_cleanly(self, capsys):
        code = main(["serve", "--retry-max", "-1", "--arrival-rate", "100"])
        assert code == 2
        assert "--retry-max" in capsys.readouterr().err
        code = main(["serve", "--request-deadline", "0",
                     "--arrival-rate", "100"])
        assert code == 2
        assert "--request-deadline" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_degrade_after_fails_cleanly(self, value, capsys):
        # Neither is a wait a queue can pass; both must fail before the run.
        code = main(["serve", "--mix", "uniform", "--workloads", "avmnist,mmimdb",
                     "--arrival-rate", "1000", "--n-requests", "50",
                     "--policy", "fixed", "--degrade-after", value])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"--degrade-after must be positive and finite, got {value}\n"

    def test_degrade_after_rejected_on_single_path(self, capsys):
        code = main(["serve", "--workload", "avmnist", "--degrade-after",
                     "0.1", "--arrival-rate", "100"])
        assert code == 2
        assert "--degrade-after" in capsys.readouterr().err

    def test_empty_devices_component_fails_cleanly(self, capsys):
        code = main(["serve", "--devices", "2080ti,,nano",
                     "--arrival-rate", "100"])
        assert code == 2
        assert "--devices" in capsys.readouterr().err


class TestServeFleetCommand:
    def test_fleet_run_reports_groups_and_conservation(self, capsys):
        code = main([
            "serve", "--fleet", "--groups", "2080ti:4,nano:2",
            "--workloads", "avmnist,mmimdb", "--policy", "adaptive",
            "--n-requests", "2000", "--arrival-rate", "3000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet mix=" in out
        assert "issued (conserved)" in out
        assert "Per-group fleet breakdown" in out
        assert "2080ti" in out and "nano" in out

    def test_fleet_autoscale_flags(self, capsys):
        code = main([
            "serve", "--fleet", "--groups", "2080ti:1:6",
            "--workloads", "transfuser", "--policy", "fixed",
            "--batch-size", "8", "--n-requests", "3000",
            "--arrival-rate", "6000", "--autoscale", "queue:16:0.02:0.04",
            "--autoscale-max", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "autoscaling:" in out

    def test_fleet_chaos_scenario(self, capsys):
        code = main([
            "serve", "--fleet", "--groups", "2080ti:2,nano:2",
            "--workloads", "avmnist", "--policy", "fixed", "--batch-size", "8",
            "--n-requests", "2000", "--arrival-rate", "1500",
            "--faults", "single-failure",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "issued (conserved)" in out

    def test_fleet_requires_groups(self, capsys):
        code = main(["serve", "--fleet", "--workloads", "avmnist",
                     "--n-requests", "100"])
        assert code == 2
        assert "--groups" in capsys.readouterr().err

    def test_fleet_rejects_bad_group_spec(self, capsys):
        code = main(["serve", "--fleet", "--groups", "2080ti",
                     "--workloads", "avmnist", "--n-requests", "100"])
        assert code == 2
        assert "bad group spec" in capsys.readouterr().err

    def test_fleet_rejects_duplicate_group_device(self, capsys):
        code = main(["serve", "--fleet", "--groups", "2080ti:2,2080ti:3",
                     "--n-requests", "200"])
        err = capsys.readouterr().err
        assert code == 2
        assert "duplicate group device '2080ti'" in err
        assert "Traceback" not in err

    def test_fleet_rejects_bad_autoscale_spec(self, capsys):
        code = main(["serve", "--fleet", "--groups", "2080ti:2",
                     "--workloads", "avmnist", "--n-requests", "100",
                     "--arrival-rate", "500", "--autoscale", "cpu:10"])
        assert code == 2
        assert "autoscale" in capsys.readouterr().err

    def test_fleet_runs_stall_scenarios(self, capsys):
        code = main(["serve", "--fleet", "--groups", "2080ti:2,nano:2",
                     "--workloads", "avmnist", "--n-requests", "400",
                     "--arrival-rate", "500", "--faults", "flaky-device",
                     "--retry-max", "5", "--request-deadline", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shed = 400 issued (conserved)" in out
        assert "stalled" in out and "Per-device fault windows" in out

    def test_fleet_runs_round_robin_router(self, capsys):
        code = main(["serve", "--fleet", "--groups", "2080ti:2,nano:2",
                     "--workloads", "avmnist", "--n-requests", "400",
                     "--arrival-rate", "2000", "--policy", "fixed",
                     "--router", "round-robin"])
        out = capsys.readouterr().out
        assert code == 0
        # Round-robin rotates through the groups regardless of speed, so
        # the slow group serves a large share (earliest-finish sends it
        # under a tenth of this stream).
        requests = {cells[0]: int(cells[4]) for cells in (
            [c.strip() for c in line.split("|")] for line in out.splitlines())
            if cells[0] in ("2080ti", "nano")}
        assert requests["nano"] > 100 and sum(requests.values()) == 400

    def test_fleet_rejects_bad_retry_flags(self, capsys):
        code = main(["serve", "--fleet", "--groups", "2080ti:2,nano:2",
                     "--workloads", "avmnist", "--faults", "single-failure",
                     "--arrival-rate", "1500", "--n-requests", "2000",
                     "--retry-max", "-1", "--retry-backoff", "nan"])
        assert code == 2
        assert capsys.readouterr().err == (
            "--retry-max must be non-negative, got -1\n")
