"""The one runner behind ``benchmarks/bench_*.py``: it writes a stamped
snapshot, prints one ``FAIL:`` line per failed gate and exits 1 when any
gate failed."""

import json
import time

from benchmarks.harness import best_of, run

STAMP_FIELDS = {"git_sha", "code_digest", "machine", "nproc", "python", "numpy"}


def _fail_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL:")]


def test_failed_gates_print_one_line_each_and_exit_1(tmp_path, capsys):
    out = tmp_path / "BENCH_fake.json"

    def body():
        time.sleep(0.005)  # past the 1 ms budget
        return {"n": 3, "nested": {"x": 1.5}}, [(True, "passing gate"),
                                                (False, "failing gate")]

    assert run("fake", body, budget_s=0.001, argv=["-o", str(out)]) == 1
    fails = _fail_lines(capsys)
    assert len(fails) == 2
    assert fails[0] == "FAIL: failing gate"
    assert fails[1].startswith("FAIL: benchmark took") and "budget" in fails[1]

    snapshot = json.loads(out.read_text())
    assert snapshot["bench"] == "fake"
    assert snapshot["n"] == 3 and snapshot["nested"] == {"x": 1.5}
    assert snapshot["total_seconds"] >= 0.0
    assert set(snapshot["stamp"]) == STAMP_FIELDS
    assert snapshot["stamp"]["nproc"] >= 1
    assert len(snapshot["stamp"]["code_digest"]) == 16


def test_passing_gates_exit_0(tmp_path, capsys):
    out = tmp_path / "snapshot.json"

    def body():
        return {"n": 1}, [(True, "ok")]

    assert run("fake", body, budget_s=60.0, argv=["-o", str(out)]) == 0
    assert _fail_lines(capsys) == []
    assert json.loads(out.read_text())["n"] == 1


def test_best_of_keeps_the_minimum_and_the_last_result():
    calls = []
    seconds, last = best_of(3, lambda: calls.append(None) or len(calls))
    assert last == 3 and len(calls) == 3
    assert seconds >= 0.0
