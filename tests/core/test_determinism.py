"""The same command with the same seed prints the same bytes.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so any
iteration over a set or a hash-ordered structure that leaks into output
would differ between two processes. Each seed below runs in a fresh
interpreter that calls ``repro.core.cli.main`` for four commands — a
faulted multi-tenant serve, an autoscaled faulted fleet serve, a
characterization report, and an ingested graph's batch sweep served
adaptively — and the captured stdout must be byte-identical.
It must also equal the committed ``tests/fixtures/determinism_stdout.txt``,
which pins these bytes from one commit to the next: a change that means
to move this output re-records that file (the seed-0 stdout) and says so.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "determinism_stdout.txt"

COMMANDS = [
    ["serve", "--mix", "heavy-head", "--workloads", "avmnist,mmimdb,transfuser",
     "--devices", "2080ti,orin,nano", "--faults", "single-failure",
     "--arrival-rate", "2000", "--n-requests", "1000", "--policy", "adaptive"],
    ["serve", "--fleet", "--groups", "2080ti:1:4,nano:2", "--mix", "heavy-head",
     "--workloads", "avmnist,mmimdb", "--faults", "single-failure",
     "--autoscale", "queue:16:0.02:0.04", "--arrival-rate", "3000",
     "--n-requests", "2000", "--policy", "adaptive"],
    ["report", "--workload", "avmnist"],
    ["ingest", "tests/fixtures/execution_graphs/cnn_forward.json", "--sweep",
     "1,3,8,32,100", "--devices", "2080ti,nano", "--serve", "--arrival-rate",
     "200000", "--n-requests", "5000", "--policy", "adaptive"],
]

SCRIPT = f"""
import sys
from repro.core.cli import main
for argv in {COMMANDS!r}:
    print("$ mmbench", " ".join(argv))
    code = main(argv)
    print("exit", code)
"""


def run_with_hash_seed(seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("MMBENCH_CACHE_DIR", None)
    # From the repo root, so the ingest command's relative graph path resolves.
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300,
                            check=True)
    return result.stdout


def test_output_is_byte_identical_across_hash_seeds():
    first, second = run_with_hash_seed(0), run_with_hash_seed(1)
    assert first.count("exit 0") == len(COMMANDS), first[-2000:]
    assert "issued (conserved)" in first and "autoscaling:" in first
    assert first == second
    assert first == GOLDEN.read_text()
