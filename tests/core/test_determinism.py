"""The same command with the same seed prints the same bytes.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so any
iteration over a set or a hash-ordered structure that leaks into output
would differ between two processes. Each seed below runs in a fresh
interpreter that calls ``repro.core.cli.main`` for three commands — a
faulted multi-tenant serve, an autoscaled faulted fleet serve, and a
characterization report — and the captured stdout must be byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

COMMANDS = [
    ["serve", "--mix", "heavy-head", "--workloads", "avmnist,mmimdb,transfuser",
     "--devices", "2080ti,orin,nano", "--faults", "single-failure",
     "--arrival-rate", "2000", "--n-requests", "1000", "--policy", "adaptive"],
    ["serve", "--fleet", "--groups", "2080ti:1:4,nano:2", "--mix", "heavy-head",
     "--workloads", "avmnist,mmimdb", "--faults", "single-failure",
     "--autoscale", "queue:16:0.02:0.04", "--arrival-rate", "3000",
     "--n-requests", "2000", "--policy", "adaptive"],
    ["report", "--workload", "avmnist"],
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
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300,
                            check=True)
    return result.stdout


def test_output_is_byte_identical_across_hash_seeds():
    first, second = run_with_hash_seed(0), run_with_hash_seed(1)
    assert first.count("exit 0") == len(COMMANDS), first[-2000:]
    assert "issued (conserved)" in first and "autoscaling:" in first
    assert first == second
