"""One runner for the ``benchmarks/bench_*.py`` scripts.

Each script hands :func:`run` a body that returns ``(payload, gates)``:
the payload is what it measured, each gate an ``(ok, message)`` pair.
:func:`run` times the body, stamps the result with the commit, the
source digest and the machine, writes ``BENCH_<name>.json`` (or ``-o``),
prints one ``FAIL: <message>`` line per failed gate and returns exit code
1 if any gate failed, else 0. Sizes and gate bounds are each script's
module constants, so ``-o`` is the only option.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

Gate = tuple[bool, str]


def best_of(n: int, fn: Callable[[], Any]) -> tuple[float, Any]:
    """(minimum wall seconds, last result) over ``n`` calls of ``fn``."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp() -> dict[str, Any]:
    """Where a snapshot came from. ``code_digest`` hashes the program and
    bench sources, so it names the code even when the tree holds
    uncommitted changes (``git_sha`` then names only their parent)."""
    import numpy

    digest = hashlib.sha256()
    for root in (ROOT / "src", ROOT / "benchmarks"):
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0"
                          + path.read_bytes())
    return {"git_sha": _git_sha(), "code_digest": digest.hexdigest()[:16],
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run(name: str, body: Callable[[], tuple[dict, list[Gate]]],
        budget_s: float | None = None, argv: list[str] | None = None) -> int:
    """Run one benchmark body, write its stamped snapshot and judge its
    gates; ``budget_s`` adds one gate on the whole body's wall time."""
    parser = argparse.ArgumentParser(prog=f"bench_{name}.py")
    parser.add_argument("-o", "--output", default=f"BENCH_{name}.json")
    args = parser.parse_args(argv)

    total_s, (payload, gates) = best_of(1, body)
    if budget_s is not None:
        gates.append((total_s <= budget_s,
                      f"benchmark took {total_s:.1f} s (budget {budget_s:.0f} s)"))
    snapshot = {"bench": name, **payload, "total_seconds": round(total_s, 3),
                "stamp": stamp()}
    Path(args.output).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.output} (total {total_s:.1f} s)")

    failed = [message for ok, message in gates if not ok]
    for message in failed:
        print(f"FAIL: {message}")
    return 1 if failed else 0
