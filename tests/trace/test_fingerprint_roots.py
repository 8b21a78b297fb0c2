"""Every source file whose code a capture runs is hashed into the store key.

``code_fingerprint()`` keys every stored trace on the text of the files
that decide its events. A file the capture path runs but the fingerprint
skips lets an edit to it serve a stale trace from a warm store, so this
test runs one meta inference and one meta training capture per workload
under ``sys.setprofile`` and requires every ``src/repro`` file whose
functions ran to be a fingerprint root, or exempt with a reason.
"""

import sys
from pathlib import Path

import repro
import repro.core.train  # noqa: F401  (the capture path, imported before profiling)
import repro.nn.optim  # noqa: F401
import repro.profiling.training  # noqa: F401
from repro.trace.store import TraceStore, fingerprint_roots
from repro.workloads.registry import list_workloads

PACKAGE = Path(repro.__file__).resolve().parent

#: Files a capture runs that cannot change its events, with the reason.
EXEMPT = {
    # Draws weight values only; every event is derived from shapes.
    "nn/init.py": "weight values only",
}


def _files_run_by_captures() -> set[str]:
    ran: set[str] = set()

    def profile(frame, event, arg):
        # Function calls only: a module body (an import) decides nothing.
        if event == "call" and frame.f_code.co_name != "<module>":
            ran.add(frame.f_code.co_filename)

    store = TraceStore()
    sys.setprofile(profile)
    try:
        for workload in list_workloads():
            store.get_or_capture(workload, batch_size=2, seed=0, backend="meta")
            store.get_or_capture_training(workload, batch_size=2, seed=0, backend="meta")
    finally:
        sys.setprofile(None)
    paths = (Path(f).resolve() for f in ran)
    return {p.relative_to(PACKAGE).as_posix() for p in paths if p.is_relative_to(PACKAGE)}


def test_every_file_a_capture_runs_is_a_fingerprint_root():
    roots = {p.resolve().relative_to(PACKAGE).as_posix() for p in fingerprint_roots()}
    ran = _files_run_by_captures()
    assert "nn/functional.py" in ran and "nn/ops.py" in ran
    assert sorted(ran - roots - set(EXEMPT)) == []
