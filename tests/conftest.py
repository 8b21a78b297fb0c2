"""Shared fixtures."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def model_builds(monkeypatch) -> list[str]:
    """Names of the workloads whose models are built while the test runs.

    Counts every ``WorkloadInfo.build`` / ``build_unimodal`` call, so a
    test can pin how many RNG-initialized models a path constructs.
    """
    from repro.workloads.registry import WorkloadInfo

    builds: list[str] = []
    for name in ("build", "build_unimodal"):
        original = getattr(WorkloadInfo, name)

        def counted(self, *args, _original=original, **kwargs):
            builds.append(self.name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(WorkloadInfo, name, counted)
    return builds


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. array ``x``.

    Mutates ``x`` in place during probing and restores it. Used by the
    autograd correctness tests.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad
