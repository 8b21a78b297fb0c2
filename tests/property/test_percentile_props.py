"""The serving reports' one-pass percentiles equal ``np.percentile``.

Every report's per-tenant p50/p95/p99 come from
:func:`repro.serving.fleet._percentiles`, which sorts each tenant's
latencies and applies numpy's linear method to all tenants at once. It
must reproduce ``np.percentile(segment, [50, 95, 99])`` bit for bit:
segments of one and two values, ties, constant segments and every
interpolation weight on both sides of 0.5.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.fleet import _percentiles


@st.composite
def segment(draw) -> np.ndarray:
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 2_000)))
    kind = draw(st.sampled_from(["spread", "ties", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "spread":
        return rng.exponential(0.01, n)
    if kind == "ties":
        return rng.integers(0, 4, n) * 0.0125
    return np.full(n, rng.exponential(0.01))


def expected(segments: list[np.ndarray]) -> np.ndarray:
    return np.array([np.percentile(s, [50, 95, 99]) for s in segments])


@settings(max_examples=60, deadline=None)
@given(st.lists(segment(), min_size=1, max_size=12))
def test_percentiles_match_numpy_bit_for_bit(segments):
    got = np.array(_percentiles(segments))
    assert got.shape == (len(segments), 3)
    assert np.array_equal(got.view(np.int64), expected(segments).view(np.int64))


def test_every_small_size_matches_numpy():
    """n = 1..300 covers every virtual-index fraction those sizes produce,
    including the clamp at the last element."""
    rng = np.random.default_rng(0)
    segments = [rng.exponential(0.01, n) for n in range(1, 301)]
    got = np.array(_percentiles(segments))
    assert np.array_equal(got.view(np.int64), expected(segments).view(np.int64))


def test_segments_are_not_modified():
    segment = np.array([3.0, 1.0, 2.0])
    _percentiles([segment])
    assert segment.tolist() == [3.0, 1.0, 2.0]
    assert _percentiles([]) == []
