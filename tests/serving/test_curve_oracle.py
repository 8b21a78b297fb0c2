"""The one batch-latency curve against its scalar oracle.

Every anchored cost model answers from one dense table built by
:func:`repro.serving.costmodel.interpolate`. Random anchor sets and
anchor times (drawn unsorted, so superlinear pairs reach the
proportional floor below the first anchor and falling pairs extrapolate
downward past the last) must give exactly the values of
``tests/serving/curve_oracle.py``'s scalar ``_interp_affine`` — through
the function itself, through ``curve()`` and through ``latency()``,
inside the table and past it.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.profiling.profiler import price_stored
from repro.serving import TraceCostModel
from repro.serving.costmodel import AnchoredCostModel, interpolate
from repro.trace.store import TraceStore
from tests.serving.curve_oracle import _interp_affine

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "execution_graphs"


class DrawnCostModel(AnchoredCostModel):
    """Anchor times supplied by the test instead of priced."""

    def __init__(self, anchors, times):
        super().__init__(anchors)
        self.times = np.array(times, dtype=np.float64)

    def _price_anchors(self, device):
        return self.times


@st.composite
def anchored_curves(draw):
    anchors = sorted(draw(st.sets(st.integers(1, 1024), min_size=1, max_size=6)))
    times = draw(st.lists(st.floats(1e-7, 1.0), min_size=len(anchors),
                          max_size=len(anchors)))
    return anchors, times


@settings(max_examples=200, deadline=None, derandomize=True)
@given(anchored_curves())
def test_one_curve_equals_the_scalar_oracle(curve):
    anchors, times = curve
    anchor_arr = np.array(anchors, dtype=np.float64)
    time_arr = np.array(times, dtype=np.float64)
    ks = list(range(1, 2 * anchors[-1] + 2))
    expected = [_interp_affine(k, anchor_arr, time_arr) for k in ks]

    dense = interpolate(np.array(ks, dtype=np.float64), anchor_arr, time_arr)
    assert dense.tolist() == expected

    cost = DrawnCostModel(anchors, times)
    assert list(cost.curve("2080ti")) == expected[:anchors[-1]]
    assert [cost.latency("2080ti", k) for k in ks] == expected
    assert cost.anchor_times("2080ti") is cost.times


@pytest.mark.parametrize("device", ["2080ti", "nano"])
def test_trace_cost_model_anchors_are_the_pricer(device):
    stored = TraceStore().get_or_ingest(FIXTURES / "transformer_train.json")
    assert stored.batch_size == 2
    cost = TraceCostModel(stored)
    for k in cost.anchors:
        [report] = price_stored(stored, [device], work=k / 2)
        assert cost.latency(device, k) == max(report.total_time, 1e-12)
