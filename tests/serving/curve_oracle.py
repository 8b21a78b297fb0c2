"""The scalar batch-latency interpolation: the one curve's oracle.

:func:`_interp_affine` is the per-query interpolation the cost models
answered ``latency`` with before every curve became one dense table
built by :func:`repro.serving.costmodel.interpolate`. Keep it frozen: it
is a specification, not shared code. ``test_curve_oracle.py`` requires
the production function, and a cost model's ``curve()`` and
``latency()``, to equal it exactly.
"""

from __future__ import annotations

import numpy as np


def _interp_affine(k: float, anchors: np.ndarray, times: np.ndarray) -> float:
    """Piecewise-linear between anchors; affine extrapolation beyond both ends.

    Below the first anchor the curve follows the first segment's slope
    (mirroring the above-last-anchor path) — ``np.interp`` would flat-clamp
    there, silently overpricing small batches under non-default anchor sets
    like ``(8, 32, 128)``. Affine latency keeps a positive launch-overhead
    intercept; should an anomalous (superlinear) anchor pair extrapolate
    through zero, the result is floored at proportional cost
    (``times[0] * k / anchors[0]``), which is always positive.
    """
    if len(anchors) > 1:
        if k > anchors[-1]:
            slope = (times[-1] - times[-2]) / (anchors[-1] - anchors[-2])
            return float(times[-1] + slope * (k - anchors[-1]))
        if k < anchors[0]:
            slope = (times[1] - times[0]) / (anchors[1] - anchors[0])
            value = times[0] - slope * (anchors[0] - k)
            return float(max(value, times[0] * k / anchors[0]))
    return float(np.interp(k, anchors, times))
