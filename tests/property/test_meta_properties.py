"""Property-based differential: meta shape/dtype inference against numpy.

The meta == eager differential (``tests/trace/test_meta_backend.py``)
only sees the shapes the nine workloads produce. These properties draw
shapes, operand kinds and basic indices at random and require the
shape-only :class:`MetaArray` to give numpy's own answer on ``np.zeros``
operands: a ufunc's broadcast shape and result dtype (or numpy's
``ValueError`` when the shapes do not broadcast), called directly and
through the operator dunders, and the shape of a basic-indexing view.
Each is asked twice: the first call fills a memo (the ufunc result
dtypes, the view shapes) and the repeat is answered from it.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import backend
from repro.nn.backend import MetaArray, meta_array

UFUNCS = (np.add, np.multiply, np.true_divide, np.greater, np.maximum, np.exp)
#: The operator spelling of each ufunc that has one (``x > m`` with a
#: scalar ``x`` reaches the meta operand reflected, as ``m < x``).
OPERATORS = {np.add: operator.add, np.multiply: operator.mul,
             np.true_divide: operator.truediv, np.greater: operator.gt}
DTYPES = ("float32", "float64", "int64", "bool")
SCALARS = st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.booleans())

shapes = st.lists(st.integers(0, 3), max_size=4).map(tuple)


@st.composite
def shape_pairs(draw):
    """Two shapes: often broadcast-compatible, sometimes not."""
    a = draw(shapes)
    if draw(st.booleans()):
        return a, draw(shapes)  # independent: may not broadcast
    # Compatible: drop leading axes and set some of the rest to 1.
    tail = a[draw(st.integers(0, len(a))):]
    b = tuple(1 if draw(st.booleans()) else d for d in tail)
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def operands(draw, shape, kind):
    """``(operand for the meta call, operand for the numpy call)``."""
    if kind == "scalar":
        value = draw(SCALARS)
        return value, value
    dtype = draw(st.sampled_from(DTYPES))
    if kind == "numpy scalar":
        value = np.array(draw(SCALARS)).astype(dtype)[()]
        return value, value
    real = np.zeros(shape, dtype)
    return (meta_array(shape, dtype) if kind == "meta" else real), real


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ufunc_shape_and_dtype_match_numpy(data):
    ufunc = data.draw(st.sampled_from(UFUNCS), label="ufunc")
    if ufunc.nin == 1:
        pairs = [data.draw(operands(data.draw(shapes), "meta"))]
    else:
        kinds = data.draw(st.sampled_from(
            [("meta", "meta"), ("meta", "array"), ("array", "meta"),
             ("meta", "scalar"), ("scalar", "meta"),
             ("meta", "numpy scalar"), ("numpy scalar", "meta")]),
            label="kinds")
        pair = data.draw(shape_pairs(), label="shapes")
        pairs = [data.draw(operands(s, k)) for s, k in zip(pair, kinds)]
    meta_args = [m for m, _ in pairs]
    real_args = [r for _, r in pairs]

    with np.errstate(all="ignore"):
        try:
            expected = ufunc(*real_args)
        except ValueError:
            expected = None
    calls = [ufunc] + ([OPERATORS[ufunc]] if ufunc in OPERATORS else [])
    for call in calls:
        backend._UFUNC_DTYPES.clear()
        for _ in ("fill", "memo hit"):
            if expected is None:
                with pytest.raises(ValueError):
                    call(*meta_args)
                continue
            got = call(*meta_args)
            assert isinstance(got, MetaArray)
            assert got.shape == np.shape(expected)
            assert got.dtype == expected.dtype
            assert got.size == np.size(expected)
            assert len(backend._UFUNC_DTYPES) == 1


@st.composite
def basic_indices(draw):
    """Ints, slices (negative steps too), ``None`` and one ``Ellipsis``."""
    bound = st.one_of(st.none(), st.integers(-5, 5))
    item = st.one_of(
        st.integers(-4, 4),
        st.builds(slice, bound, bound,
                  st.one_of(st.none(), st.sampled_from([-3, -2, -1, 1, 2, 3]))),
        st.none(),
    )
    items = draw(st.lists(item, max_size=5))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), Ellipsis)
    if len(items) == 1 and draw(st.booleans()):
        return items[0]  # a bare (non-tuple) index
    return tuple(items)


def _outcome(fn):
    try:
        return fn().shape
    except (IndexError, ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(shapes, basic_indices())
def test_basic_indexing_matches_numpy_first_and_repeat(shape, index):
    expected = _outcome(lambda: np.empty(shape)[index])
    meta = meta_array(shape, np.float64)
    backend._VIEWS.clear()
    first = _outcome(lambda: meta[index])
    if not isinstance(expected, type):
        assert len(backend._VIEWS) == 1  # the repeat below is a memo hit
    repeat = _outcome(lambda: meta[index])
    assert first == expected
    assert repeat == expected
