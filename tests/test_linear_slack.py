"""The slack of the reduced set's linear rows, A x - b as one vector,
against slack_value, the overflow-safe slack of one row, row by row."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from robustmolp.model import RobustFeasibleSet  # noqa: E402
from robustmolp.numerics import slack_value  # noqa: E402

ENTRIES = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300, 0.0]),
)


@st.composite
def systems(draw):
    """Rows [a | b] and a point x, with 1e300 entries among small ones."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    row = st.lists(ENTRIES, min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=k, max_size=k))
    return np.array(rows), np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))


@given(systems())
@settings(max_examples=300, deadline=None)
def test_array_slack_is_slack_value_row_by_row(system):
    rows, x = system
    n = x.size
    s = RobustFeasibleSet(n, rows, np.arange(len(rows))).slack(x)
    assert not np.isnan(s).any()
    for row, v in zip(rows, s):
        want = slack_value(row[:n], x, row[n])
        if math.isfinite(v) and math.isfinite(want):
            # one matrix product against one dot product per row: the two
            # sum in different orders, so they agree to rounding
            with np.errstate(over="ignore"):
                scale = float(np.abs(row[:n]) @ np.abs(x)) + abs(row[n])
            assert abs(float(v) - float(want)) <= 4 * (n + 1) * np.finfo(float).eps * scale
        else:
            # an entry that overflows is slack_value's exact sum, sign and all
            assert v == want
