"""The Lawson-Hanson solve's triangular solves against their reference forms.

`numerics._nnls` carries L^-1 h_F beside the Cholesky factor L of G_FF and
back-substitutes with an explicit loop.  Both must give the bits of the
forms they replace: the back-substitution those of a `sum` over a
generator, and the carried vector those of a forward solve of h_F by the
current factor, after every column that enters and every step back.
"""

import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from robustmolp import numerics  # noqa: E402

ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
DIAGONAL = st.floats(1e-3, 1e3)


def reference_backward(L, y):
    """z with L^T z = y, each row's sum taken by `sum` over a generator."""
    z = y[:]
    for r in range(len(z) - 1, -1, -1):
        z[r] = (z[r] - sum(L[c][r] * z[c] for c in range(r + 1, len(z)))) / L[r][r]
    return z


@st.composite
def triangles(draw):
    """The rows of a lower triangle with a positive diagonal, and a vector."""
    n = draw(st.integers(1, 8))
    L = [draw(st.lists(ENTRIES, min_size=r, max_size=r)) + [draw(DIAGONAL)]
         for r in range(n)]
    return L, draw(st.lists(ENTRIES, min_size=n, max_size=n))


def _hex(v):
    return [float(t).hex() for t in v]


# from Python 3.12 on, `sum` of floats is compensated (Neumaier), so the
# reference form rounds differently from a plain running sum there
@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum of floats is compensated")
@given(triangles())
@settings(max_examples=300, deadline=None)
def test_backward_is_the_sum_over_a_generator_bit_for_bit(system):
    L, y = system
    assert _hex(numerics._backward(L, y)) == _hex(reference_backward(L, y))


@st.composite
def point_sets(draw):
    """The least-squares system E u ~ e_{k+1}, E = [[P, R], [1^T, 0]], that
    min_norm_point solves for points P and rays R, small integers and floats."""
    k = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-5, 5).map(float), ENTRIES)
    vector = st.lists(entry, min_size=k, max_size=k)
    P = np.array(draw(st.lists(vector, min_size=1, max_size=7))).T
    R = np.array(draw(st.lists(vector, min_size=0, max_size=4))).reshape(-1, k).T
    E = np.vstack([np.hstack([P, R]), np.hstack([np.ones(P.shape[1]), np.zeros(R.shape[1])])])
    return E, np.eye(k + 1)[k]


@given(point_sets())
@settings(max_examples=300, deadline=None)
def test_carried_vector_is_the_forward_solve_of_the_free_gradient(system):
    # each inner solve back-substitutes the carried vector: at that moment
    # it must be, bit for bit, the forward solve of h_F by the current factor
    checked = []
    backward = numerics._backward

    def spy(L, y):
        frame = sys._getframe(1)
        if frame.f_code is numerics._nnls.__code__ and y is frame.f_locals["yh"]:
            hl, free = frame.f_locals["hl"], frame.f_locals["free"]
            assert _hex(y) == _hex(numerics._forward(L, [hl[i] for i in free]))
            checked.append(len(free))
        return backward(L, y)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "_backward", spy)
        _, solves = numerics._nnls(*system)
    assert len(checked) == solves
