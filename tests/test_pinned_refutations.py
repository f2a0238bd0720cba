"""Refutations of all-linear problems pinned bit for bit.

`pinned_refutations.json` holds, for each instance below, the refutation
(reason, endpoint, rho, and the witness x and gap as `float.hex`) and the
pivot count of every LP that `certify_weak_efficiency` solved, as produced
by the row-by-row dense Bland simplex.  The simplex must keep Bland's rule
and its tie-breaks exactly: a different pivot path moves a pivot count
here, and usually the last bits of the witness too.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from robustmolp import efficiency
from robustmolp.efficiency import certify_weak_efficiency
from robustmolp.model import Box, Polytope, Singleton, UncertainMOLP, validate_problem

PINNED = Path(__file__).with_name("pinned_refutations.json")

# seeds 5 and 22 refute at the perturbed endpoint, 25 has u = 0, and 30
# carries a 2^8-row box, so its scenario LP has 276 rows
SEEDS = (0, 5, 12, 14, 22, 25, 28, 30)


def _instance(seed):
    """Integer problem with rows tight at an integer anchor x and a random
    objective; seeds 30 and up get n = 8 and a box."""
    rng = np.random.default_rng([20261018, seed])
    n = 8 if seed >= 30 else int(rng.integers(2, 6))
    m = int(rng.integers(2, 4))
    x = rng.integers(-2, 3, n).astype(float)
    cons = []
    for _ in range(int(rng.integers(1, 3))):
        a = rng.integers(-4, 5, n).astype(float)
        cons.append(Singleton(a, float(a @ x)))
    if rng.integers(0, 2):
        verts = []
        for k in range(3):
            a = rng.integers(-4, 5, n).astype(float)
            verts.append(np.concatenate([a, [float(a @ x) - k]]))
        cons.append(Polytope(tuple(verts)))
    if seed >= 30 or rng.integers(0, 2):
        lo = rng.integers(-3, 1, n).astype(float)
        hi = lo + rng.integers(1, 3, n)
        a_min = np.where(x >= 0, lo, hi)
        cons.append(Box(lo, hi, float(a_min @ x) - 2.0, float(a_min @ x)))
    for i in range(n):
        e = np.eye(n)[i]
        cons += [Singleton(e, -6.0), Singleton(-e, -6.0)]
    C = rng.integers(-4, 5, (m, n)).astype(float)
    u = rng.integers(0, 3, m).astype(float)
    v = rng.integers(-3, 4, n).astype(float)
    return UncertainMOLP(m, n, C, u, v, tuple(cons)), x


def _hex(a):
    return None if a is None else [float(t).hex() for t in a]


def refutation_record(seed, monkeypatch):
    """The pinned fields of one instance's refutation."""
    pivots = []
    solve = efficiency.solve_lp

    def counting(lp):
        sol = solve(lp)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(efficiency, "solve_lp", counting)
    p, x = _instance(seed)
    out = certify_weak_efficiency(validate_problem(p), x)
    assert out.status == "refuted"
    r = out.refutation
    return {"reason": r.reason, "endpoint": r.endpoint,
            "rho": None if r.rho is None else float(r.rho).hex(),
            "x": _hex(r.x), "gap": _hex(r.gap), "pivots": pivots}


@pytest.mark.parametrize("seed", SEEDS)
def test_refutation_pinned(seed, monkeypatch):
    want = json.loads(PINNED.read_text())[str(seed)]
    assert refutation_record(seed, monkeypatch) == want
