"""Refutations of all-linear problems pinned bit for bit.

`pinned_refutations.json` holds, for each instance below, the refutation
(reason, endpoint, rho, and the witness x and gap as `float.hex`) and the
iteration count of every minimum-norm point that
`certify_weak_efficiency` solved, one per endpoint system.  The
Lawson-Hanson solve must keep its entering rule and tie-breaks exactly: a
different active-set path moves an iteration count here, and usually the
last bits of the witness too.  The instances with a box (12, 14, 25, 28,
30) were re-recorded when boxes became one lifted s = inf row instead of
their 2^n vertex rows; every x and gap when the witness came to be stepped
along the failing endpoint's Farkas ray; and every record when the
endpoint LPs became minimum-norm points, the step following the nearest
point's direction -q and the Bland pivot counts giving way to iteration
counts.  A failing nominal endpoint is the last system solved, so its list
holds one entry.  Every pinned witness must replay against the classes'
own data, so no re-recording can pin one that does not.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_replaying_witness
from robustmolp import efficiency
from robustmolp.efficiency import certify_weak_efficiency
from robustmolp.model import Box, Polytope, Singleton, UncertainMOLP, validate_problem

PINNED = Path(__file__).with_name("pinned_refutations.json")

# seeds 5 and 22 refute at the perturbed endpoint, 25 has u = 0, and 30
# carries an 8-dimensional box, lifted into 17 rows over 8 extra columns
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
    iterations = []
    solve = efficiency.min_norm_point

    def counting(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(efficiency, "min_norm_point", counting)
    p, x = _instance(seed)
    out = certify_weak_efficiency(validate_problem(p), x)
    assert out.status == "refuted"
    r = out.refutation
    return {"reason": r.reason, "endpoint": r.endpoint,
            "rho": None if r.rho is None else float(r.rho).hex(),
            "x": _hex(r.x), "gap": _hex(r.gap), "iterations": iterations}


@pytest.mark.parametrize("seed", SEEDS)
def test_refutation_pinned(seed, monkeypatch):
    want = json.loads(PINNED.read_text())[str(seed)]
    p, x = _instance(seed)
    assert_replaying_witness(p, x, float.fromhex(want["rho"]),
                             np.array([float.fromhex(t) for t in want["x"]]))
    assert refutation_record(seed, monkeypatch) == want
