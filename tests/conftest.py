"""Shared random-instance generators for the property suites, the replay
of a refutation witness, the HiGHS reference for LP optima, and a spy
that fails on any LP solve.

Instances are integer-ish (coefficients in [-5, 5]) and anchored at an
integer point so feasibility, strict feasibility, and boundedness are
guaranteed by construction.
"""

import sys

import numpy as np
import pytest

from robustmolp.model import (Ball, Box, Ellipsoid, NormBall, Polytope, Singleton,
                              UncertainMOLP, reduce_constraints, validate_problem)
from robustmolp.numerics import solve_lp

_INF = float("inf")
_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(c, G, h, lower, eq=False):
    """(status, optimal value) of min c.x s.t. G x >= h (== where eq),
    x >= lower, from scipy's HiGHS: a test-only reference, skipped where
    scipy is not installed."""
    optimize = pytest.importorskip("scipy.optimize")
    G, h = np.asarray(G, float), np.asarray(h, float)
    eq = np.broadcast_to(eq, (len(G),))
    lb = np.broadcast_to(np.asarray(lower, float), (G.shape[1],))
    res = optimize.linprog(c, A_ub=-G[~eq], b_ub=-h[~eq], A_eq=G[eq], b_eq=h[eq],
                           bounds=[(t if np.isfinite(t) else None, None) for t in lb],
                           method="highs")
    return _HIGHS_STATUS.get(res.status, "other"), res.fun


def as_geq(G, h, eq):
    """The rows G x >= h, with equality where eq is set, as ">=" rows
    alone, the form solve_lp takes: each equality row again, negated,
    after all of them."""
    G, h = np.asarray(G, float), np.asarray(h, float)
    eq = np.broadcast_to(eq, (len(G),))
    return np.vstack([G, -G[eq]]), np.concatenate([h, -h[eq]])


def random_feasible_rows(rng, n=None, p=None, min_slack=0):
    """Nominal rows {a.x >= b} guaranteed feasible at an integer anchor."""
    n = n if n is not None else int(rng.integers(1, 4))
    p = p if p is not None else int(rng.integers(1, 6))
    x0 = rng.integers(-3, 4, n).astype(float)
    rows = []
    for _ in range(p):
        a = rng.integers(-5, 6, n).astype(float)
        if not a.any():
            a[int(rng.integers(0, n))] = float(rng.choice([-1, 1]))
        slack = float(rng.integers(min_slack, min_slack + 3))
        rows.append((a, float(a @ x0 - slack)))
    return rows, x0


def random_polyhedral_problem(rng, m_max=3, n_max=4, p_max=4, box=6.0):
    """All-singleton/polytope instance with u >= 0 and a bounding box, and
    the integer anchor that meets every row."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    x0 = rng.integers(-2, 3, n).astype(float)
    cons = []
    for _ in range(int(rng.integers(1, p_max + 1))):
        if rng.integers(0, 2) == 0:
            a = rng.integers(-5, 6, n).astype(float)
            if not a.any():
                a[0] = 1.0
            cons.append(Singleton(a, float(a @ x0 - rng.integers(0, 3))))
        else:
            verts = []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.integers(-5, 6, n).astype(float)
                if not a.any():
                    a[0] = 1.0
                b = float(a @ x0 - rng.integers(0, 3))
                verts.append(np.concatenate([a, [b]]))
            cons.append(Polytope(tuple(verts)))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cons.append(Singleton(e.copy(), -box))
        cons.append(Singleton(-e, -box))
    C = rng.integers(-5, 6, (m, n)).astype(float)
    u = rng.integers(0, 4, m).astype(float)
    v = rng.integers(-5, 6, n).astype(float)
    return UncertainMOLP(m, n, C, u, v, tuple(cons)), x0


def box_vertices(a_lo, a_hi):
    """All 2^n corners of a box, binary-counter order with bit 0 =
    coordinate 0: the polytope a box equals, for agreement tests."""
    a_lo, a_hi = np.asarray(a_lo, float), np.asarray(a_hi, float)
    bits = (np.arange(1 << a_lo.size)[:, None] >> np.arange(a_lo.size)) & 1
    return np.where(bits == 1, a_hi, a_lo)


def vertex_multipliers(rec, vertices):
    """The multiplier a certificate record puts on each vertex of a
    polytope: all of it on the vertex its scenario row equals."""
    row = np.append(rec.scenario_a, rec.scenario_b)
    return [rec.mu if np.array_equal(row, v) else 0.0 for v in vertices]


def vertex_candidate(rng, problem, anchor):
    """A vertex of the linear rows of the reduced feasible set (basic
    optimum of a random LP started at an anchor that meets them); rows of
    other kinds are left out."""
    X = reduce_constraints(validate_problem(problem))
    n = problem.n
    c = rng.integers(-5, 6, n).astype(float)
    sol = solve_lp(c, X.A, X.b, anchor)
    assert sol.optimal, "bounding box should keep the LP bounded"
    return sol.x


def worst_slack(c, x):
    """Worst-case slack at x of one uncertainty class, from the class's own
    data and numpy alone: the least a.x - b over its realizations."""
    x = np.asarray(x, float)
    if isinstance(c, Singleton):
        return float(c.a_bar @ x - c.b_bar)
    if isinstance(c, Polytope):
        return min(float(v[:-1] @ x - v[-1]) for v in c.vertices)
    if isinstance(c, Box):
        return float(np.minimum(c.a_lo * x, c.a_hi * x).sum() - c.b_hi)
    if isinstance(c, NormBall):
        # delta ||Z^-1 x|| in the norm conjugate to s (Z is symmetric)
        conjugate = {1: _INF, 2: 2, _INF: 1}[c.s]
        return float(c.a_bar @ x - c.b_hi
                     - c.delta * np.linalg.norm(np.linalg.solve(c.Z, x), conjugate))
    if isinstance(c, Ellipsoid):
        pen = float(np.linalg.norm(np.array(c.spans) @ x)) if c.spans else 0.0
        return float(c.a0 @ x - c.b_hi - pen)
    if isinstance(c, Ball):
        return float(c.a_bar @ x - c.b_bar - c.alpha * np.sqrt(x @ x + 1.0))
    raise TypeError(f"no worst-case slack for {type(c).__name__}")


def assert_replaying_witness(p, x_bar, rho, x):
    """x lies in every class of p (to 1e-9) and strictly improves every
    objective of the scenario C_bar + rho u v^T on x_bar."""
    assert min(worst_slack(c, x) for c in p.constraints) >= -1e-9
    C = p.C_bar + rho * np.outer(p.u, p.v)
    assert np.all(C @ x_bar - C @ x > 0.0)


def assert_replaying_refutation(p, x_bar, out):
    """out refutes x_bar at the rho of its endpoint with a replaying witness."""
    assert out.status == "refuted"
    r = out.refutation
    assert r.rho == {"nominal": 0.0, "perturbed": 1.0}[r.endpoint]
    assert_replaying_witness(p, x_bar, r.rho, r.x)


def forbid_lp(monkeypatch):
    """Make every binding of numerics.solve_lp in the package raise, so that
    the calls that follow fail on any LP solve."""
    import robustmolp

    def forbidden(*args, **kwargs):
        raise AssertionError("no LP is solved here")

    for module in [robustmolp, *(m for name, m in list(sys.modules.items())
                                 if name.startswith("robustmolp."))]:
        if getattr(module, "solve_lp", None) is solve_lp:
            monkeypatch.setattr(module, "solve_lp", forbidden)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)
