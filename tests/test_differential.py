"""Differential checks of the hand-written kernels against scipy.

scipy is a test-only reference here, never a runtime dependency: the
module is skipped where scipy is not installed.
"""

import numpy as np
import pytest

from robustmolp.numerics import LinearProgram, min_norm_point, solve_lp

optimize = pytest.importorskip("scipy.optimize")

_INF = float("inf")
_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _random_lp(rng):
    """Small LP with free variables, equality rows and degenerate ties.

    Rows are tight at an integer anchor point (degenerate vertices),
    duplicated now and then, and every other instance gets a random
    right-hand side that may make it infeasible.
    """
    d = int(rng.integers(1, 6))
    lb = np.where(rng.integers(0, 2, d) == 0, 0.0, -_INF)
    x0 = rng.integers(0, 3, d).astype(float)
    rows = []
    for _ in range(int(rng.integers(1, 7))):
        g = rng.integers(-3, 4, d).astype(float)
        sense = ">=" if rng.integers(0, 3) else "=="
        h = float(g @ x0) - (float(rng.integers(0, 2)) if sense == ">=" else 0.0)
        if rng.integers(0, 2):
            h = float(rng.integers(-4, 5))
        rows.append((g, h, sense))
        if rng.integers(0, 4) == 0:
            rows.append((g.copy(), h, sense))
    # a box keeps most instances bounded; some are left open on purpose
    if rng.integers(0, 4):
        for j in range(d):
            e = np.zeros(d)
            e[j] = -1.0
            rows.append((e, -5.0, ">="))
            rows.append((-e, -5.0, ">="))
    c = rng.integers(-3, 4, d).astype(float)
    return LinearProgram.build(c, rows, lb)


def _highs(lp):
    d = lp.objective.size
    ge = [(g, h) for g, h, s in lp.rows if s == ">="]
    eq = [(g, h) for g, h, s in lp.rows if s == "=="]
    res = optimize.linprog(
        lp.objective,
        A_ub=np.array([-g for g, _ in ge]) if ge else None,
        b_ub=np.array([-h for _, h in ge]) if ge else None,
        A_eq=np.array([g for g, _ in eq]) if eq else None,
        b_eq=np.array([h for _, h in eq]) if eq else None,
        bounds=[(lp.lower_bounds[j] if np.isfinite(lp.lower_bounds[j]) else None, None)
                for j in range(d)],
        method="highs")
    return _HIGHS_STATUS.get(res.status, "other"), res.fun


def test_solve_lp_matches_highs_on_random_degenerate_free_lps():
    rng = np.random.default_rng(20261018)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        lp = _random_lp(rng)
        ref_status, ref_value = _highs(lp)
        assert ref_status != "other"
        sol = solve_lp(lp)
        assert sol.status == ref_status
        seen[sol.status] += 1
        if sol.optimal:
            assert sol.value == pytest.approx(ref_value, abs=1e-7)
            for g, h, sense in lp.rows:
                slack = float(g @ sol.x) - h
                assert slack >= -1e-7 if sense == ">=" else abs(slack) <= 1e-7
            assert np.all(sol.x >= lp.lower_bounds - 1e-9)
    assert all(count >= 10 for count in seen.values()), seen


def _nnls_distance(points, ray):
    """Distance from the origin to conv(points) + R+ * ray through scipy's
    NNLS on [[P, r], [1, 0]] u ~ e: the optimal residual is d^2 / (1 + d^2)."""
    P = np.column_stack([np.asarray(q, float) for q in points] + [ray])
    E = np.vstack([P, np.append(np.ones(len(points)), 0.0)])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, _ = optimize.nnls(E, f)
    t = u[:-1].sum()
    return float(np.linalg.norm(P @ u / t))


def test_min_norm_point_matches_scipy_nnls():
    rng = np.random.default_rng(20261019)
    for trial in range(300):
        k = int(rng.integers(1, 7))
        p = int(rng.integers(1, 3 * k + 3))
        pts = [rng.integers(-5, 6, k).astype(float) for _ in range(p)]
        ray = np.zeros(k)
        if trial % 3:
            ray[-1] = -1.0
        res = min_norm_point(pts, ray)
        assert res.certified
        assert np.linalg.norm(res.p_star) == pytest.approx(
            _nnls_distance(pts, ray), abs=1e-9)


def _large_lp(rng):
    """200 to 260 rows over 4 to 8 variables, half of them free.

    Most inequality rows are tight at an integer anchor (degenerate ties
    in the ratio test), and every equality row comes twice, so phase 1
    ends with artificials to drive out and redundant rows to drop; every
    fourth instance gets a contradicting equality and is infeasible.
    """
    d = int(rng.integers(4, 9))
    lb = np.where(rng.integers(0, 2, d) == 0, 0.0, -_INF)
    x0 = rng.integers(0, 3, d).astype(float)
    rows = []
    for _ in range(int(rng.integers(200, 251))):
        g = rng.integers(-3, 4, d).astype(float)
        rows.append((g, float(g @ x0) - float(rng.integers(0, 3) // 2), ">="))
    for _ in range(int(rng.integers(2, 5))):
        g = rng.integers(-3, 4, d).astype(float)
        rows += [(g, float(g @ x0), "==")] * 2
    if rng.integers(0, 4) == 0:
        rows.append((rows[-1][0], rows[-1][1] + 1.0, "=="))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        rows += [(e, -9.0, ">="), (-e, -9.0, ">=")]
    rng.shuffle(rows)
    return LinearProgram.build(rng.integers(-3, 4, d).astype(float), rows, lb)


def test_solve_lp_matches_highs_on_large_degenerate_lps_with_duplicate_rows():
    rng = np.random.default_rng(20261020)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(24):
        lp = _large_lp(rng)
        ref_status, ref_value = _highs(lp)
        sol = solve_lp(lp)
        assert sol.status == ref_status
        seen[sol.status] += 1
        if not sol.optimal:
            continue
        assert sol.value == pytest.approx(ref_value, abs=1e-7)
        assert sol.dual_value == pytest.approx(sol.value, abs=1e-7)
        G = np.array([g for g, _, _ in lp.rows])
        slack = G @ sol.x - np.array([h for _, h, _ in lp.rows])
        ge = np.array([s == ">=" for _, _, s in lp.rows])
        assert np.all(slack[ge] >= -1e-7) and np.all(np.abs(slack[~ge]) <= 1e-7)
        assert np.all(sol.dual[ge] >= -1e-9)
        reduced = lp.objective - G.T @ sol.dual
        free = ~np.isfinite(lp.lower_bounds)
        assert np.all(np.abs(reduced[free]) <= 1e-9) and np.all(reduced[~free] >= -1e-9)
    assert all(count >= 4 for count in seen.values()), seen
