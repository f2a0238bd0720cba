"""Differential checks of the hand-written kernels against scipy.

scipy is a test-only reference here, never a runtime dependency: the
module is skipped where scipy is not installed.
"""

import numpy as np
import pytest

from conftest import highs
from robustmolp.numerics import min_norm_point, solve_lp

optimize = pytest.importorskip("scipy.optimize")

_INF = float("inf")


def _lp(c, rows, lb):
    """The arguments (c, G, h, lower, eq) of solve_lp for (g, h, sense) rows."""
    G, h, senses = zip(*rows)
    return c, np.array(G), np.array(h), lb, np.array(senses) == "=="


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
    return _lp(c, rows, lb)


def test_solve_lp_matches_highs_on_random_degenerate_free_lps():
    rng = np.random.default_rng(20261018)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        lp = c, G, h, lb, eq = _random_lp(rng)
        ref_status, ref_value = highs(*lp)
        assert ref_status != "other"
        sol = solve_lp(*lp)
        assert sol.status == ref_status
        seen[sol.status] += 1
        if sol.optimal:
            assert c @ sol.x == pytest.approx(ref_value, abs=1e-7)
            slack = G @ sol.x - h
            assert np.all(slack[~eq] >= -1e-7) and np.all(np.abs(slack[eq]) <= 1e-7)
            assert np.all(sol.x >= lb - 1e-9)
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
    return _lp(rng.integers(-3, 4, d).astype(float), rows, lb)


def test_solve_lp_matches_highs_on_large_degenerate_lps_with_duplicate_rows():
    rng = np.random.default_rng(20261020)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(24):
        lp = c, G, h, lb, eq = _large_lp(rng)
        ref_status, ref_value = highs(*lp)
        sol = solve_lp(*lp)
        assert sol.status == ref_status
        seen[sol.status] += 1
        if not sol.optimal:
            continue
        assert c @ sol.x == pytest.approx(ref_value, abs=1e-7)
        slack = G @ sol.x - h
        assert np.all(slack[~eq] >= -1e-7) and np.all(np.abs(slack[eq]) <= 1e-7)
        assert np.all(sol.x >= lb - 1e-9)
    assert all(count >= 4 for count in seen.values()), seen


def _assert_farkas_ray(lp, y):
    """y certifies that no x >= lb meets the rows: on the rows scaled to
    unit max-norm, G^T y <= 0 on bounded columns and = 0 on free ones,
    y >= 0 on ">=" rows, and (h - G lb).y > 0, each to 1e-9."""
    _, G, h, lb, eq = lp
    mx = np.abs(G).max(axis=1)
    scale = np.where(mx > 0, 1.0 / np.where(mx > 0, mx, 1.0), 1.0)
    ys = y / scale                              # the ray of the scaled rows
    free = ~np.isfinite(lb)
    lb = np.where(free, 0.0, lb)
    reduced = (G * scale[:, None]).T @ ys
    assert np.all(reduced[~free] <= 1e-9) and np.all(np.abs(reduced[free]) <= 1e-9)
    assert np.all(ys[~eq] >= -1e-9)
    assert float(((h - G @ lb) * scale) @ ys) > 1e-9


def test_infeasible_lps_carry_a_farkas_ray_that_highs_agrees_with():
    rng = np.random.default_rng(20261021)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for k in range(360):
        lp = _random_lp(rng) if k % 12 else _large_lp(rng)
        sol = solve_lp(*lp)
        assert sol.status == highs(*lp)[0]
        seen[sol.status] += 1
        if sol.status == "infeasible":
            _assert_farkas_ray(lp, sol.ray)
        else:
            assert sol.ray is None
    assert all(count >= 10 for count in seen.values()), seen


def test_zero_objective_lps_stop_at_phase_one():
    # feasibility LPs from both generators, and a hand case whose duplicate
    # equality rows leave an artificial basic at zero after phase 1
    rng = np.random.default_rng(20261022)
    dup = _lp(np.zeros(2), [([1.0, 1.0], 2.0, "==")] * 2 + [([1.0, -1.0], 0.0, ">=")],
              np.zeros(2))
    lps = [dup] + [_random_lp(rng) if k % 12 else _large_lp(rng) for k in range(240)]
    seen = {"optimal": 0, "infeasible": 0}
    for _, G, h, lb, eq in lps:
        lp = np.zeros(G.shape[1]), G, h, lb, eq
        sol = solve_lp(*lp)
        assert sol.status == highs(*lp)[0]
        seen[sol.status] += 1
        if not sol.optimal:
            continue
        mx = np.abs(G).max(axis=1)
        slack = (G @ sol.x - h) / np.where(mx > 0, mx, 1.0)
        assert np.all(slack[~eq] >= -1e-9) and np.all(np.abs(slack[eq]) <= 1e-9)
        bounded = np.isfinite(lb)
        assert np.all(sol.x[bounded] >= lb[bounded] - 1e-9)
    assert all(count >= 20 for count in seen.values()), seen
