import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import highs
from robustmolp import numerics
from robustmolp.numerics import (SingularMatrixError,
                                 invert_symmetric, min_norm_point,
                                 project_simplex, solve_cone_system, solve_lp,
                                 sphere_directions)

_INF = float("inf")
_EPS = float(np.finfo(float).eps)

HYPO_ROWS = [([-2, -1, -2], -6.0), ([-1, -2, -2], -6.0),
             ([-1, 0, 0], -3.0), ([0, -1, 0], -3.0), ([0, 0, -1], -3.0)]
HYPO_POINTS = [(-2, -1, -2, -6), (-1, -2, -2, -6),
               (-1, 0, 0, -3), (0, -1, 0, -3), (0, 0, -1, -3)]


# ---------------------------------------------------------------------------
# solve_lp
# ---------------------------------------------------------------------------

def test_lp_simple_bounded():
    sol = solve_lp([-1.0], [[-1.0]], [-1.0], 0.0)
    assert sol.optimal
    assert sol.x == pytest.approx([1.0], abs=1e-9)


def test_lp_infeasible():
    assert solve_lp([0.0], [[1.0], [-1.0]], [0.0, 1.0], -_INF).status == "infeasible"


def test_lp_unbounded():
    assert solve_lp([-1.0], [[1.0]], [0.0], 0.0).status == "unbounded"


def _grid_min_over_box(c, rows, lo, hi, step):
    """Brute-force grid oracle: min c.x over {rows hold} within [lo, hi]^3."""
    axes = [np.arange(lo, hi + step / 2, step)] * 3
    Xg = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    ok = np.ones(len(Xg), bool)
    for a, b in rows:
        ok &= Xg @ np.asarray(a, float) >= b - 1e-12
    vals = Xg[ok] @ np.asarray(c, float)
    idx = np.argmin(vals)
    return float(vals[idx]), Xg[ok][idx]


def test_lp_grid_oracle_on_five_row_system():
    # min x1+x2 over the five-row system intersected with [-10, 10]^3;
    # staged grid oracle (coarse pass, then local refinement to 1e-3).
    c = [1.0, 1.0, 0.0]
    val, arg = _grid_min_over_box(c, HYPO_ROWS, -10.0, 10.0, 0.5)
    for step in (0.1, 0.01, 0.001):
        lo = np.maximum(arg - 5 * 10 * step, -10.0)
        hi = np.minimum(arg + 5 * 10 * step, 10.0)
        axes = [np.arange(lo[i], hi[i] + step / 2, step) for i in range(3)]
        Xg = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        ok = np.ones(len(Xg), bool)
        for a, b in HYPO_ROWS:
            ok &= Xg @ np.asarray(a, float) >= b - 1e-12
        ok &= np.all(np.abs(Xg) <= 10.0 + 1e-12, axis=1)
        vals = Xg[ok] @ np.asarray(c, float)
        arg = Xg[ok][np.argmin(vals)]
        val = float(vals.min())
    assert val == pytest.approx(-20.0, abs=1e-3)   # frozen oracle value

    # the five rows, then -10 <= x_i <= 10
    G = np.vstack([[a for a, _ in HYPO_ROWS],
                   np.stack([np.eye(3), -np.eye(3)], 1).reshape(-1, 3)])
    h = [b for _, b in HYPO_ROWS] + [-10.0] * 6
    sol = solve_lp(c, G, h, -_INF)
    assert sol.optimal
    assert c @ sol.x == pytest.approx(val, abs=1e-3)
    assert c @ sol.x == pytest.approx(-20.0, abs=1e-9)


def _random_solvable_lp(rng):
    """(c, G, h): up to 3 rows with slack at an integer anchor, then
    x_i <= 10, over x >= 0."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(0, 4))
    c = rng.integers(-5, 6, n).astype(float)
    x0 = rng.integers(0, 4, n).astype(float)
    G, h = [], []
    for _ in range(k):
        g = rng.integers(-5, 6, n).astype(float)
        G.append(g)
        h.append(float(g @ x0 - rng.integers(0, 5)))
    return c, np.vstack(G + [-np.eye(n)]), np.array(h + [-10.0] * n)


def test_lp_optimum_on_random_solvable_instances(rng):
    for _ in range(100):
        c, G, h = _random_solvable_lp(rng)
        sol = solve_lp(c, G, h, 0.0)
        assert sol.optimal
        assert c @ sol.x == pytest.approx(highs(c, G, h, 0.0)[1], abs=1e-7)
        # primal feasibility of the reported point
        assert np.all(G @ sol.x >= h - 1e-9) and np.all(sol.x >= -1e-9)


def test_lp_pivot_budget_breakdown(monkeypatch):
    from robustmolp import numerics
    c, G, h = [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0]
    monkeypatch.setattr(numerics, "MAX_PIVOTS", 1)
    with pytest.raises(numerics.NumericalBreakdown):
        solve_lp(c, G, h, 0.0)
    monkeypatch.undo()
    sol = solve_lp(c, G, h, 0.0)
    assert sol.optimal
    # the count is the one the budget bounds
    assert sol.pivots == 2
    monkeypatch.setattr(numerics, "MAX_PIVOTS", sol.pivots)
    assert solve_lp(c, G, h, 0.0).pivots == sol.pivots


def test_lp_without_variables():
    # every row is redundant or contradictory: the drive-out drops them all
    empty = np.zeros(0)
    sol = solve_lp(empty, np.zeros((2, 0)), [0.0, 0.0], empty, eq=True)
    assert sol.optimal and sol.x.size == 0
    assert solve_lp(empty, np.zeros((1, 0)), [1.0], empty).status == "infeasible"


def test_lp_equality_rows_and_free_vars(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        x0 = rng.integers(-3, 4, n).astype(float)
        # one equality row tight at x0, three rows with slack, |x_i| <= 8
        G = [rng.integers(-3, 4, n).astype(float)]
        h = [float(G[0] @ x0)]
        for _ in range(3):
            g = rng.integers(-4, 5, n).astype(float)
            G.append(g)
            h.append(float(g @ x0 - rng.integers(0, 3)))
        G = np.vstack(G + [np.stack([np.eye(n), -np.eye(n)], 1).reshape(-1, n)])
        h = np.array(h + [-8.0] * 2 * n)
        eq = np.arange(len(G)) == 0
        c = rng.integers(-3, 4, n).astype(float)
        sol = solve_lp(c, G, h, -_INF, eq)
        assert sol.optimal
        assert abs(G[0] @ sol.x - G[0] @ x0) <= 1e-8
        assert c @ sol.x == pytest.approx(highs(c, G, h, -_INF, eq)[1], abs=1e-7)


def test_lp_whose_bland_pivots_sit_just_above_a_tiny_threshold():
    # a Kelley-cut Slater LP (43 x 9, four free columns) recorded from a
    # check_slater run: with a pivot threshold of 1e-10 its phase 1 took
    # pivots of 1.16e-10 and 1.94e-10, drifted, and declared itself unbounded
    d = json.loads(Path(__file__).with_name("slater_lp_phase_one.json").read_text())
    c, G, h = (np.array(d[k]) for k in ("c", "G", "h"))
    lower = np.zeros(len(c))
    lower[d["free"]] = -_INF
    sol = solve_lp(c, G, h, lower)
    assert sol.optimal and np.all(G @ sol.x >= h - 1e-9)
    status, value = highs(c, G, h, lower)
    assert status == "optimal" and c @ sol.x == pytest.approx(value, abs=1e-9)


# ---------------------------------------------------------------------------
# project_simplex
# ---------------------------------------------------------------------------

def test_project_simplex_fixed_cases():
    assert project_simplex([0.5, 0.5]) == pytest.approx([0.5, 0.5], abs=1e-12)
    assert project_simplex([2.0, 0.0]) == pytest.approx([1.0, 0.0], abs=1e-12)
    assert project_simplex([0.3, 0.3, 0.3]) == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_project_simplex_is_euclidean_projection(rng):
    for _ in range(100):
        d = int(rng.integers(1, 9))
        y = rng.normal(0, 3, d)
        px = project_simplex(y)
        assert np.all(px >= 0) and abs(px.sum() - 1) <= 1e-12
        for _ in range(100):
            z = rng.dirichlet(np.ones(d))
            assert np.linalg.norm(y - px) <= np.linalg.norm(y - z) + 1e-12


# ---------------------------------------------------------------------------
# norms, inverse, directions
# ---------------------------------------------------------------------------

def test_invert_symmetric():
    assert invert_symmetric(np.eye(3)) == pytest.approx(np.eye(3))
    assert invert_symmetric(np.diag([2.0, 4.0])) == pytest.approx(np.diag([0.5, 0.25]))
    Z = np.array([[2.0, 1.0], [1.0, 2.0]])
    Zi = invert_symmetric(Z)
    # hand-checked inverse (1/3) [[2, -1], [-1, 2]]
    assert Zi == pytest.approx(np.array([[2, -1], [-1, 2]]) / 3.0, abs=1e-12)
    assert np.abs(Z @ Zi - np.eye(2)).max() <= 1e-8
    with pytest.raises(SingularMatrixError):
        invert_symmetric(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_sphere_directions_unit_and_deterministic():
    for k in (1, 2, 3, 5):
        d1 = sphere_directions(k, 32)
        d2 = sphere_directions(k, 32)
        assert np.array_equal(d1, d2)
        assert d1.shape == (32, k)
        assert np.linalg.norm(d1, axis=1) == pytest.approx(np.ones(32), abs=1e-9)


# ---------------------------------------------------------------------------
# min_norm_point
# ---------------------------------------------------------------------------

def test_min_norm_single_point_with_ray():
    res = min_norm_point([(1.0, 0.0)], (0.0, -1.0))
    assert res.certified
    assert res.p_star == pytest.approx([1.0, 0.0], abs=1e-10)
    assert np.linalg.norm(res.p_star) == pytest.approx(1.0, abs=1e-10)


def test_min_norm_known_five_point_set():
    res = min_norm_point(HYPO_POINTS, (0, 0, 0, -1))
    assert res.certified
    assert np.linalg.norm(res.p_star) == pytest.approx(math.sqrt(28 / 3), abs=1e-9)
    assert res.p_star == pytest.approx([-1 / 3, -1 / 3, -1 / 3, -3.0], abs=1e-8)


def test_min_norm_two_points_grid_oracle():
    pts = [(1.0, 1.0), (-1.0, 1.0)]
    ray = (0.0, -1.0)
    # independent 2-D grid over (lambda, mu)
    lam = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    mu = np.arange(0.0, 3.0 + 5e-4, 1e-3)
    L, M = np.meshgrid(lam, mu, indexing="ij")
    qx = L * pts[0][0] + (1 - L) * pts[1][0]
    qy = L * pts[0][1] + (1 - L) * pts[1][1] - M
    best = float(np.sqrt(qx**2 + qy**2).min())
    res = min_norm_point(pts, ray)
    assert res.certified
    assert np.linalg.norm(res.p_star) == pytest.approx(best, abs=1e-3)
    assert res.p_star == pytest.approx([0.0, 0.0], abs=1e-8)
    assert res.mu == pytest.approx(1.0, abs=1e-8)


def test_min_norm_six_point_set_is_exact_and_finite():
    # hypographical points of a feasible 6-row system in R^3 on which a
    # projected-gradient solve ran for ~30 s without certifying
    pts = [(2, 1, 0, 6), (-5, -4, 4, -6), (-5, -4, -4, -31), (2, 3, 3, 17),
           (3, -3, -1, -4), (-4, 2, -5, -19)]
    res = min_norm_point(pts, (0, 0, 0, -1))
    assert res.certified
    assert np.linalg.norm(res.p_star) == pytest.approx(0.013065011515622, abs=1e-9)
    # active-set termination: each column enters and leaves a few times
    assert 1 <= res.iterations <= 3 * (len(pts) + 1)


def test_min_norm_distance_zero_inside_polytope():
    # target strictly inside the triangle, no ray: the same solve returns
    # the origin with weights that reproduce it
    pts = [(1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)]
    res = min_norm_point(pts, (0.0, 0.0))
    assert res.certified
    assert np.linalg.norm(res.p_star) <= 1e-12
    assert res.mu == 0.0
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.weights > 0)
    recon = sum(w * np.asarray(g) for w, g in zip(res.weights, pts))
    assert np.linalg.norm(recon) <= 1e-12


def test_min_norm_point_on_the_line_of_two_free_points_does_not_enter():
    # p3 = 1349 p1 - 1348 p2 lies on the line through p1 and p2: once both
    # are free, its pivot is zero to working precision and it stays out
    p1, p2 = np.array([0.0, -4.0, 5.0]), np.array([-3.0, -3.0, -1.0])
    p3 = 1349.0 * p1 - 1348.0 * p2
    res = min_norm_point([p1, p2, p3], np.zeros(3))
    assert res.certified and res.weights[2] == 0.0
    # the nearest point of the segment from p2 to p3, which holds p1
    d = p3 - p2
    s = min(max(-(p2 @ d) / (d @ d), 0.0), 1.0)
    assert res.distance == pytest.approx(np.linalg.norm(p2 + s * d), rel=1e-12)


def test_min_norm_point_takes_an_array_or_a_sequence_of_points(rng):
    # the same solve, bit for bit, from a p x k array, the list of its rows
    # and a list of tuples
    for _ in range(100):
        k, p = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        pts = rng.integers(-5, 6, (p, k)).astype(float)
        ray = rng.normal(0, 1, k) if rng.integers(0, 2) else np.append(np.zeros(k - 1), -1.0)
        results = [min_norm_point(form, ray)
                   for form in (pts, list(pts), [tuple(q) for q in pts.tolist()])]
        for res in results[1:]:
            assert res.p_star.tobytes() == results[0].p_star.tobytes()
            assert res.weights.tobytes() == results[0].weights.tobytes()
            assert (res.mu.hex(), res.certified, res.iterations, res.distance.hex()) == (
                results[0].mu.hex(), results[0].certified, results[0].iterations,
                results[0].distance.hex())


def test_vi_margin_matches_the_loop_over_columns(rng):
    # one product q.M in place of a dot per column: the sums may round in
    # another order, so the loop's margin is matched to a few ulps of 1
    for _ in range(200):
        k, p = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        M, q = rng.uniform(-1, 1, (k, p + 1)), rng.uniform(-1, 1, k)
        loop = min(min(float(M[:, j] @ q) - float(q @ q) for j in range(p)),
                   float(M[:, p] @ q))
        assert numerics._vi_margin(M, q, p) == pytest.approx(loop, abs=16 * _EPS)


def test_min_norm_variational_inequality_property(rng):
    for _ in range(100):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(1, 7))
        pts = [rng.integers(-5, 6, k).astype(float) for _ in range(p)]
        ray = rng.normal(0, 1, k)
        nr = np.linalg.norm(ray)
        ray = ray / nr if nr > 1e-12 else np.eye(k)[0]
        res = min_norm_point(pts, ray)
        assert res.certified
        q = res.p_star
        nn = q @ q
        for g in pts:
            assert g @ q >= nn - 1e-8
        assert ray @ q >= -1e-8
        # reconstruction identity
        recon = sum(w * np.asarray(g, float) for w, g in zip(res.weights, pts))
        recon = recon + res.mu * ray
        assert np.linalg.norm(recon - q) <= 1e-10
        assert np.all(res.weights >= -1e-15)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.mu >= 0
        assert 1 <= res.iterations <= 3 * (p + 1)


# ---------------------------------------------------------------------------
# solve_cone_system
# ---------------------------------------------------------------------------

def test_cone_simplex_equality_feasible():
    res = solve_cone_system([[1.0, -1.0]], [0.0], [("simplex", 2)])
    assert res.feasible and res.stop_reason == "converged"
    assert not res.exact            # no verdict of this solver is exact
    assert res.x == pytest.approx([0.5, 0.5], abs=1e-9)


def test_cone_unreachable_equality_residual():
    res = solve_cone_system([[1.0]], [2.0], [("simplex", 1)])
    assert not res.feasible
    assert res.residual == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx([1.0], abs=1e-9)
    # the first Farkas check proves the gap, so the run stops there
    # instead of running to its iteration cap
    assert res.stop_reason == "farkas" and res.iterations == 1


def test_cone_known_multiplier_system():
    # simplex weights against two active generator rows: the scalarized
    # objective must equal a nonnegative combination of them.
    C = np.array([[-3.0, -1.0, -2.0], [0.0, -1.0, -2.0]])
    gens = np.array([[-2.0, -1.0, -2.0], [-1.0, -2.0, -2.0]])
    res = solve_cone_system(np.hstack([C.T, -gens.T]), np.zeros(3),
                            [("simplex", 2), ("nonneg", 2)])
    assert res.feasible and res.stop_reason == "converged"
    lam, mu = res.x[:2], res.x[2:]
    assert lam == pytest.approx([2 / 3, 1 / 3], abs=1e-8)
    assert mu == pytest.approx([1.0, 0.0], abs=1e-8)


def test_cone_system_input_checks():
    with pytest.raises(ValueError, match="unknown block kind"):
        solve_cone_system([[1.0, 0.0]], [1.0], [("simplex", 1), ("free", 1)])
    with pytest.raises(ValueError, match="dimension"):
        solve_cone_system([[1.0]], [1.0], [("simplex", 1), ("nonneg", 0)])
    for width in (2, 4):                   # blocks span 3 columns
        with pytest.raises(ValueError, match="sum of block dimensions"):
            solve_cone_system(np.ones((1, width)), [1.0], [("simplex", 1), ("soc", 2)])


def test_cone_soc_projection_path():
    res = solve_cone_system([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [2.0, 0.5], [("soc", 3)])
    assert res.feasible and not res.exact
    assert res.stop_reason == "converged"
    assert res.residual <= 1e-9
    assert np.linalg.norm(res.x[:2]) <= res.x[2] + 1e-10


def _scaled(A, b):
    """The row-scaled (A, b) that solve_cone_system works on."""
    mx = np.abs(A).max(axis=1)
    scale = 1.0 / np.where(mx > 0, mx, 1.0)
    return A * scale[:, None], b * scale


def _offsets(blocks):
    return np.cumsum([0] + [dim for _, dim in blocks])[:-1].tolist()


def _lp_feasible(A, b, blocks, soc_norm=None):
    """Exact LP feasibility of a system of free/nonneg/simplex blocks, with
    each soc block (y, t) taken as ||y||_1 <= t (soc_norm 1, inside the
    2-norm cone) or ||y||_inf <= t (soc_norm inf, around it)."""
    off, D = _offsets(blocks), A.shape[1]
    socs = [(o, dim - 1) for o, (kind, dim) in zip(off, blocks) if kind == "soc"]
    width = D + (sum(dy for _, dy in socs) if soc_norm == 1 else 0)
    lb = np.full(width, -_INF)
    rows = [(np.concatenate([A[i], np.zeros(width - D)]), b[i], "==")
            for i in range(A.shape[0])]
    aux = D
    for o, (kind, dim) in zip(off, blocks):
        if kind in ("nonneg", "simplex"):
            lb[o:o + dim] = 0.0
        if kind == "simplex":
            g = np.zeros(width)
            g[o:o + dim] = 1.0
            rows.append((g, 1.0, "=="))
        if kind != "soc":
            continue
        t, dy = o + dim - 1, dim - 1
        for i in range(dy):
            for sign in (1.0, -1.0):       # |y_i| <= t, or <= u_i
                g = np.zeros(width)
                g[o + i] = sign
                g[t if soc_norm == _INF else aux + i] = 1.0
                rows.append((g, 0.0, ">="))
        if soc_norm == 1:                  # sum of u <= t
            g = np.zeros(width)
            g[t], g[aux:aux + dy] = 1.0, -1.0
            rows.append((g, 0.0, ">="))
            aux += dy
    G, h, senses = zip(*rows)
    return solve_lp(np.zeros(width), G, h, lb, np.array(senses) == "==").optimal


def test_cone_polyhedral_paths_agree(rng):
    # projected gradient and an exact LP must report the same feasibility
    # verdict on all-polyhedral systems.
    for _ in range(40):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        blocks = [("simplex", m), ("nonneg", k)]
        A0 = rng.integers(-3, 4, (2, m)).astype(float)
        A1 = rng.integers(-3, 4, (2, k)).astype(float)
        rhs = rng.integers(-2, 3, 2).astype(float)
        A = np.hstack([A0, A1])
        res = solve_cone_system(A, rhs, blocks)
        assert res.feasible == _lp_feasible(A, rhs, blocks), res


def test_farkas_stops_only_on_lp_infeasible_systems(rng):
    # over simplex, nonneg and 2-norm blocks: a Farkas stop must replay as
    # a certificate, and it never happens where the LP with the 1-norm
    # cone inside the 2-norm cone has a point; where the LP with the
    # inf-norm cone around it has none, no point comes within tol
    from robustmolp.numerics import _pgd_min_residual
    stops = 0
    for _ in range(60):
        blocks = [("simplex", int(rng.integers(1, 3))),
                  ("nonneg", int(rng.integers(1, 3))),
                  ("soc", int(rng.integers(2, 4)))]
        k = int(rng.integers(2, 5))
        A_raw = np.hstack([rng.integers(-3, 4, (k, dim)).astype(float)
                           for _, dim in blocks])
        b_raw = rng.integers(-3, 4, k).astype(float)
        A, b = _scaled(A_raw, b_raw)
        x, r, _, reason = _pgd_min_residual(A, b, blocks, 1e-7, 2000)
        if not _lp_feasible(A_raw, b_raw, blocks, soc_norm=_INF):
            assert r > 1e-7
        if reason == "farkas":
            stops += 1
            assert r > 1e-7
            assert not _lp_feasible(A_raw, b_raw, blocks, soc_norm=1)
            z = A @ x - b
            c = A.T @ z
            s0, s1, s2 = (c[o:o + dim] for o, (_, dim) in zip(_offsets(blocks), blocks))
            assert s1.min() >= 0.0 and np.linalg.norm(s2[:-1]) <= s2[-1]
            assert (s0.min() - b @ z) / np.linalg.norm(z) > 1e-7
    assert stops >= 5


def test_infeasible_soc2_system_stops_at_farkas_certificate():
    # lambda on the simplex, (y, t) in the 2-norm cone with y1 = 2 + lambda1,
    # y2 = lambda2 and t = 1: ||y|| >= 2 > t, so no point fits
    A_raw = np.array([[-1.0, 0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 1.0],
                      [0.0, -1.0, 0.0, 1.0, 0.0]])
    b_raw = np.array([2.0, 1.0, 0.0])
    res = solve_cone_system(A_raw, b_raw, [("simplex", 2), ("soc", 3)])
    assert not res.feasible and not res.exact
    assert res.stop_reason == "farkas"
    assert res.iterations <= 64
    # replay the certificate here: z = A x - b with A^T z in the dual cones
    A, b = _scaled(A_raw, b_raw)
    z = A @ res.x - b
    c = A.T @ z
    assert np.linalg.norm(c[2:4]) <= c[4]
    g = c[:2].min() - b @ z
    assert g / np.linalg.norm(z) > 1e-7
    assert res.residual >= g / np.linalg.norm(z)
