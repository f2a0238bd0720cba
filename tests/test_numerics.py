import math

import numpy as np
import pytest

from robustmolp.numerics import (ConeFeasibilitySystem, LinearProgram,
                                 SingularMatrixError, VarBlock,
                                 dual_norm_value, invert_symmetric,
                                 min_norm_point, project_simplex,
                                 solve_cone_system, solve_lp,
                                 sphere_directions)

_INF = float("inf")

HYPO_ROWS = [([-2, -1, -2], -6.0), ([-1, -2, -2], -6.0),
             ([-1, 0, 0], -3.0), ([0, -1, 0], -3.0), ([0, 0, -1], -3.0)]
HYPO_POINTS = [(-2, -1, -2, -6), (-1, -2, -2, -6),
               (-1, 0, 0, -3), (0, -1, 0, -3), (0, 0, -1, -3)]


# ---------------------------------------------------------------------------
# solve_lp
# ---------------------------------------------------------------------------

def test_lp_simple_bounded():
    lp = LinearProgram.build([-1.0], [([-1.0], -1.0, ">=")], [0.0])
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.x == pytest.approx([1.0], abs=1e-9)
    assert sol.value == pytest.approx(-1.0, abs=1e-9)


def test_lp_infeasible():
    lp = LinearProgram.build([0.0], [([1.0], 0.0, ">="), ([-1.0], 1.0, ">=")],
                             [-_INF])
    assert solve_lp(lp).status == "infeasible"


def test_lp_unbounded():
    lp = LinearProgram.build([-1.0], [([1.0], 0.0, ">=")], [0.0])
    assert solve_lp(lp).status == "unbounded"


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

    rows = [(a, b, ">=") for a, b in HYPO_ROWS]
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        rows.append((e.copy(), -10.0, ">="))
        rows.append((-e, -10.0, ">="))
    sol = solve_lp(LinearProgram.build(c, rows, np.full(3, -_INF)))
    assert sol.optimal
    assert sol.value == pytest.approx(val, abs=1e-3)
    assert sol.value == pytest.approx(-20.0, abs=1e-9)


def _random_solvable_lp(rng):
    n = int(rng.integers(1, 5))
    k = int(rng.integers(0, 4))
    c = rng.integers(-5, 6, n).astype(float)
    x0 = rng.integers(0, 4, n).astype(float)
    rows = []
    for _ in range(k):
        g = rng.integers(-5, 6, n).astype(float)
        rows.append((g, float(g @ x0 - rng.integers(0, 5)), ">="))
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0
        rows.append((e, -10.0, ">="))          # x_i <= 10
    return LinearProgram.build(c, rows, np.zeros(n))


def test_lp_duality_on_random_solvable_instances(rng):
    for _ in range(100):
        lp = _random_solvable_lp(rng)
        sol = solve_lp(lp)
        assert sol.optimal
        assert abs(sol.value - sol.dual_value) <= 1e-7
        # multiplier signs and stationarity of the Lagrangian
        G = np.array([g for g, _, _ in lp.rows])
        w = lp.objective - G.T @ sol.dual
        assert np.all(sol.dual >= -1e-7)
        assert np.all(w >= -1e-7)
        # primal feasibility of the reported point
        for g, h, _ in lp.rows:
            assert g @ sol.x >= h - 1e-9


def test_lp_pivot_budget_breakdown():
    from robustmolp.numerics import NumericalBreakdown
    lp = LinearProgram.build([1.0, 1.0],
                             [([1.0, 1.0], 1.0, ">="), ([1.0, -1.0], 0.0, ">=")],
                             [0.0, 0.0])
    with pytest.raises(NumericalBreakdown):
        solve_lp(lp, max_pivots=1)
    sol = solve_lp(lp)
    assert sol.optimal
    # the count is the one the budget bounds
    assert sol.pivots == 2
    assert solve_lp(lp, max_pivots=sol.pivots).pivots == sol.pivots


def test_lp_without_variables():
    # every row is redundant or contradictory: the drive-out drops them all
    empty = np.zeros(0)
    sol = solve_lp(LinearProgram.build(empty, [(empty, 0.0, "=="), (empty, 0.0, "==")], empty))
    assert sol.optimal and sol.x.size == 0 and np.all(sol.dual == 0.0)
    assert solve_lp(LinearProgram.build(empty, [(empty, 1.0, ">=")], empty)).status == "infeasible"


def test_lp_equality_rows_and_free_vars(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        x0 = rng.integers(-3, 4, n).astype(float)
        g_eq = rng.integers(-3, 4, n).astype(float)
        rows = [(g_eq, float(g_eq @ x0), "==")]
        for _ in range(3):
            g = rng.integers(-4, 5, n).astype(float)
            rows.append((g, float(g @ x0 - rng.integers(0, 3)), ">="))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            rows.append((e.copy(), -8.0, ">="))
            rows.append((-e, -8.0, ">="))
        c = rng.integers(-3, 4, n).astype(float)
        sol = solve_lp(LinearProgram.build(c, rows, np.full(n, -_INF)))
        assert sol.optimal
        assert abs(g_eq @ sol.x - g_eq @ x0) <= 1e-8
        assert abs(sol.value - sol.dual_value) <= 1e-7


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

def test_dual_norm_values():
    assert dual_norm_value([3, -4], 2) == pytest.approx(5.0)
    assert dual_norm_value([3, -4], 1) == pytest.approx(4.0)
    assert dual_norm_value([3, -4], _INF) == pytest.approx(7.0)


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
    sys = ConeFeasibilitySystem.build(
        [VarBlock("simplex", 2)], [({0: np.array([[1.0, -1.0]])}, [0.0])])
    res = solve_cone_system(sys)
    assert res.feasible and res.exact
    assert res.x == pytest.approx([0.5, 0.5], abs=1e-9)


def test_cone_unreachable_equality_residual():
    sys = ConeFeasibilitySystem.build(
        [VarBlock("simplex", 1)], [({0: np.array([[1.0]])}, [2.0])])
    res = solve_cone_system(sys)
    assert not res.feasible and res.exact
    assert res.residual == pytest.approx(1.0, abs=1e-9)
    assert res.x == pytest.approx([1.0], abs=1e-9)
    # the LP already said infeasible; the residual run stops at its first
    # Farkas check instead of running to its iteration cap
    assert res.stop_reason == "farkas" and res.iterations == 1


def test_cone_known_multiplier_system():
    # simplex weights against two active generator rows: the scalarized
    # objective must equal a nonnegative combination of them.
    C = np.array([[-3.0, -1.0, -2.0], [0.0, -1.0, -2.0]])
    gens = np.array([[-2.0, -1.0, -2.0], [-1.0, -2.0, -2.0]])
    sys = ConeFeasibilitySystem.build(
        [VarBlock("simplex", 2), VarBlock("nonneg", 2)],
        [({0: C.T, 1: -gens.T}, np.zeros(3))])
    res = solve_cone_system(sys)
    assert res.feasible and res.exact
    lam, mu = res.x[:2], res.x[2:]
    assert lam == pytest.approx([2 / 3, 1 / 3], abs=1e-8)
    assert mu == pytest.approx([1.0, 0.0], abs=1e-8)


def test_cone_soc_projection_path():
    sys = ConeFeasibilitySystem.build(
        [VarBlock("soc", 3, 2)],
        [({0: np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])}, [2.0, 0.5])])
    res = solve_cone_system(sys)
    assert res.feasible and not res.exact
    assert res.stop_reason == "converged"
    assert res.residual <= 1e-9
    assert np.linalg.norm(res.x[:2]) <= res.x[2] + 1e-10


def test_cone_soc_one_and_inf_norm_lp_paths():
    for s, t_needed in ((1, 3.0), (_INF, 2.0)):
        # y = (2, -1) forced; smallest valid t is ||y||_s
        sys = ConeFeasibilitySystem.build(
            [VarBlock("soc", 3, s), VarBlock("free", 1)],
            [({0: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])}, [2.0, -1.0]),
             ({0: np.array([[0.0, 0.0, 1.0]]), 1: np.array([[1.0]])}, [4.0])])
        res = solve_cone_system(sys)
        assert res.feasible and res.exact
        y, t = res.x[:2], res.x[2]
        assert y == pytest.approx([2.0, -1.0], abs=1e-9)
        if s == 1:
            assert np.abs(y).sum() <= t + 1e-9
        else:
            assert np.abs(y).max() <= t + 1e-9
        assert t >= t_needed - 1e-9


def _scaled(sys):
    """The row-scaled (A, b) that solve_cone_system works on."""
    A, b = sys.stacked()
    mx = np.abs(A).max(axis=1)
    scale = 1.0 / np.where(mx > 0, mx, 1.0)
    return A * scale[:, None], b * scale


def test_cone_polyhedral_paths_agree(rng):
    # LP path and projected-gradient path must report the same feasibility
    # verdict on all-polyhedral systems.
    from robustmolp.numerics import _pgd_min_residual
    for _ in range(40):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        blocks = [VarBlock("simplex", m), VarBlock("nonneg", k)]
        A0 = rng.integers(-3, 4, (2, m)).astype(float)
        A1 = rng.integers(-3, 4, (2, k)).astype(float)
        rhs = rng.integers(-2, 3, 2).astype(float)
        sys = ConeFeasibilitySystem.build(blocks, [({0: A0, 1: A1}, rhs)])
        res = solve_cone_system(sys)
        A, b = _scaled(sys)
        off, D = sys.offsets
        _, r, _, _ = _pgd_min_residual(A, b, blocks, off, D, 1e-7, 60_000)
        assert res.feasible == (r <= 1e-7), (res.residual, r)


def test_farkas_stops_only_on_lp_infeasible_systems(rng):
    # every Farkas stop on an all-polyhedral system (soc blocks of index 1
    # and inf included) must be one the exact LP calls infeasible
    from robustmolp.numerics import _cone_lp_path, _pgd_min_residual
    stops = 0
    for _ in range(60):
        blocks = [VarBlock("simplex", int(rng.integers(1, 3))),
                  VarBlock("nonneg", int(rng.integers(1, 3))),
                  VarBlock("soc", int(rng.integers(1, 4)), 1),
                  VarBlock("soc", int(rng.integers(1, 4)), _INF)]
        k = int(rng.integers(2, 5))
        coeffs = {i: rng.integers(-3, 4, (k, blk.dim)).astype(float)
                  for i, blk in enumerate(blocks)}
        sys = ConeFeasibilitySystem.build(
            blocks, [(coeffs, rng.integers(-3, 4, k).astype(float))])
        A, b = _scaled(sys)
        off, D = sys.offsets
        _, r, _, reason = _pgd_min_residual(A, b, blocks, off, D, 1e-7, 2000)
        if reason == "farkas":
            stops += 1
            assert r > 1e-7
            assert _cone_lp_path(sys, A, b, off, D) is None
    assert stops >= 5


def test_infeasible_soc2_system_stops_at_farkas_certificate():
    # lambda on the simplex, (y, t) in the 2-norm cone with y1 = 2 + lambda1,
    # y2 = lambda2 and t = 1: ||y|| >= 2 > t, so no point fits
    sys = ConeFeasibilitySystem.build(
        [VarBlock("simplex", 2), VarBlock("soc", 3, 2)],
        [({0: np.array([[-1.0, 0.0], [0.0, 0.0], [0.0, -1.0]]),
           1: np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])},
          [2.0, 1.0, 0.0])])
    res = solve_cone_system(sys)
    assert not res.feasible and not res.exact
    assert res.stop_reason == "farkas"
    assert res.iterations <= 64
    # replay the certificate here: z = A x - b with A^T z in the dual cones
    A, b = _scaled(sys)
    z = A @ res.x - b
    c = A.T @ z
    assert np.linalg.norm(c[2:4]) <= c[4]
    g = c[:2].min() - b @ z
    assert g / np.linalg.norm(z) > 1e-7
    assert res.residual >= g / np.linalg.norm(z)
