import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import as_geq, highs
from robustmolp import numerics
from robustmolp.numerics import (min_norm_point, project_simplex, solve_cone_system,
                                 solve_lp)

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
    sol = solve_lp([-1.0], [[-1.0], [1.0]], [-1.0, 0.0], [0.0])
    assert sol.optimal
    assert sol.x == pytest.approx([1.0], abs=1e-9)


def test_lp_unbounded():
    assert solve_lp([-1.0], [[1.0]], [0.0], [0.0]).status == "unbounded"


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

    # the five rows, then -10 <= x_i <= 10, from the origin, which meets them
    G = np.vstack([[a for a, _ in HYPO_ROWS],
                   np.stack([np.eye(3), -np.eye(3)], 1).reshape(-1, 3)])
    h = [b for _, b in HYPO_ROWS] + [-10.0] * 6
    sol = solve_lp(c, G, h, np.zeros(3))
    assert sol.optimal
    assert c @ sol.x == pytest.approx(val, abs=1e-3)
    assert c @ sol.x == pytest.approx(-20.0, abs=1e-9)


def _random_solvable_lp(rng):
    """(c, G, h, x0): up to 3 rows with slack at an integer anchor x0,
    then 0 <= x_i <= 10."""
    n = int(rng.integers(1, 5))
    k = int(rng.integers(0, 4))
    c = rng.integers(-5, 6, n).astype(float)
    x0 = rng.integers(0, 4, n).astype(float)
    G, h = [], []
    for _ in range(k):
        g = rng.integers(-5, 6, n).astype(float)
        G.append(g)
        h.append(float(g @ x0 - rng.integers(0, 5)))
    return (c, np.vstack(G + [-np.eye(n), np.eye(n)]),
            np.array(h + [-10.0] * n + [0.0] * n), x0)


def test_lp_optimum_on_random_solvable_instances(rng):
    for _ in range(100):
        c, G, h, x0 = _random_solvable_lp(rng)
        sol = solve_lp(c, G, h, x0)
        assert sol.optimal
        assert c @ sol.x == pytest.approx(highs(c, G, h, -_INF)[1], abs=1e-7)
        # primal feasibility of the reported point
        assert np.all(G @ sol.x >= h - 1e-9)


def test_lp_pivot_budget_breakdown(monkeypatch):
    from robustmolp import numerics
    c, G, h = [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 0.0, 0.0, 0.0]
    x0 = [3.0, 1.0]
    monkeypatch.setattr(numerics, "MAX_PIVOTS", 1)
    with pytest.raises(numerics.NumericalBreakdown):
        solve_lp(c, G, h, x0)
    monkeypatch.undo()
    sol = solve_lp(c, G, h, x0)
    assert sol.optimal and c @ sol.x == pytest.approx(1.0, abs=1e-12)
    # the count is the one the budget bounds
    assert sol.pivots == 2
    monkeypatch.setattr(numerics, "MAX_PIVOTS", sol.pivots)
    assert solve_lp(c, G, h, x0).pivots == sol.pivots


def test_lp_without_variables():
    # with no variable the slack basis at the empty start is the optimum
    empty = np.zeros(0)
    sol = solve_lp(empty, np.zeros((2, 0)), [0.0, -1.0], empty)
    assert sol.optimal and sol.x.size == 0 and sol.pivots == 0


def test_lp_takes_a_row_the_start_misses_by_rounding_as_met():
    # x0 misses x >= 0.3 by one ulp: the row is taken as met at x0, which
    # is then the optimum of min x, bit for bit
    x0 = np.array([np.nextafter(0.3, 0.0)])
    sol = solve_lp([1.0], [[1.0]], [0.3], x0)
    assert sol.optimal and sol.x.tobytes() == x0.tobytes()


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
        sol = solve_lp(c, *as_geq(G, h, eq), x0)
        assert sol.optimal
        assert abs(G[0] @ sol.x - G[0] @ x0) <= 1e-8
        assert c @ sol.x == pytest.approx(highs(c, G, h, -_INF, eq)[1], abs=1e-7)


def test_lp_whose_bland_pivots_sit_just_above_a_tiny_threshold():
    # a Kelley-cut Slater LP (43 x 9, four free columns) recorded from a
    # check_slater run: with a pivot threshold of 1e-10 its phase 1 took
    # pivots of 1.16e-10 and 1.94e-10, drifted, and declared itself
    # unbounded; started from a point that meets its rows, x = (0, 0, 1),
    # t = -10 and the five bounded columns at 1, it is one phase
    d = json.loads(Path(__file__).with_name("slater_lp_phase_one.json").read_text())
    c, G, h = (np.array(d[k]) for k in ("c", "G", "h"))
    bounded = np.delete(np.eye(len(c)), d["free"], axis=0)
    G, h = np.vstack([G, bounded]), np.concatenate([h, np.zeros(len(bounded))])
    x0 = np.array([0.0, 0.0, 1.0, -10.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    sol = solve_lp(c, G, h, x0)
    assert sol.optimal and np.all(G @ sol.x >= h - 1e-9)
    status, value = highs(c, G, h, -_INF)
    assert status == "optimal" and c @ sol.x == pytest.approx(value, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lp_whose_scaled_data_or_optimum_is_not_finite_breaks_down():
    from robustmolp.feasibility import is_feasible
    from robustmolp.numerics import NumericalBreakdown
    # 1e-300 x >= 3e300 needs x >= 3e600: the row's scaled right-hand side
    # overflowed, a pivot subtracted inf from inf, and the LP was "optimal"
    # at x = [inf], with a RuntimeWarning at each of the two steps
    for x0 in (0.0, 1e308):
        with pytest.raises(NumericalBreakdown, match="not finite"):
            solve_lp(np.zeros(1), [[1e-300]], [3e300], [x0])
    with pytest.raises(NumericalBreakdown, match="not finite"):
        is_feasible([(np.array([1e-300]), 3e300)])
    # an infinite coefficient scales its row to NaN
    with pytest.raises(NumericalBreakdown, match="not finite"):
        solve_lp(np.zeros(2), [[_INF, 1.0]], [1.0], np.zeros(2))
    # finite rows whose slack at the start overflows: x <= 1e308 from -1e308
    with pytest.raises(NumericalBreakdown, match="not finite"):
        solve_lp([-1.0], [[-1.0]], [-1e308], [-1e308])
    # finite rows x1 - x2 <= 1e308 and x2 <= 1e308 whose optimum x1 = 2e308
    # overflows once added to the start
    with pytest.raises(NumericalBreakdown, match="not finite"):
        solve_lp([-1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]], [-1e308, -1e308], [1e308, 1e308])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_row_whose_scaled_right_hand_side_is_minus_inf_is_dropped():
    # 1e-300 x >= -1e300 scales to x >= -inf, which every finite x meets;
    # it once made the whole LP, and the feasibility check, break down
    from robustmolp.feasibility import is_feasible
    res = is_feasible([(np.array([1e-300]), -1e300), (np.array([1.0]), 0.0)])
    assert res.feasible and res.x.tolist() == [0.0]
    sol = solve_lp([1.0], [[1e-300], [1.0]], [-1e300, 0.0], [2.0])
    assert sol.optimal and sol.x.tolist() == [0.0]
    # with every row dropped the start is the optimum of a zero objective
    assert solve_lp([0.0], [[1e-300]], [-1e300], [2.0]).x.tolist() == [2.0]
    assert is_feasible([(np.array([1e-300]), -1e300)]).x.tolist() == [0.0]


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


def _project_simplex_reference(y):
    """The sort and cumulative-sum form of the projection in numpy calls:
    the reference project_simplex must match bit for bit."""
    y = np.asarray(y, float)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.sort(y)[::-1]
        css = np.cumsum(u)
        cond = u - (css - 1.0) / np.arange(1, y.size + 1) > 0
        rho = np.nonzero(cond)[0][-1]
        theta = (css[rho] - 1.0) / (rho + 1.0)
        return np.maximum(y - theta, 0.0)


def _projection_or_error(project, y):
    try:
        return [t.hex() for t in project(y).tolist()]
    except IndexError:
        return "IndexError"


def test_project_simplex_matches_the_sort_and_cumsum_form_bit_for_bit(rng):
    cases = []
    for _ in range(300):
        d = int(rng.integers(1, 10))
        cases += [rng.normal(0, 3, d), rng.normal(0, 1, d) * 10.0 ** rng.integers(-20, 20, d),
                  rng.integers(-2, 3, d) / 2.0,                        # ties
                  rng.choice([0.0, -0.0, 0.5, 1.0, -0.25], d),          # signed zeros
                  rng.normal(0, 1, d) * 10.0 ** rng.choice([-300, 300], d)]
    cases += [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [0.5, 0.5], [1.0, 0.0, -0.0],
              [1e300], [-1e300, 1.0], [1e-300, -1e-300], [1e-300, 1e-300, 2.0]]
    shifted = 0
    for y in cases:
        want = _projection_or_error(_project_simplex_reference, y)
        if want == "IndexError":
            # entries near 1e300 clear no threshold in the sort and cumsum
            # form: project_simplex projects the translate y - max(y) there
            top = max(map(float, y))
            want = _projection_or_error(_project_simplex_reference, [u - top for u in y])
            shifted += 1
        assert _projection_or_error(project_simplex, y) == want, list(y)
    assert shifted


def test_project_simplex_keeps_its_answers_on_non_finite_entries():
    # recorded from the sort and cumulative-sum form, whose numpy calls
    # also warned on inf (the answer is what is pinned): a NaN (which
    # np.sort puts last, so first in decreasing order) or a +inf entry
    # leaves no index where the threshold test holds, and
    # np.nonzero(cond)[0][-1] raised IndexError; a -inf entry projects to 0
    inf, nan = _INF, float("nan")
    answers = [([nan], "IndexError"), ([nan, 1.0], "IndexError"),
               ([1.0, nan], "IndexError"), ([0.5, nan, 0.25], "IndexError"),
               ([inf], "IndexError"), ([inf, 1.0], "IndexError"),
               ([-inf], "IndexError"), ([inf, -inf], "IndexError"),
               ([-inf, 1.0], ["0x0.0p+0", "0x1.0000000000000p+0"]),
               ([1.0, -inf, 0.5], ["0x1.8000000000000p-1", "0x0.0p+0", "0x1.0000000000000p-2"])]
    for y, want in answers:
        with np.errstate(over="ignore", invalid="ignore"):
            assert _projection_or_error(project_simplex, y) == want, y
        assert _projection_or_error(_project_simplex_reference, y) == want, y


def test_project_simplex_past_2_53_projects_the_translate():
    # u - (css - 1)/i rounds to 0 at every entry past 2^53, where the
    # sort and cumsum form finds no threshold and raised IndexError; the
    # projection is translation-invariant, so y - max(y) decides it, an
    # entry pushed below the float range included (no warning)
    answers = [([1e16], [1.0]), ([9.1e15, 0.0], [1.0, 0.0]), ([-1e20], [1.0]),
               ([1e308, 1e308], [0.5, 0.5]), ([1e308, -1e308], [1.0, 0.0]),
               ([0.0, 1e17, 1e17 + 16.0, 1e17 + 16.0], [0.0, 0.0, 0.5, 0.5])]
    for y, want in answers:
        assert _projection_or_error(_project_simplex_reference, y) == "IndexError", y
        assert project_simplex(y).tolist() == want, y


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


def test_min_norm_point_keeps_the_last_iterate_that_lowered_the_value():
    # HiGHS proves these rows (a | b) infeasible with y = (0, 0, 25, 8, 19)/7,
    # so the marker (0, 0, 1) is in their cone.  The value reached 1.9e-27;
    # a column then entered on a gradient of 2.6e-14, just above the
    # tolerance, the value rose to 0.425, and the solve returned that
    # rejected iterate: uncertified, at distance 1
    from robustmolp.feasibility import cone_contains
    rows = np.array([(-2, 4, -2), (-3, 2, 2), (-4, -1, 2), (3, -4, -3), (4, 3, -1)], float)
    res = min_norm_point([(0.0, 0.0, -1.0)], rows)
    assert res.certified and res.distance <= 1e-14
    assert res.mu == pytest.approx([0.0, 0.0, 25 / 7, 8 / 7, 19 / 7], abs=1e-9)
    member = cone_contains(rows, (0.0, 0.0, 1.0))
    assert member.contains and member.weights == pytest.approx(res.mu, abs=1e-12)


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
            assert res.mu.tobytes() == results[0].mu.tobytes()
            assert (res.certified, res.iterations, res.distance.hex()) == (
                results[0].certified, results[0].iterations, results[0].distance.hex())


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


# `pinned_min_norm.json` holds min_norm_point inputs and outputs bit for bit:
# the points and rays, and p_star, weights, mu and distance as `float.hex`,
# with certified and iterations.  The inputs are one radius system of each
# shape the bench's radius catalogue draws, (3, 3) to (7, 6), the golden
# system, a point within 1e-7 of another (its pivot cancels), a point on the
# line of two others (its column is refused), the marker in a cone where the
# guard stops, a cone membership query, a zero ray and rows near 1e300.  A
# change to the arithmetic of the Lawson-Hanson solve must leave every
# record as it is.
PINNED_MIN_NORM = Path(__file__).with_name("pinned_min_norm.json")


def _unhex(rows):
    return [[float.fromhex(t) for t in row] for row in rows]


def min_norm_record(points, rays):
    """The pinned fields of one min_norm_point solve."""
    res = min_norm_point(points, rays)
    return {"p_star": [t.hex() for t in res.p_star.tolist()],
            "weights": [t.hex() for t in res.weights.tolist()],
            "mu": [t.hex() for t in res.mu.tolist()],
            "distance": res.distance.hex(), "certified": bool(res.certified),
            "iterations": res.iterations}


def test_min_norm_point_pinned():
    for name, rec in json.loads(PINNED_MIN_NORM.read_text()).items():
        want = {key: rec[key] for key in rec if key not in ("points", "rays")}
        assert min_norm_record(_unhex(rec["points"]), _unhex(rec["rays"])) == want, name


def test_forward_adds_its_products_left_to_right():
    # three products that a pinned min-norm solve sums: left to right they
    # add to 0x1.ddcd6d1852d83p-1, and to ...84p-1 in sum(), which
    # compensates float sums from Python 3.12 on
    p = [float.fromhex(h) for h in ("0x1.b64d9364d9364p-1", "0x1.b843e6cf89b85p-5",
                                    "0x1.7f7368d020cefp-6")]
    L = [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
    y = numerics._forward(L, [*p, 0.0])
    assert [t.hex() for t in y] == [*(t.hex() for t in p), "-0x1.ddcd6d1852d83p-1"]


def test_pinned_min_norm_inputs_reach_every_line_of_the_kernel():
    # every line of _nnls and of the functions it defines runs on one of the
    # pinned inputs: each branch of the active-set loop is pinned by a record
    codes, todo = [], [numerics._nnls.__code__]
    while todo:
        code = todo.pop()
        codes.append(code)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    want = {(code, line) for code in codes for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}
    seen = set()

    def trace(frame, event, arg):
        if frame.f_code not in codes:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add((frame.f_code, frame.f_lineno))
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for rec in json.loads(PINNED_MIN_NORM.read_text()).values():
            min_norm_point(_unhex(rec["points"]), _unhex(rec["rays"]))
    finally:
        sys.settrace(previous)
    assert sorted((c.co_name, line) for c, line in want - seen) == []


# ---------------------------------------------------------------------------
# solve_cone_system
# ---------------------------------------------------------------------------

# `pinned_cone.json` holds solve_cone_system inputs and outputs bit for bit:
# A, b and the blocks, and x and the residual as `float.hex`, with feasible,
# iterations and the stop reason.  The inputs are three endpoint systems of
# the bench's certify-cone catalogue (one that converges at an early
# test after 17 steps, one that converges at its first polish, a 5 x 5), an
# s = 2 ball beside an s = 1 ball that runs to the budget
# (`_mixed_ball_problem(default_rng(1), (2, 1))` in test_efficiency.py),
# two Farkas stops, a system with a nonnegative block, one whose residual
# stalls at 1e-8, and one whose second-order block projects to its apex.
# A change to how a projected-gradient step is computed must leave every
# record as it is.  `catalogue_early_stop` took 3,585 steps while the
# convergence test ran only every 512th step, and was re-recorded when it
# began to run at every power of two below 512 as well.
PINNED_CONE = Path(__file__).with_name("pinned_cone.json")


def _pinned_cone_systems():
    for name, rec in json.loads(PINNED_CONE.read_text()).items():
        blocks = [tuple(block) for block in rec["blocks"]]
        yield name, rec, (_unhex(rec["A"]), [float.fromhex(t) for t in rec["b"]], blocks)


def test_solve_cone_system_pinned():
    for name, rec, system in _pinned_cone_systems():
        res = solve_cone_system(*system)
        got = {"x": [t.hex() for t in res.x.tolist()], "residual": res.residual.hex(),
               "feasible": bool(res.feasible), "iterations": res.iterations,
               "stop_reason": res.stop_reason}
        assert got == {key: rec[key] for key in got}, name


def test_a_failed_early_convergence_test_leaves_the_run_as_it_was(monkeypatch):
    # stalled_simplex never converges: its nine early tests (steps 1, 2,
    # 4, ..., 256) polish and fail, beside the checkpoints at 0, 512, 1,024
    # and 1,536, and the run still ends on its pinned bits
    polish, calls = numerics._polish_cone, []

    def counted(A, b, x, blocks, offsets):
        calls.append(1)
        return polish(A, b, x, blocks, offsets)

    monkeypatch.setattr(numerics, "_polish_cone", counted)
    (_, rec, system), = [s for s in _pinned_cone_systems() if s[0] == "stalled_simplex"]
    res = solve_cone_system(*system)
    assert (res.iterations, res.stop_reason, len(calls)) == (1537, "stalled", 13)
    assert [t.hex() for t in res.x.tolist()] == rec["x"]
    assert res.residual.hex() == rec["residual"]


def test_pinned_cone_inputs_reach_every_line_of_the_projections():
    # every line of _project_blocks and project_simplex runs on one of the
    # pinned systems, except project_simplex's raises (its input checks and
    # the IndexError of a NaN or +inf entry) and its translation past 2^53,
    # which no cone solve reaches: the tests above pin those
    import inspect
    codes = [numerics._project_blocks.__code__, numerics.project_simplex.__code__]
    want = set()
    for code in codes:
        lines, first = inspect.getsourcelines(code)
        pinned_above = {first + i for i, text in enumerate(lines) if text.strip().startswith(
            ("raise ", "top = ", "return project_simplex("))}
        want |= {(code, line) for _, _, line in code.co_lines()
                 if line is not None and line != code.co_firstlineno and line not in pinned_above}
    seen = set()

    def trace(frame, event, arg):
        if frame.f_code not in codes:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add((frame.f_code, frame.f_lineno))
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for _, _, system in _pinned_cone_systems():
            solve_cone_system(*system)
    finally:
        sys.settrace(previous)
    assert sorted((c.co_name, line) for c, line in want - seen) == []


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


def test_cone_system_whose_data_is_not_finite_breaks_down():
    # an overflowed endpoint row C x_bar reached the row scaling as inf,
    # which made NaN entries, and numpy's SVD raised LinAlgError; a
    # right-hand side of 1e10 on a row of 1e-300 overflows once scaled
    from robustmolp.numerics import NumericalBreakdown
    blocks = [("simplex", 1), ("soc", 2)]
    for A, b in (([[_INF, 1.0, -1.0]], [0.0]), ([[1.0, 1.0, -1.0]], [float("nan")]),
                 ([[1e-300, 0.0, 0.0]], [1e10])):
        with pytest.raises(NumericalBreakdown, match="not finite"):
            solve_cone_system(A, b, blocks)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cone_system_with_a_subnormal_row_is_scaled_without_overflow():
    # x1 = x3 on the simplex: the row's largest |entry| is 1e-310, whose
    # reciprocal overflows, so the row is divided by it instead; its
    # reciprocal scaled the row by inf, with a warning, and numpy's SVD
    # then raised LinAlgError (exit 3 in the CLI)
    res = solve_cone_system([[1e-310, 0.0, -1e-310]], [0.0], [("simplex", 2), ("nonneg", 1)])
    assert res.feasible and res.stop_reason == "converged"
    assert res.x[0] == pytest.approx(res.x[2], abs=1e-9)


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
    return highs(np.zeros(width), G, h, lb, np.array(senses) == "==")[0] == "optimal"


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
