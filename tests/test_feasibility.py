import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import forbid_lp, highs, random_feasible_rows
from robustmolp import feasibility
from robustmolp.feasibility import (NominalInfeasibleError, NonCertifiedError,
                                    ball_robust_feasible,
                                    cone_contains, is_feasible,
                                    maximize_min_slack,
                                    radius_of_robust_feasibility)
from robustmolp.model import (Ball, ConcaveRow, RobustFeasibleSet, UncertainMOLP,
                              load_problem, reduce_constraints, validate_problem)
from robustmolp.numerics import VI_TOL, NumericalBreakdown

_INF = float("inf")
_NAN = float("nan")

HYPO = [(np.array([-2.0, -1, -2]), -6.0), (np.array([-1.0, -2, -2]), -6.0),
        (np.array([-1.0, 0, 0]), -3.0), (np.array([0.0, -1, 0]), -3.0),
        (np.array([0.0, 0, -1]), -3.0)]


def _nominal(name):
    """The nominal rows of an all-singleton problem file beside this one."""
    problem = load_problem(str(Path(__file__).with_name(name)))
    return [(c.a_bar, c.b_bar) for c in problem.constraints]


# ---------------------------------------------------------------------------
# is_feasible / cone_contains
# ---------------------------------------------------------------------------

def test_is_feasible_trivial_cases():
    res = is_feasible([(np.array([1.0]), 0.0)])
    assert res.feasible and res.x[0] >= -1e-9
    assert not is_feasible([(np.array([1.0]), 0.0), (np.array([-1.0]), 1.0)]).feasible


def test_is_feasible_five_row_system():
    res = is_feasible(HYPO)
    assert res.feasible
    for a, b in HYPO:
        assert a @ res.x >= b - 1e-9
    # the known point (1, 1, 3/2) also satisfies every row
    x = np.array([1.0, 1.0, 1.5])
    assert all(a @ x >= b for a, b in HYPO)


def test_cone_contains_hand_cases():
    res = cone_contains([(1.0, 0.0), (-1.0, 1.0)], (0.0, 1.0))
    assert res.contains
    assert res.weights == pytest.approx([1.0, 1.0], abs=1e-9)
    assert not cone_contains([(1.0, 0.0)], (0.0, 1.0)).contains


def test_cone_membership_is_one_min_norm_point(monkeypatch):
    # the distance from 0 to -target + cone(generators), no LP
    forbid_lp(monkeypatch)
    solves = _counting(monkeypatch, "min_norm_point")
    res = cone_contains([(1.0, 0.0), (-1.0, 1.0), (0.0, 0.0)], (0.0, 1.0))
    assert res.contains and res.weights == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)
    assert not cone_contains([(1.0, 0.0)], (0.0, 1.0)).contains
    assert cone_contains([(1.0, 0.0)], (0.0, 0.0)).contains
    assert len(solves) == 3


@pytest.mark.parametrize("generators, target", [
    ([[1.0, 0.0]], [_NAN, 0.0]),
    ([[1.0, 0.0]], [_INF, 0.0]),
    ([[_NAN, 0.0]], [1.0, 0.0]),
    ([[1.0, 0.0], [0.0, -_INF]], [1.0, 0.0]),
])
def test_cone_membership_of_data_that_is_not_finite_raises(generators, target):
    # a NaN or infinite entry once came back contained, with weights [nan],
    # after an "invalid value" RuntimeWarning
    with pytest.raises(ValueError, match="finite"):
        cone_contains(generators, target)


def test_cone_membership_marker_on_five_row_system():
    gens = [np.concatenate([a, [b]]) for a, b in HYPO]
    # feasible system: the inconsistency marker is outside the data cone
    assert not cone_contains(gens, (0.0, 0.0, 0.0, 1.0)).contains


def test_infeasibility_equals_marker_membership(rng):
    # 100 random finite systems: infeasible exactly when (0,...,0,1) is in
    # the cone of the row vectors
    hits = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 6))
        if rng.integers(0, 2) == 0:
            rows, _ = random_feasible_rows(rng, n, p)
        else:
            rows = [(rng.integers(-5, 6, n).astype(float), float(rng.integers(-5, 6)))
                    for _ in range(p)]
            rows = [(a if a.any() else np.eye(n)[0], b) for a, b in rows]
        gens = [np.concatenate([a, [b]]) for a, b in rows]
        target = np.zeros(n + 1)
        target[-1] = 1.0
        res = is_feasible(rows)
        feas = res.feasible
        member = cone_contains(gens, target).contains
        assert feas == (not member), (rows, feas, member)
        # with no 2-norm row the Slater search is the same search: "none"
        # exactly where is_feasible says infeasible, else its point
        search = maximize_min_slack(RobustFeasibleSet(n, np.array(gens), np.arange(p)))
        assert (search.stop == "none") == (not feas), (rows, search)
        if feas:
            assert search.x.tobytes() == res.x.tobytes(), rows
        # both answers come from one kernel: HiGHS is the independent one
        A, b = map(np.array, zip(*rows))
        assert feas == (highs(np.zeros(n), A, b, -_INF)[0] == "optimal"), rows
        hits += not feas
    assert 0 < hits < 100     # the sample covers both outcomes


# ---------------------------------------------------------------------------
# hypographical set
# ---------------------------------------------------------------------------

def test_hypographical_set_shape():
    # the points of the hypographical set are the rows of one array [A | b]
    S = feasibility._system([(np.array([1.0]), 0.0)])
    assert S.shape == (1, 2) and S.dtype == float
    assert np.array_equal(S[0], [1.0, 0.0])
    S5 = feasibility._system(HYPO)
    assert S5.shape == (5, 4)
    assert np.array_equal(S5[2], [-1.0, 0.0, 0.0, -3.0])
    with pytest.raises(ValueError, match="nonempty"):
        feasibility._system([])
    for bad in (_NAN, _INF, -_INF):
        with pytest.raises(ValueError, match="finite"):
            feasibility._system([(np.array([1.0, 0.0]), 0.0), (np.array([bad, 1.0]), 0.0)])
        with pytest.raises(ValueError, match="finite"):
            feasibility._system([(np.array([1.0, 0.0]), bad)])


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def test_radius_known_five_row_value():
    res = radius_of_robust_feasibility(HYPO)
    assert res.certified
    assert res.rho == pytest.approx(math.sqrt(28 / 3), abs=1e-9)
    assert res.p_star == pytest.approx([-1 / 3, -1 / 3, -1 / 3, -3.0], abs=1e-8)


def test_radius_single_row():
    res = radius_of_robust_feasibility([(np.array([1.0]), 0.0)])
    assert res.rho == pytest.approx(1.0, abs=1e-10)


SIX_ROWS = [(np.array([2.0, 1, 0]), 6.0), (np.array([-5.0, -4, 4]), -6.0),
            (np.array([-5.0, -4, -4]), -31.0), (np.array([2.0, 3, 3]), 17.0),
            (np.array([3.0, -3, -1]), -4.0), (np.array([-4.0, 2, -5]), -19.0)]


def test_radius_small_certified_on_six_row_system():
    # a projected-gradient solve ran ~30 s here, then raised NonCertifiedError
    res = radius_of_robust_feasibility(SIX_ROWS)
    assert res.certified
    assert res.rho == pytest.approx(0.013065011515622, abs=1e-9)
    assert ball_robust_feasible(SIX_ROWS, 0.5 * res.rho).status == "feasible"
    assert ball_robust_feasible(SIX_ROWS, 2.0 * res.rho).status == "infeasible"


def test_radius_infeasible_nominal_raises():
    with pytest.raises(NominalInfeasibleError):
        radius_of_robust_feasibility([(np.array([1.0]), 0.0),
                                      (np.array([-1.0]), 1.0)])
    rows = _nominal("infeasible_nominal_problem.json")     # x1 >= 1, -x1 >= 0
    with pytest.raises(NominalInfeasibleError):
        radius_of_robust_feasibility(rows)
    with pytest.raises(NominalInfeasibleError):
        ball_robust_feasible(rows, 0.5)


def _grid_distance_two_rows(points, lam_step=1e-4):
    """Staged independent grid oracle for the 2-point hypographical set:
    full lambda grid, coarse mu pass then 1e-4 refinement."""
    p0, p1 = np.asarray(points[0], float), np.asarray(points[1], float)
    lam = np.arange(0.0, 1.0 + lam_step / 2, lam_step)
    pts = np.outer(lam, p0) + np.outer(1 - lam, p1)
    best = (np.inf, 0.0, 0.0)
    mu_grid = np.arange(0.0, 3.0 + 5e-3, 1e-2)
    for mu in mu_grid:
        q = pts.copy()
        q[:, -1] -= mu
        d = np.linalg.norm(q, axis=1)
        i = int(np.argmin(d))
        if d[i] < best[0]:
            best = (float(d[i]), float(lam[i]), mu)
    mu_lo = max(0.0, best[2] - 1e-2)
    for mu in np.arange(mu_lo, min(3.0, best[2] + 1e-2) + 5e-5, 1e-4):
        q = pts.copy()
        q[:, -1] -= mu
        d = np.linalg.norm(q, axis=1)
        i = int(np.argmin(d))
        if d[i] < best[0]:
            best = (float(d[i]), float(lam[i]), mu)
    return best[0]


def test_radius_two_row_interval_against_grid_oracle():
    rows = [(np.array([1.0]), 0.0), (np.array([-1.0]), -1.0)]   # 0 <= x <= 1
    res = radius_of_robust_feasibility(rows)
    grid = _grid_distance_two_rows([[1.0, 0.0], [-1.0, -1.0]])
    assert res.rho == pytest.approx(grid, abs=1e-3)
    assert res.rho == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-9)


def test_radius_matches_grid_oracle_on_random_two_row_systems(rng):
    done = 0
    while done < 15:
        rows, _ = random_feasible_rows(rng, n=int(rng.integers(1, 4)), p=2)
        res = radius_of_robust_feasibility(rows)
        if res.rho < 1e-3:
            continue
        pts = [np.concatenate([a, [b]]) for a, b in rows]
        # mu range must cover the optimum; scale it with the data
        grid = _grid_distance_two_rows(pts)
        if res.mu > 2.9:
            continue
        assert res.rho == pytest.approx(grid, abs=1e-3)
        done += 1


# ---------------------------------------------------------------------------
# ball probing
# ---------------------------------------------------------------------------

def test_ball_probe_on_five_row_system():
    res = ball_robust_feasible(HYPO, 2.9)
    assert res.status == "feasible"
    x = res.x
    worst = min(a @ x - b - 2.9 * math.sqrt(x @ x + 1.0) for a, b in HYPO)
    assert worst >= -1e-8
    assert ball_robust_feasible(HYPO, 3.2).status == "infeasible"
    assert ball_robust_feasible(HYPO, 0.0).status == "feasible"


def test_ball_probe_inconclusive_at_radius():
    # at rho itself neither replay holds; 5e-7 past it, inside the 1e-6
    # band that once made every such probe inconclusive, the radius
    # weights refute a scenario of the ball
    rho = math.sqrt(28 / 3)
    assert ball_robust_feasible(HYPO, rho).status == "inconclusive"
    assert ball_robust_feasible(HYPO, rho + 5e-7).status == "infeasible"


def test_ball_probe_infeasible_nominal_raises():
    with pytest.raises(NominalInfeasibleError):
        ball_robust_feasible([(np.array([1.0]), 0.0), (np.array([-1.0]), 1.0)], 0.5)


def test_ball_probe_solves_no_nominal_lp_when_rho_is_positive(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return is_feasible(rows)

    monkeypatch.setattr(feasibility, "is_feasible", counting)
    assert ball_robust_feasible(HYPO, 2.9).status == "feasible"
    # rho > 0 and the closed-form point prove the nominal system feasible
    assert calls == []
    # rounding gives this system b* = 1.3e-15 for 0: the point of alpha = 0
    # misses its first row by 7e-15, that of rho/2 has slack >= rho/2
    tight = [(np.array([1.0, 3, 2, 1]), 7.0), (np.array([5.0, 2, 1, -5]), 0.0),
             (np.array([0.0, -3, 4, 3]), -2.0), (np.array([1.0, 1, 4, -3]), -11.0),
             (np.array([2.0, -3, -2, -1]), -4.0)]
    assert radius_of_robust_feasibility(tight).rho > 1.0
    assert calls == []
    with pytest.raises(NominalInfeasibleError):
        ball_robust_feasible([(np.array([1.0]), 0.0), (np.array([-1.0]), 1.0)], 0.0)


def _counting(monkeypatch, name):
    """Replace feasibility.<name> by a wrapper that records each call."""
    calls = []
    original = getattr(feasibility, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(feasibility, name, counted)
    return calls


# ---------------------------------------------------------------------------
# nominal feasibility from the radius: the closed-form point, else the marker
# ---------------------------------------------------------------------------

def test_zero_radius_decides_nominal_feasibility_by_the_marker_projection(monkeypatch):
    # 0.x >= 0, x1 >= 0 and -x1 >= 0 in R^2: the zero row puts the origin
    # in the hypographical set, so rho is 0 exactly and cannot prove
    # feasibility; a second minimum-norm point, of the marker, does
    with monkeypatch.context() as m:
        mnp = _counting(m, "min_norm_point")
        forbid_lp(m)
        assert radius_of_robust_feasibility(_nominal("zero_radius_problem.json")).rho == 0.0
    assert len(mnp) == 2
    # the rows are read once, so an iterator of them will do
    rows = _nominal("zero_radius_problem.json")
    assert radius_of_robust_feasibility(iter(rows)).rho == 0.0
    # without the zero row rho is 0 up to the rounding of the min-norm solve
    pair = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), 0.0)]
    assert radius_of_robust_feasibility(pair).rho <= 1e-15


def test_radius_raises_nominal_infeasible_exactly_when_the_lp_does(rng):
    seen = {True: 0, False: 0}
    for _ in range(300):
        n, p = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        rows = [(rng.integers(-3, 4, n).astype(float), float(rng.integers(-3, 4)))
                for _ in range(p)]
        feasible = is_feasible(rows).feasible
        A, b = map(np.array, zip(*rows))
        assert feasible == (highs(np.zeros(n), A, b, -_INF)[0] == "optimal"), rows
        try:
            radius_of_robust_feasibility(rows)
        except NominalInfeasibleError:
            assert not feasible, rows
        else:
            assert feasible, rows
        seen[feasible] += 1
    assert min(seen.values()) >= 50, seen


def test_witness_check_of_rows_near_the_float_limit(monkeypatch):
    # the closed-form point of each system proves it feasible with no LP; at
    # that point the float product A x of the second overflows, and its
    # slack is redone exactly (a RuntimeWarning is an error in this suite)
    unit = [(np.array([1e300, 0.0]), -1e300), (np.array([0.0, 1e300]), -1e300),
            (np.array([-1e300, -1e300]), -3e300)]
    wide = [(np.array([2.0, 3e300, 1.0]), -1.0)]
    with monkeypatch.context() as m:
        feas = _counting(m, "is_feasible")
        rr = radius_of_robust_feasibility(unit)
        out = ball_robust_feasible(unit, 0.5 * rr.rho)
        assert out.status == "feasible" and out.x == pytest.approx([0.5, 0.5])
        rr = radius_of_robust_feasibility(wide)
        # x = (2, 3e300, 1): the slack and alpha ||(x, 1)|| both pass the
        # float range, which leaves the ball's check undecided
        assert ball_robust_feasible(wide, 0.5 * rr.rho).status == "inconclusive"
    assert feas == []


def test_radius_of_a_unit_row_beside_a_row_near_1e300():
    # the nearest point is the unit row's (1, 0, 0, -5): its norm was taken
    # at the scale of the 1e300 row, where its square underflows to 0
    rows = [(np.array([2.0, 3e300, 1.0]), -1.0), (np.array([1.0, 0.0, 0.0]), -5.0)]
    assert radius_of_robust_feasibility(rows).rho == pytest.approx(math.sqrt(26.0),
                                                                   abs=1e-12)


@pytest.mark.xfail(reason="at the scale of the 1e300 row the VI check cannot "
                          "tell the segment's nearest point from its unit end")
def test_radius_of_a_segment_from_a_unit_row_to_a_row_near_1e300():
    # the segment from (-1, 0, -1) to (3e300, 1, -1) passes within 1 + 1e-600
    # of the origin; the solve stops at its end (-1, 0, -1), at sqrt(2)
    rows = [(np.array([3e300, 1.0]), -1.0), (np.array([-1.0, 0.0]), -1.0)]
    assert radius_of_robust_feasibility(rows).rho == pytest.approx(1.0, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radius_of_a_subnormal_row():
    # [1e-310 | -1e-310]: the reciprocal of the largest entry overflowed and
    # inf * 0 made the scaled data NaN (exit 2 from the CLI); dividing by
    # the entry keeps it in range
    rr = radius_of_robust_feasibility(_nominal("subnormal_radius_problem.json"))
    assert rr.certified and rr.mu == 0.0 and rr.weights.tolist() == [1.0]
    assert rr.rho == pytest.approx(math.sqrt(2) * 1e-310, rel=1e-12)


def test_ball_witness_of_a_radius_past_1e154():
    # t = (max b + alpha) / (rho (rho - alpha)) with the product formed
    # first overflows from rho near 1e154: t became 0, x = 0 missed the row
    rows = [(np.array([1e300]), 1.0)]
    rho = radius_of_robust_feasibility(rows).rho
    out = ball_robust_feasible(rows, 0.5 * rho)
    assert out.status == "feasible" and out.x.tolist() == [1.0]
    worst = 1e300 * out.x[0] - 1.0 - 0.5 * rho * math.hypot(out.x[0], 1.0)
    assert worst == pytest.approx(2.9289321881345e299, rel=1e-12)


def test_is_feasible_finds_rows_near_1e300_feasible():
    # x = (-6, 3, 5.7e-300) satisfies every row of the file in exact
    # rationals; a Phase-I LP once called these rows infeasible, and the
    # marker projection gives a witness that meets them exactly
    rows = _nominal("float_limit_feasible_problem.json")
    x = [Fraction(v) for v in (-6.0, 3.0, 5.7e-300)]
    assert all(sum(Fraction(ai) * xi for ai, xi in zip(a.tolist(), x)) >= Fraction(b)
               for a, b in rows)
    res = is_feasible(rows)
    assert res.feasible
    x = [Fraction(v) for v in res.x.tolist()]
    for a, b in rows:
        assert sum(Fraction(ai) * xi for ai, xi in zip(a.tolist(), x)) >= Fraction(b)


# x1 >= 1, x2 >= 1e5 x1, x3 >= 1e5 x2: unit rows with right-hand sides of
# at most 1, whose least-norm point (1, 1e5, 1e10) puts the marker
# projection about 1e-10 from 0, inside VI_TOL
CHAIN = [(np.array([1.0, 0.0, 0.0]), 1.0), (np.array([-1e5, 1.0, 0.0]), 0.0),
         (np.array([0.0, -1e5, 1.0]), 0.0)]


def test_a_chain_to_1e10_is_feasible_though_the_marker_is_near_its_cone():
    # the ray coefficients of that projection do not replay as a Farkas
    # certificate (A^T y is 1e-10 in x3, all of |A|^T y there), so the
    # distance alone does not decide; the refined point is the least-norm one
    res = is_feasible(CHAIN)
    assert res.feasible
    np.testing.assert_allclose(res.x, [1.0, 1e5, 1e10], rtol=1e-9)
    assert radius_of_robust_feasibility(CHAIN).rho > 0
    assert ball_robust_feasible(CHAIN, 0.0).status == "feasible"


def test_the_marker_is_not_in_the_cone_of_a_chain_to_1e10():
    # the weights (1, 1e-5, 1e-10) bring -e + cone(rows) within VI_TOL of 0
    # but rebuild the marker only to 1e-10 in x3, all of |G|^T w there: a
    # distance alone once made it a member, an infeasibility proof for rows
    # that is_feasible meets at (1, 1e5, 1e10)
    gens = [np.append(a, b) for a, b in CHAIN]
    assert feasibility.min_norm_point([-np.eye(1, 4, 3)[0]], gens).distance <= VI_TOL
    assert not cone_contains(gens, (0.0, 0.0, 0.0, 1.0)).contains


def test_a_chain_capped_below_its_least_point_is_infeasible():
    # -x3 >= -5e8 caps a chain that needs x3 >= 1e9; the projection ends
    # 1e-9 from 0 without the cap row, and the certificate (1, 1, 1e-4,
    # 2e-9) comes from least squares on the rows that its refined point
    # (1, 1e4, 1e9) meets with equality or misses, each scaled to length 1
    rows = [(np.array([1.0, 0.0, 0.0]), 1.0), (np.array([-1e4, 1.0, 0.0]), 0.0),
            (np.array([0.0, -1e5, 1.0]), 0.0), (np.array([0.0, 0.0, -1.0]), -5e8)]
    assert highs(np.zeros(3), *map(np.array, zip(*rows)), -_INF)[0] == "infeasible"
    assert not is_feasible(rows).feasible
    with pytest.raises(NominalInfeasibleError):
        radius_of_robust_feasibility(rows)


def test_a_thin_region_near_1e9_is_feasible():
    # feasible near (0, 1e9), about 1 wide: the projection's own point misses
    # 4 x1 >= -1 by 1e-7, and the least-squares step onto the rows that it
    # meets with equality or misses gives a point that meets every row
    rows = [(np.array([4.0, 2.0]), 1999999998.0), (np.array([1.0, -1.0]), -1000000002.0),
            (np.array([4.0, 0.0]), -1.0), (np.array([-3.0, 4.0]), 3999999999.0)]
    res = is_feasible(rows)
    assert res.feasible
    assert all(a @ res.x - b >= -1e-8 * np.abs(a) @ np.abs(res.x) for a, b in rows)


def test_alpha_zero_probe_of_rows_near_1e300_is_the_rho_half_point():
    # a Phase-I LP once called these rows infeasible, and the probe at
    # alpha = 0 took its word; x = (-6, 3, 5.7e-300) satisfies every row, and
    # the radius's rho/2 point does too, exactly
    rows = _nominal("float_limit_feasible_problem.json")
    assert radius_of_robust_feasibility(rows).rho == pytest.approx(4.4232586846e299,
                                                                   rel=1e-9)
    out = ball_robust_feasible(rows, 0.0)
    assert out.status == "feasible" and out.rho is None
    x = [Fraction(v) for v in out.x.tolist()]
    for a, b in rows:
        assert sum(Fraction(ai) * xi for ai, xi in zip(a.tolist(), x)) >= Fraction(b)


def test_alpha_zero_probe_never_raises_non_certified(monkeypatch):
    # an uncertified radius still gives a rho/2 point whose slacks are
    # checked, which answers alpha = 0 as it answers alpha = 1; no alpha
    # raises, and only the radius itself does
    real = feasibility.min_norm_point
    monkeypatch.setattr(feasibility, "min_norm_point",
                        lambda *args: replace(real(*args), certified=False))
    with pytest.raises(NonCertifiedError):
        radius_of_robust_feasibility(HYPO)
    out = ball_robust_feasible(HYPO, 0.0)
    assert out.status == "feasible"
    assert out.x.tolist() == ball_robust_feasible(HYPO, 1.0).x.tolist()
    with pytest.raises(NominalInfeasibleError):
        ball_robust_feasible([(np.array([1.0]), 0.0), (np.array([-1.0]), 1.0)], 0.0)


def test_min_slack_of_linear_rows_is_one_lp(monkeypatch):
    forbid_lp(monkeypatch)
    solves = _counting(monkeypatch, "min_norm_point")
    X = RobustFeasibleSet(2, np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -2.0], [-1.0, -1.0, -3.0]]),
                          np.arange(3))
    search = maximize_min_slack(X)
    # with no 2-norm row the rows need only be satisfied: one feasibility
    # LP, decided by the marker projection of is_feasible, whose value is 1
    assert len(solves) == 1
    assert (search.value, search.rounds, search.stop) == (1.0, 1, "found")
    assert min(X.slack(search.x)) >= 0.0
    # x1 >= 1 and -x1 >= 0 leave no point: -e is in the cone of the rows
    X = RobustFeasibleSet(1, np.array([[1.0, 1.0], [-1.0, 0.0]]), np.arange(2))
    search = maximize_min_slack(X)
    assert (search.x, search.value, search.stop) == (None, -_INF, "none")
    assert search.distance <= VI_TOL
    assert len(solves) == 2


def test_a_row_past_the_float_range_once_scaled_names_unit_rows():
    # 1e-300 x >= 1e300 is met by x = 1e600 but by no float: divided by its
    # largest |coefficient| the row's right-hand side is +inf, and no LP runs
    with pytest.raises(NumericalBreakdown, match=r"^unit_rows: a row divided by its "
                       r"largest \|coefficient\| is not finite$"):
        is_feasible([(np.array([1e-300]), 1e300)])


def _random_slack_set(rng, scale=1.0):
    """A reduced set over R^n of linear, s = 1 and s = inf rows and one
    2-norm row, each with q <= 3 columns of P, and the rows of that set
    written without the lift as [a | b | on] rows, on = 1 for the 2-norm
    row's: each s = inf row as its 2^q rows a_bar - P sigma,
    sigma in {-1, 1}^q, each s = 1 row as its 2q rows a_bar -+ P e_i.  The
    2-norm row is written both ways, as an s = inf row (the restriction)
    and as an s = 1 row (the relaxation); returns (X, restriction,
    relaxation).  Every row is multiplied by scale."""
    n = int(rng.integers(1, 4))
    rows, source, concave, flat = [], [], [], {1.0: [], _INF: []}
    kinds = [("linear", 1.0, _INF)[int(rng.integers(0, 3))]
             for _ in range(int(rng.integers(0, 5)))]
    kinds.insert(int(rng.integers(0, len(kinds) + 1)), 2.0)
    for j, kind in enumerate(kinds):
        a, b = rng.integers(-5, 6, n).astype(float), float(rng.integers(-5, 3))
        P = rng.integers(-2, 3, (n, int(rng.integers(1, 4)))).astype(float)
        if kind == 2.0:     # 1/8 keeps its slack below the cap of 1 more often
            a, b, P = a / 8, b / 8, P / 8
        a, b, P = scale * a, scale * b, scale * P
        if kind == "linear":
            rows.append([*a, b])
            source.append(j)
            for out in flat.values():
                out.append([*a, b, 0.0])
            continue
        q = P.shape[1]
        concave.append(ConcaveRow(a, b, j, np.vstack([P, np.zeros(q)]), kind))
        for s, out in flat.items():
            s = s if kind == 2.0 else kind
            signs = (np.vstack([np.eye(q), -np.eye(q)]) if s == 1 else
                     1.0 - 2.0 * ((np.arange(1 << q)[:, None] >> np.arange(q)) & 1))
            out += [[*(a - P @ w), b, float(kind == 2.0)] for w in signs]
    X = RobustFeasibleSet(n, np.reshape(rows, (-1, n + 1)), np.array(source, int),
                          tuple(concave))
    return X, np.array(flat[_INF]), np.array(flat[1.0])


def _check_min_slack_against_the_lp_without_the_lift(rng, scale):
    # max t <= 1 s.t. a.x - b >= t on the 2-norm row's rows and >= 0 on the
    # others, solved by HiGHS: a restriction optimum > 0 shows a Slater
    # point, which the search must find; a relaxation optimum <= 0 shows
    # none, which it must prove; an infeasible LP leaves no point at all.
    seen = {"infeasible": 0, "found": 0, "none": 0}
    for _ in range(60):
        X, inner, outer = _random_slack_set(rng, scale)
        n = X.n
        solved = []
        for flat in (inner, outer):
            G = np.vstack([np.column_stack([flat[:, :n], -flat[:, -1]]),
                           [*np.zeros(n), -1.0]])
            h = np.append(flat[:, n], -1.0)
            solved.append(highs(G[-1], G, h, -_INF))
        (status, low), (status_out, high) = solved
        # t is free, so both LPs are feasible exactly when the other rows are
        assert status == status_out
        search = maximize_min_slack(X)
        if status == "infeasible":
            assert (search.x, search.value, search.stop) == (None, -_INF, "none")
            seen[status] += 1
            continue
        assert status == "optimal"
        low, high = -low, -high
        if low > 0 or high <= 0:
            assert search.stop == ("found" if low > 0 else "none"), (X, low, high, search)
            seen[search.stop] += 1
        if search.stop != "found":
            assert search.x is None
            continue
        # the min-slack at the point may pass the cap; up to it, it is bounded,
        # and the other rows are met to VI_TOL of the data's scale
        assert 0.0 < min(search.value, 1.0) <= high + 1e-7 * scale
        assert min(X.slack(search.x), default=0.0) >= -VI_TOL * scale
        assert all(r.slack(search.x) >= -VI_TOL * scale for r in X.concave if r.s != 2)
    assert min(seen.values()) >= 5, seen


def test_min_slack_matches_the_lp_written_without_the_lift(rng):
    _check_min_slack_against_the_lp_without_the_lift(rng, 1.0)


def test_min_slack_in_rows_scaled_by_1e_6_matches_the_lp_without_the_lift(rng):
    # rows in other units give the same answers
    _check_min_slack_against_the_lp_without_the_lift(rng, 1e-6)


def test_min_slack_needs_a_lift_and_strict_two_norm_rows():
    # the joint ball 1 - sqrt(x^2 + 1) / 2 >= 0 around (0, -1): its 1-norm
    # restriction 1 - (|x| + 1) / 2 and its inf-norm relaxation
    # 1 - max(|x|, 1) / 2 both peak at x = 0 with the ball's value 1/2
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Ball([0.0], -1.0, 0.5),))
    X = reduce_constraints(validate_problem(p))
    search = maximize_min_slack(X)
    assert search.x.tolist() == [0.0] and search.value == 0.5
    # strict slack is asked of the 2-norm row x - |x| / 2 >= 0 only: beside
    # x >= 0, whose slack is not maximized, its tangent cut at x = 0 gives
    # x = 1, the first point of positive slack, 1/2
    two = ConcaveRow(np.array([1.0]), 0.0, 1, np.array([[0.5], [0.0]]), 2.0)
    X = RobustFeasibleSet(1, np.array([[1.0, 0.0]]), np.array([0]), (two,))
    search = maximize_min_slack(X)
    assert (search.x.tolist(), search.value, search.rounds) == ([1.0], 0.5, 2)


def _witness_systems(rng):
    """Random nominal systems, some homogeneous (b* = 0), plus hand cases:
    x >= 0 has p* = (1, 0), and x >= -1e-12 has b* = -1e-12."""
    yield [(np.array([1.0]), 0.0)]
    yield [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0)]
    yield [(np.array([1.0]), -1e-12)]
    yield [(np.array([1.0, 1.0]), -1e-12), (np.array([1.0, -1.0]), -3e-13)]
    for k in range(60):
        rows, x0 = random_feasible_rows(rng, n=int(rng.integers(1, 5)),
                                        p=int(rng.integers(1, 6)), min_slack=1)
        if k % 3 == 0:      # homogeneous rows a.x >= 0, strict at x0
            rows = [(a, 0.0) for a, _ in rows if a @ x0 > 0] or rows
        yield rows


def test_ball_witness_is_closed_form_and_robust_feasible(monkeypatch, rng):
    zero_b = tiny_b = 0
    for rows in _witness_systems(rng):
        for scale in (1e-6, 1.0, 1e6):
            scaled = [(scale * a, scale * b) for a, b in rows]
            rr = radius_of_robust_feasibility(scaled)
            b_star = rr.p_star[-1]
            zero_b += b_star == 0.0
            tiny_b += -1e-12 * scale <= b_star < 0.0
            for frac in (0.1, 0.5, 0.9, 1.0 - 1e-6):
                alpha = frac * rr.rho
                with monkeypatch.context() as m:
                    feas = _counting(m, "is_feasible")
                    forbid_lp(m)
                    mnp = _counting(m, "min_norm_point")
                    out = ball_robust_feasible(scaled, alpha)
                assert out.status == "feasible"
                assert (len(feas), len(mnp)) == (0, 1)
                x = out.x
                worst = (min(float(a @ x - b) for a, b in scaled)
                         - alpha * math.sqrt(float(x @ x) + 1.0))
                assert worst >= 0.0, (scaled, alpha, worst)
    assert zero_b >= 6 and tiny_b >= 6


def test_ball_bracketing_random_systems(rng):
    done = 0
    while done < 25:
        rows, _ = random_feasible_rows(rng, n=int(rng.integers(1, 4)),
                                       p=int(rng.integers(1, 6)))
        rr = radius_of_robust_feasibility(rows)
        if rr.rho < 1e-3:
            continue
        lo = ball_robust_feasible(rows, 0.9 * rr.rho)
        hi = ball_robust_feasible(rows, 1.1 * rr.rho)
        assert lo.status == "feasible"
        assert hi.status == "infeasible"
        x = lo.x
        a9 = 0.9 * rr.rho
        worst = min(a @ x - b - a9 * math.sqrt(x @ x + 1.0) for a, b in rows)
        assert worst >= -1e-8
        done += 1


def test_ball_monotonicity(rng):
    done = 0
    while done < 10:
        rows, _ = random_feasible_rows(rng, n=2, p=3)
        rr = radius_of_robust_feasibility(rows)
        if rr.rho < 0.05:
            continue
        ladder = [f * rr.rho for f in (0.2, 0.5, 0.8, 1.2, 1.5)]
        statuses = [ball_robust_feasible(rows, a).status for a in ladder]
        # feasible at alpha2 implies feasible at every smaller alpha
        seen_nonfeasible = False
        for s in statuses:
            if s != "feasible":
                seen_nonfeasible = True
            else:
                assert not seen_nonfeasible
        done += 1


# ---------------------------------------------------------------------------
# each answer of the probe replays the radius's output
# ---------------------------------------------------------------------------

def _robust_in_rationals(rows, alpha, x):
    """Whether x has worst-case slack >= 0 in every row under the alpha-ball,
    in exact rationals: a.x - b >= 0 and (a.x - b)^2 >= alpha^2 (x.x + 1)."""
    x = [Fraction(v) for v in x.tolist()]
    reach = Fraction(alpha) ** 2 * (sum(v * v for v in x) + 1)
    slacks = [sum(Fraction(ai) * xi for ai, xi in zip(a.tolist(), x)) - Fraction(b)
              for a, b in rows]
    return all(s >= 0 and s * s >= reach for s in slacks)


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-6, 1.0, 1e8, 1e150])
def test_probe_verdicts_do_not_depend_on_the_data_scale(scale):
    # the golden system in other units: an absolute band of 1e-6 once held
    # the 0.9 rho and 1.1 rho probes of its 1e-6 copy, and every probe of
    # its 1e-8 copy, inside it (inconclusive)
    rows = [(scale * a, scale * b) for a, b in HYPO]
    rho = radius_of_robust_feasibility(rows).rho
    assert rho == pytest.approx(scale * math.sqrt(28 / 3), rel=1e-12)
    verdicts = [ball_robust_feasible(rows, frac * rho).status for frac in (0.5, 0.9, 1.1, 2.0)]
    assert verdicts == ["feasible", "feasible", "infeasible", "infeasible"]


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e8, 1e150])
def test_golden_probe_is_decided_within_1e_9_of_the_radius(scale):
    # a band of 1e-6 max|[A | b]| once left every alpha this close to rho
    # inconclusive; the witness and the refuted scenario each decide it
    rows = [(scale * a, scale * b) for a, b in HYPO]
    rho = radius_of_robust_feasibility(rows).rho
    inside = ball_robust_feasible(rows, rho * (1 - 1e-9))
    assert inside.status == "feasible" and inside.rho == rho
    assert _robust_in_rationals(rows, rho * (1 - 1e-9), inside.x)
    assert ball_robust_feasible(rows, rho * (1 + 1e-9)).status == "infeasible"
    assert ball_robust_feasible(rows, rho).status == "inconclusive"


def test_float_limit_rows_are_decided_on_both_sides_of_the_radius():
    # rho = sqrt(26) of a unit row beside a 3e300 row: the band, set by the
    # 3e300 row, once left every alpha up to about 3e294 inconclusive
    rows = _nominal("float_limit_radius_problem.json")
    out = ball_robust_feasible(rows, 0.1)
    assert out.status == "feasible" and out.x.tolist() == [0.2, 0.0, 0.0]
    assert _robust_in_rationals(rows, 0.1, out.x)
    for alpha in (5.2, 1e10):
        assert ball_robust_feasible(rows, alpha).status == "infeasible", alpha


@pytest.mark.xfail(strict=True, reason="the closed-form witness fails well inside the radius: "
                   "alpha in about (1.373, 5.099] is inconclusive (ROADMAP item 4)")
def test_float_limit_rows_are_feasible_well_inside_the_radius():
    # rho = sqrt(26) ~ 5.099, so the 1.5-ball keeps the rows feasible; the
    # CLI's `feasible --alpha 1.5` on the same file answers inconclusive
    rows = _nominal("float_limit_radius_problem.json")
    out = ball_robust_feasible(rows, 1.5)
    assert out.status == "feasible" and _robust_in_rationals(rows, 1.5, out.x)


def test_a_tampered_replay_refutes_nothing():
    # the weights (0, 0, 1/3, 1/3, 1/3) rebuild a* = -(1, 1, 1)/3; a weight
    # moved to another row, a negative one or a moved a* each break the
    # combination 0.x >= b.w - beta, and the replay refuses
    S = feasibility._system(HYPO)
    rr = radius_of_robust_feasibility(HYPO)
    alpha = 1.1 * rr.rho
    assert feasibility._refutes(S, rr, alpha)
    w = rr.weights
    moved_a = rr.p_star + np.array([1e-6, 0.0, 0.0, 0.0])
    for tampered in (replace(rr, weights=w + np.array([0.01, 0.0, -0.01, 0.0, 0.0])),
                     replace(rr, weights=w + np.array([-0.01, 0.01, 0.0, 0.0, 0.0])),
                     replace(rr, p_star=moved_a)):
        assert not feasibility._refutes(S, tampered, alpha), tampered


def test_an_uncertified_radius_still_decides_the_probe_by_replay(monkeypatch):
    # the probe once raised NonCertifiedError at every alpha > 0; both of
    # its answers check themselves, so it decides and reports rho None
    real = feasibility.min_norm_point
    monkeypatch.setattr(feasibility, "min_norm_point",
                        lambda *args: replace(real(*args), certified=False))
    inside = ball_robust_feasible(HYPO, 2.9)
    assert (inside.status, inside.rho) == ("feasible", None)
    assert _robust_in_rationals(HYPO, 2.9, inside.x)
    outside = ball_robust_feasible(HYPO, 3.2)
    assert (outside.status, outside.x, outside.rho) == ("infeasible", None, None)


# (1e300, -1e300 | 0) and (0, 1 | 1e10): the nearest point is (1/2, 1/2, 0),
# 1e-300 of the first row plus the second and 1e10 of the ray, so rho is
# 1/sqrt(2); at the scale of the 1e300 row the solve certifies the second
# row's own point (0, 1, 1e10), whose b* > 0 only the ray's VI would refuse
OVERFLOW_ROWS = [(np.array([1e300, -1e300]), 0.0), (np.array([0.0, 1.0]), 1e10)]


@pytest.mark.xfail(strict=True, reason="at the scale of the 1e300 row the VI check "
                                       "certifies the second row's point, rho = 1e10")
def test_radius_of_rows_near_1e300_with_a_far_right_hand_side():
    assert radius_of_robust_feasibility(OVERFLOW_ROWS).rho == pytest.approx(
        0.7071067811865476, rel=1e-9)


def test_probe_of_rows_with_a_wrong_radius_refutes_only_a_true_scenario():
    # rho reads 1e10, yet alpha = 2 is refuted by a scenario that holds
    # against the rows in exact rationals: moving every row by -(0, 1)
    # (norm 1 <= 2) leaves rows that the weights (0, 1) combine into
    # 0.x >= 1e10; alpha = 0.5 < 1/sqrt(2) is never refuted
    rr = radius_of_robust_feasibility(OVERFLOW_ROWS)
    assert rr.rho == 1e10
    assert ball_robust_feasible(OVERFLOW_ROWS, 2.0).status == "infeasible"
    assert ball_robust_feasible(OVERFLOW_ROWS, 1e12).status == "infeasible"
    assert ball_robust_feasible(OVERFLOW_ROWS, 0.5).status != "infeasible"
    w = [Fraction(v) for v in rr.weights.tolist()]
    a_star = [Fraction(v) for v in rr.p_star[:-1].tolist()]
    assert min(w) >= 0 and sum(v * v for v in a_star) <= 4
    for i, ai in enumerate(a_star):
        assert sum(wj * (Fraction(a[i].item()) - ai) for wj, (a, _) in zip(w, OVERFLOW_ROWS)) == 0
    assert sum(wj * Fraction(b) for wj, (_, b) in zip(w, OVERFLOW_ROWS)) > 0


def test_nan_alpha_raises():
    with pytest.raises(ValueError):
        ball_robust_feasible(HYPO, float("nan"))
    with pytest.raises(ValueError):
        ball_robust_feasible(HYPO, -1.0)


# x1 >= -1 beside a row with a NaN coefficient: a Phase-I LP once
# answered feasible with x = (0, nan)
NAN_ROWS = [(np.array([_NAN, 1.0]), 0.0), (np.array([1.0, 0.0]), -1.0)]


@pytest.mark.parametrize("rows", [NAN_ROWS, [(np.array([1.0, 0.0]), _INF)],
                                  [(np.array([-_INF, 1.0]), 0.0)]])
def test_is_feasible_rejects_non_finite_rows(rows):
    with pytest.raises(ValueError):
        is_feasible(rows)


@pytest.mark.parametrize("rows", [NAN_ROWS, [(np.array([1.0, 0.0]), _INF)]])
def test_radius_rejects_non_finite_rows(rows):
    # the NaN row once warned in a division and raised NonCertifiedError
    with pytest.raises(ValueError):
        radius_of_robust_feasibility(rows)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_ball_probe_rejects_non_finite_rows(alpha):
    with pytest.raises(ValueError):
        ball_robust_feasible(NAN_ROWS, alpha)


# ---------------------------------------------------------------------------
# a probe is one radius pass
# ---------------------------------------------------------------------------

def _two_solve_probe(rows, alpha):
    """The probe composed of a radius solve, a witness taken from a second
    array [A | b] and the replay of the radius weights, as (status, x, rho)."""
    rr = radius_of_robust_feasibility(rows)
    S = feasibility._system(rows)
    if alpha < rr.rho:
        x, slack = feasibility._ball_witness(S, rr.p_star, rr.rho, alpha)
        if x is not None and slack - alpha * math.hypot(*x, 1.0) >= 0:
            return "feasible", x, rr.rho
    if feasibility._refutes(S, rr, alpha):
        return "infeasible", None, rr.rho
    return "inconclusive", None, rr.rho


def _bits(status, x, rho):
    return status, None if x is None else x.tobytes(), rho.hex()


def test_one_pass_probe_matches_the_two_solve_composition(rng):
    zero_b = done = 0
    while done < 300:
        rows, x0 = random_feasible_rows(rng, n=int(rng.integers(1, 5)),
                                        p=int(rng.integers(1, 7)))
        if done % 4 == 0:      # homogeneous rows a.x >= 0, strict at x0: b* = 0
            rows = [(a, 0.0) for a, _ in rows if a @ x0 > 0] or rows
        rr = radius_of_robust_feasibility(rows)
        if rr.rho == 0.0:      # every alpha would be 0, which has its own rule
            continue
        zero_b += rr.p_star[-1] == 0.0
        for frac in (0.3, 0.5, 0.9, 0.999, 1.1):
            out = ball_robust_feasible(rows, frac * rr.rho)
            assert (_bits(out.status, out.x, out.rho)
                    == _bits(*_two_solve_probe(rows, frac * rr.rho))), (rows, frac)
        done += 1
    assert zero_b >= 30


def test_a_probe_is_one_radius_pass(monkeypatch):
    # HYPO has b* = -3, so the rho/2 point is the witness at every alpha;
    # x >= 0 has b* = 0, and its witness at alpha is a second closed form
    single = [(np.array([1.0]), 0.0)]
    assert radius_of_robust_feasibility(HYPO).p_star[-1] < 0.0
    assert radius_of_robust_feasibility(single).p_star[-1] == 0.0
    names = ("min_norm_point", "_system", "_ball_witness",
             "radius_of_robust_feasibility", "is_feasible")
    for rows, alpha, witnesses in ((HYPO, 1.0, 1), (HYPO, 0.0, 1), (single, 0.3, 2)):
        with monkeypatch.context() as m:
            calls = {name: _counting(m, name) for name in names}
            out = ball_robust_feasible(rows, alpha)
        assert out.status == "feasible"
        assert [len(calls[name]) for name in names] == [1, 1, witnesses, 0, 0]
    # alpha = 0 takes the rho/2 point, every alpha's point on HYPO
    assert (ball_robust_feasible(HYPO, 0.0).x.tobytes()
            == ball_robust_feasible(HYPO, 1.0).x.tobytes())
