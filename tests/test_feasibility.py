import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import highs, random_feasible_rows
from robustmolp import feasibility
from robustmolp.feasibility import (NominalInfeasibleError, NonCertifiedError,
                                    ball_robust_feasible,
                                    cone_contains, hypographical_set,
                                    is_feasible, maximize_min_slack,
                                    radius_of_robust_feasibility)
from robustmolp.model import (Ball, ConcaveRow, RobustFeasibleSet, UncertainMOLP,
                              load_problem, reduce_constraints, validate_problem)

_INF = float("inf")

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
        feas = is_feasible(rows).feasible
        member = cone_contains(gens, target).contains
        assert feas == (not member), (rows, feas, member)
        hits += not feas
    assert 0 < hits < 100     # the sample covers both outcomes


# ---------------------------------------------------------------------------
# hypographical set
# ---------------------------------------------------------------------------

def test_hypographical_set_shape():
    H = hypographical_set([(np.array([1.0]), 0.0)])
    assert H.points.shape == (1, 2)
    assert np.array_equal(H.points[0], [1.0, 0.0])
    assert np.array_equal(H.ray, [0.0, -1.0])
    H5 = hypographical_set(HYPO)
    assert H5.points.shape == (5, 4)
    assert np.array_equal(H5.points[2], [-1.0, 0.0, 0.0, -3.0])
    with pytest.raises(ValueError):
        hypographical_set([])


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
    rho = math.sqrt(28 / 3)
    assert ball_robust_feasible(HYPO, rho).status == "inconclusive"
    assert ball_robust_feasible(HYPO, rho + 5e-7).status == "inconclusive"


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
# nominal feasibility from the radius: the closed-form point, else the LP
# ---------------------------------------------------------------------------

def test_zero_radius_decides_nominal_feasibility_by_one_lp(monkeypatch):
    # 0.x >= 0, x1 >= 0 and -x1 >= 0 in R^2: the zero row puts the origin
    # in the hypographical set, so rho is 0 exactly and cannot prove
    # feasibility
    with monkeypatch.context() as m:
        feas = _counting(m, "is_feasible")
        lps = _counting(m, "solve_lp")
        assert radius_of_robust_feasibility(_nominal("zero_radius_problem.json")).rho == 0.0
    assert (len(feas), len(lps)) == (1, 1)
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


def test_ball_witness_of_a_radius_past_1e154():
    # t = (max b + alpha) / (rho (rho - alpha)) with the product formed
    # first overflows from rho near 1e154: t became 0, x = 0 missed the row
    rows = [(np.array([1e300]), 1.0)]
    rho = radius_of_robust_feasibility(rows).rho
    out = ball_robust_feasible(rows, 0.5 * rho)
    assert out.status == "feasible" and out.x.tolist() == [1.0]
    worst = 1e300 * out.x[0] - 1.0 - 0.5 * rho * math.hypot(out.x[0], 1.0)
    assert worst == pytest.approx(2.9289321881345e299, rel=1e-12)


def test_alpha_zero_probe_of_rows_near_1e300_is_the_rho_half_point():
    # the Phase-I LP calls these rows infeasible, and the probe at alpha = 0
    # once took its word; x = (-6, 3, 5.7e-300) satisfies every row, and
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
    # an uncertified solve proves nothing: the LP decides alpha = 0 and
    # gives its point, while a probe at alpha > 0 still raises
    real = feasibility.min_norm_point
    monkeypatch.setattr(feasibility, "min_norm_point",
                        lambda *args: replace(real(*args), certified=False))
    with pytest.raises(NonCertifiedError):
        ball_robust_feasible(HYPO, 1.0)
    out = ball_robust_feasible(HYPO, 0.0)
    assert out.status == "feasible"
    assert out.x.tolist() == is_feasible(HYPO).x.tolist()
    with pytest.raises(NominalInfeasibleError):
        ball_robust_feasible([(np.array([1.0]), 0.0), (np.array([-1.0]), 1.0)], 0.0)


def test_min_slack_of_linear_rows_is_one_lp(monkeypatch):
    lps = _counting(monkeypatch, "solve_lp")
    X = RobustFeasibleSet(2, np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -2.0], [-1.0, -1.0, -3.0]]),
                          np.arange(3))
    search = maximize_min_slack(X, target=0.0)
    # the supremum is 2, so the LP stops at its cap of 1
    assert len(lps) == 1
    assert search.upper_bound == 1.0
    assert search.value >= 1.0 - 1e-12
    assert min(X.slack(search.x)) == search.value



def _random_slack_set(rng):
    """A reduced set of linear, s = 1 and s = inf rows over R^n (q <= 3),
    and the same set written without the lift: each s = inf row as its 2^q
    rows a_bar - P sigma, sigma in {-1, 1}^q, each s = 1 row as its 2q rows
    a_bar -+ P e_i, as [a | b | constraint] rows."""
    n = int(rng.integers(1, 4))
    rows, source, concave, flat = [], [], [], []
    for j in range(int(rng.integers(1, 6))):
        kind = ("linear", 1.0, _INF)[int(rng.integers(0, 3))]
        a, b = rng.integers(-5, 6, n).astype(float), float(rng.integers(-5, 3))
        if kind == "linear":
            rows.append([*a, b])
            source.append(j)
            flat.append([*a, b, j])
            continue
        q = int(rng.integers(1, 4))
        P = rng.integers(-2, 3, (n, q)).astype(float)
        concave.append(ConcaveRow(a, b, j, np.vstack([P, np.zeros(q)]), kind))
        signs = (np.vstack([np.eye(q), -np.eye(q)]) if kind == 1 else
                 1.0 - 2.0 * ((np.arange(1 << q)[:, None] >> np.arange(q)) & 1))
        flat += [[*(a - P @ w), b, j] for w in signs]
    X = RobustFeasibleSet(n, np.reshape(rows, (-1, n + 1)), np.array(source, int),
                          tuple(concave))
    return X, np.array(flat), j + 1


def test_min_slack_matches_the_lp_written_without_the_lift(rng):
    # max t <= 1 s.t. a.x - b >= t on strict rows and >= 0 on the others
    for _ in range(60):
        X, flat, k = _random_slack_set(rng)
        n = X.n
        for strict in (None, [j for j in range(k) if rng.integers(0, 2)]):
            on = np.isin(flat[:, -1], range(k) if strict is None else strict)
            G = np.vstack([np.column_stack([flat[:, :n], -on.astype(float)]),
                           [*np.zeros(n), -1.0]])
            h = np.append(flat[:, n], -1.0)
            status, value = highs(G[-1], G, h, -_INF)
            search = maximize_min_slack(X, strict=strict)
            if status == "infeasible":
                assert search.x is None and search.value == search.upper_bound == -_INF
                continue
            assert status == "optimal"
            assert search.upper_bound == pytest.approx(-value, abs=1e-7)
            # the min-slack at the point may pass the cap; up to it, it is the value
            assert min(search.value, 1.0) == pytest.approx(-value, abs=1e-7)


def test_min_slack_needs_a_lift_and_strict_two_norm_rows():
    # the joint ball 1 - sqrt(x^2 + 1) / 2 >= 0 around (0, -1): its 1-norm
    # restriction 1 - (|x| + 1) / 2 and its inf-norm relaxation
    # 1 - max(|x|, 1) / 2 both peak at x = 0 with the ball's value 1/2
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Ball([0.0], -1.0, 0.5),))
    X = reduce_constraints(validate_problem(p))
    search = maximize_min_slack(X)
    assert search.x.tolist() == [0.0] and search.value == 0.5
    assert maximize_min_slack(X, 0.6).upper_bound == 0.5
    two = ConcaveRow(np.array([1.0]), 0.0, 1, np.array([[0.5], [0.0]]), 2.0)
    X = RobustFeasibleSet(1, np.array([[1.0, 0.0]]), np.array([0]), (two,))
    with pytest.raises(ValueError):
        maximize_min_slack(X, strict=[0])
    assert maximize_min_slack(X, strict=[1]).value == 1.0

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
                    lps = _counting(m, "solve_lp")
                    mnp = _counting(m, "min_norm_point")
                    m.setattr(feasibility, "BOUNDARY_TOL", 0.0)
                    out = ball_robust_feasible(scaled, alpha)
                assert out.status == "feasible"
                assert (len(feas), len(lps), len(mnp)) == (0, 0, 1)
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
# a probe is one radius pass
# ---------------------------------------------------------------------------

def _two_solve_probe(rows, alpha):
    """The probe composed of a radius solve and a witness taken from a
    second hypographical set, as (status, x, rho)."""
    rr = radius_of_robust_feasibility(rows)
    if alpha > rr.rho + feasibility.BOUNDARY_TOL:
        return "infeasible", None, rr.rho
    if abs(alpha - rr.rho) <= feasibility.BOUNDARY_TOL:
        return "inconclusive", None, rr.rho
    points = hypographical_set(rows).points
    x, slack = feasibility._ball_witness(points, rr.p_star, rr.rho, alpha)
    if x is None or not slack - alpha * math.hypot(*x, 1.0) >= -1e-8:
        return "inconclusive", None, rr.rho
    return "feasible", x, rr.rho


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
    names = ("min_norm_point", "hypographical_set", "_ball_witness",
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
