import math

import numpy as np
import pytest

from conftest import highs, random_feasible_rows
from robustmolp import feasibility
from robustmolp.feasibility import (NominalInfeasibleError, ball_robust_feasible,
                                    cone_contains, hypographical_set,
                                    is_feasible, maximize_min_slack,
                                    radius_of_robust_feasibility)
from robustmolp.model import (Ball, ConcaveRow, RobustFeasibleSet, UncertainMOLP,
                              reduce_constraints, validate_problem)

_INF = float("inf")

HYPO = [(np.array([-2.0, -1, -2]), -6.0), (np.array([-1.0, -2, -2]), -6.0),
        (np.array([-1.0, 0, 0]), -3.0), (np.array([0.0, -1, 0]), -3.0),
        (np.array([0.0, 0, -1]), -3.0)]


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


def test_ball_probe_solves_nominal_lp_once(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return is_feasible(rows)

    monkeypatch.setattr(feasibility, "is_feasible", counting)
    assert ball_robust_feasible(HYPO, 2.9).status == "feasible"
    assert calls == [len(HYPO)]
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
                assert (len(feas), len(lps), len(mnp)) == (1, 1, 1)
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
