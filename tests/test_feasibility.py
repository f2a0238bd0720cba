import math

import numpy as np
import pytest

from conftest import random_feasible_rows
from robustmolp import feasibility
from robustmolp.feasibility import (NominalInfeasibleError, ball_robust_feasible,
                                    cone_contains, hypographical_set,
                                    is_feasible, maximize_min_slack,
                                    radius_of_robust_feasibility)

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


class _CountingRow:
    """A linear row that counts its slack evaluations."""

    def __init__(self, a, b):
        self.a, self.b, self.calls = np.asarray(a, float), b, 0

    def slack(self, x):
        self.calls += 1
        return float(self.a @ x - self.b)

    def supergradient(self, x):
        return self.a


def test_min_slack_ascent_evaluates_each_row_once_per_step():
    rows = [_CountingRow([1.0, 0.0], -1.0), _CountingRow([0.0, 1.0], -2.0),
            _CountingRow([-1.0, -1.0], -3.0)]
    search = maximize_min_slack(rows, 2, target=0.0)
    assert search.value >= 1.0
    # the target holds at the origin, so the ascent stops after its minimum
    # of 32 steps: one evaluation per row at the origin and one per step
    assert [r.calls for r in rows] == [33, 33, 33]


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
