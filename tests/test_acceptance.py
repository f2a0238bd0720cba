"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Every expected value is either a hand-verified closed form or computed by
an independent oracle (grid search, scenario-LP replay, brute-force
dominance check) and frozen here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import (box_vertices, highs, random_feasible_rows,
                      random_polyhedral_problem, vertex_candidate,
                      vertex_multipliers)
from robustmolp.efficiency import (certify_weak_efficiency,
                                   weakly_efficient_for_scenario)
from robustmolp.feasibility import (ball_robust_feasible, cone_contains,
                                    is_feasible, radius_of_robust_feasibility)
from robustmolp.model import (Box, Ellipsoid, NormBall, Polytope, Singleton,
                              UncertainMOLP, ValidationError,
                              reduce_constraints, validate_problem)
from robustmolp.numerics import min_norm_point, project_simplex, solve_lp
from robustmolp.oracle import refute_robust_weak_efficiency, verify_certificate

HYPO = [(np.array([-2.0, -1, -2]), -6.0), (np.array([-1.0, -2, -2]), -6.0),
        (np.array([-1.0, 0, 0]), -3.0), (np.array([0.0, -1, 0]), -3.0),
        (np.array([0.0, 0, -1]), -3.0)]
V1 = Polytope(((-2, -1, -2, -6), (-1, -2, -2, -6)))
V2 = Polytope(((-1, 0, 0, -3), (0, -1, 0, -3), (0, 0, -1, -3)))
C2 = np.array([[-3.0, -1, -2], [0.0, -1, -2]])
XBAR = np.array([1.0, 1.0, 1.5])


def _line(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_radius_golden():
    t0 = time.monotonic()
    res = radius_of_robust_feasibility(HYPO)
    elapsed = time.monotonic() - t0
    ok = (abs(res.rho - math.sqrt(28 / 3)) <= 1e-6
          and np.all(np.abs(res.p_star - np.array([-1 / 3, -1 / 3, -1 / 3, -3.0])) <= 1e-5)
          and elapsed < 1.0)
    _line("criterion 1: radius golden value and minimizer (< 1 s)", ok)


def test_criterion_2_radius_bracketing():
    ok = (ball_robust_feasible(HYPO, 2.9).status == "feasible"
          and ball_robust_feasible(HYPO, 3.2).status == "infeasible")
    rng = np.random.default_rng(42)
    done, violations = 0, 0
    while done < 50:
        rows, _ = random_feasible_rows(rng, n=int(rng.integers(1, 4)),
                                       p=int(rng.integers(1, 6)))
        rho = radius_of_robust_feasibility(rows).rho
        if rho < 1e-3:
            continue
        if ball_robust_feasible(rows, 0.9 * rho).status != "feasible":
            violations += 1
        if ball_robust_feasible(rows, 1.1 * rho).status != "infeasible":
            violations += 1
        done += 1
    _line("criterion 2: bracketing at 0.9/1.1 rho on 50 systems",
          ok and violations == 0)


def test_criterion_3_sign_violating_instance_refuted():
    original = UncertainMOLP(2, 3, C2, [-1.0, 1.0], [0.0, -3.0, 0.0], (V1, V2))
    with pytest.raises(ValidationError) as exc:
        validate_problem(original)
    gate = exc.value.kind == "NegativeU"

    verdict = refute_robust_weak_efficiency(original, XBAR, k=3)
    refuted = verdict.outcome == "refuted" and verdict.witness.rho == 0.5

    # exact replay of the quoted witness at the midpoint scenario
    C_mid = C2 + 0.5 * np.outer([-1.0, 1.0], [0.0, -3.0, 0.0])
    x_wit = np.array([0.0, 0.0, 3.0])
    replay = (np.array_equal(C_mid @ x_wit, [-6.0, -6.0])
              and np.array_equal(C_mid @ XBAR, [-5.5, -5.5])
              and np.all(C_mid @ x_wit < C_mid @ XBAR))
    _line("criterion 3: refutation of the sign-violating instance "
          "(witness replay exact, validation rejects)", gate and refuted and replay)


def test_criterion_4_derived_positive_instance():
    vp = validate_problem(
        UncertainMOLP(2, 3, C2, [1.0, 0.0], [0.0, -3.0, 0.0], (V1, V2)))
    out = certify_weak_efficiency(vp, XBAR)
    cert = out.certificate
    ok = (out.status == "certified"
          and np.allclose(cert.lambda_nominal, [2 / 3, 1 / 3], atol=1e-9)
          and np.allclose(cert.lambda_perturbed, [1 / 3, 2 / 3], atol=1e-9)
          and np.allclose(vertex_multipliers(cert.nominal[0], V1.vertices), [1.0, 0.0],
                          atol=1e-9)
          and np.allclose(vertex_multipliers(cert.perturbed[0], V1.vertices), [0.0, 1.0],
                          atol=1e-9)
          and verify_certificate(vp, XBAR, cert, 1e-7).ok)
    _line("criterion 4: derived positive instance multipliers + replay", ok)


def test_criterion_5_endpoint_equivalence_suite():
    rng = np.random.default_rng(20240612)
    t0 = time.monotonic()
    disagreements = 0
    for _ in range(200):
        prob, anchor = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob, anchor)
        out = certify_weak_efficiency(vp, x)
        X = reduce_constraints(vp)
        C1 = prob.C_bar + np.outer(prob.u, prob.v)
        both = (weakly_efficient_for_scenario(prob.C_bar, X.rows, x).efficient
                and weakly_efficient_for_scenario(C1, X.rows, x).efficient)
        disagreements += (out.status == "certified") != both
    elapsed = time.monotonic() - t0
    _line(f"criterion 5: endpoint equivalence on 200 instances "
          f"({elapsed:.1f} s)", disagreements == 0 and elapsed < 60.0)


def _box_poly_pair(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    x0 = rng.integers(-2, 3, n).astype(float)
    boxes, polys = [], []
    for _ in range(int(rng.integers(1, 3))):
        lo = rng.integers(-3, 2, n).astype(float)
        hi = lo + rng.integers(0, 3, n)
        verts = box_vertices(lo, hi)
        b_hi = float(min(v @ x0 for v in verts) - rng.integers(0, 3))
        boxes.append(Box(lo, hi, b_hi - 1.0, b_hi))
        polys.append(Polytope(tuple(np.concatenate([v, [b_hi]]) for v in verts)))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        for group in (boxes, polys):
            group.append(Singleton(e.copy(), -6.0))
            group.append(Singleton(-e, -6.0))
    C = rng.integers(-5, 6, (m, n)).astype(float)
    u = rng.integers(0, 3, m).astype(float)
    v = rng.integers(-5, 6, n).astype(float)
    return (UncertainMOLP(m, n, C, u, v, tuple(boxes)),
            UncertainMOLP(m, n, C, u, v, tuple(polys)), x0)


def _norm_ell_pair(rng):
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    x0 = rng.integers(-2, 3, n).astype(float)
    nb, el = [], []
    for _ in range(int(rng.integers(1, 3))):
        a = rng.integers(-4, 5, n).astype(float)
        if not a.any():
            a[0] = 1.0
        delta = float(rng.choice([0.25, 0.5, 1.0]))
        b = float(a @ x0 - rng.integers(1, 4) - delta * np.linalg.norm(x0))
        nb.append(NormBall(a, np.eye(n), delta, 2, b, b))
        el.append(Ellipsoid(a, tuple(delta * e for e in np.eye(n)), b, b))
    C = rng.integers(-4, 5, (m, n)).astype(float)
    u = rng.integers(0, 3, m).astype(float)
    v = rng.integers(-4, 5, n).astype(float)
    return (UncertainMOLP(m, n, C, u, v, tuple(nb)),
            UncertainMOLP(m, n, C, u, v, tuple(el)), x0)


def test_criterion_6_cross_class_consistency():
    rng = np.random.default_rng(20240613)
    box_ok = True
    for _ in range(50):
        pb, pp, anchor = _box_poly_pair(rng)
        # a vertex of the same set, taken from its vertex rows
        x = vertex_candidate(rng, pp, anchor)
        box_ok &= (certify_weak_efficiency(validate_problem(pb), x).status
                   == certify_weak_efficiency(validate_problem(pp), x).status)

    ne_ok = True
    for _ in range(50):
        pn, pe, x0 = _norm_ell_pair(rng)
        ne_ok &= (certify_weak_efficiency(validate_problem(pn), x0).status
                  == certify_weak_efficiency(validate_problem(pe), x0).status)

    d0_ok = True
    done = 0
    while done < 50:
        prob, anchor = random_polyhedral_problem(rng, n_max=3)
        sing = [c for c in prob.constraints if isinstance(c, Singleton)]
        if not sing:
            continue
        norm = tuple(NormBall(c.a_bar, np.eye(prob.n), 0.0, 2, c.b_bar, c.b_bar)
                     for c in sing)
        pn = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, norm)
        ps = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, tuple(sing))
        x = vertex_candidate(rng, ps, anchor)
        d0_ok &= (certify_weak_efficiency(validate_problem(pn), x).status
                  == certify_weak_efficiency(validate_problem(ps), x).status)
        done += 1
    _line("criterion 6: cross-class consistency (box/polytope, "
          "norm/ellipsoid, delta-0/singleton; 50 each)",
          box_ok and ne_ok and d0_ok)


def test_criterion_7_numerical_kernel_suite():
    rng = np.random.default_rng(20240614)
    vi_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(1, 7))
        pts = [rng.integers(-5, 6, k).astype(float) for _ in range(p)]
        ray = rng.normal(0, 1, k)
        ray = ray / max(np.linalg.norm(ray), 1e-12)
        res = min_norm_point(pts, ray)
        q = res.p_star
        nn = q @ q
        vi_ok &= all(g @ q >= nn - 1e-8 for g in pts) and ray @ q >= -1e-8

    proj_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 9))
        y = rng.normal(0, 3, d)
        px = project_simplex(y)
        for _ in range(100):
            z = rng.dirichlet(np.ones(d))
            proj_ok &= np.linalg.norm(y - px) <= np.linalg.norm(y - z) + 1e-12

    lp_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = rng.integers(-5, 6, n).astype(float)
        x0 = rng.integers(0, 4, n).astype(float)
        G, h = [], []
        for _ in range(int(rng.integers(0, 4))):
            g = rng.integers(-5, 6, n).astype(float)
            G.append(g)
            h.append(float(g @ x0 - rng.integers(0, 5)))
        G, h = np.vstack(G + [-np.eye(n)]), np.array(h + [-10.0] * n)   # x_i <= 10
        # from the anchor, with x >= 0 as rows
        sol = solve_lp(c, np.vstack([G, np.eye(n)]), np.append(h, np.zeros(n)), x0)
        lp_ok &= sol.optimal and abs(c @ sol.x - _vertex_min(c, G, h)) <= 1e-7
    _line("criterion 7: kernel suite (min-norm VI, simplex projection, "
          "LP optimum; 100 each)", vi_ok and proj_ok and lp_ok)


def _vertex_min(c, G, h):
    """min c.x over the bounded set {G x >= h, x >= 0}, by brute force
    over its vertices: every n of its rows, x >= 0 included, held tight."""
    n = len(c)
    A, b = np.vstack([G, np.eye(n)]), np.concatenate([h, np.zeros(n)])
    best = math.inf
    for tight in map(list, itertools.combinations(range(len(A)), n)):
        if abs(np.linalg.det(A[tight])) < 1e-9:
            continue
        x = np.linalg.solve(A[tight], b[tight])
        if np.all(A @ x >= b - 1e-9):
            best = min(best, float(c @ x))
    return best


def test_criterion_8_infeasibility_cone_equivalence():
    rng = np.random.default_rng(20240615)
    ok = True
    infeasible_seen = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 6))
        if rng.integers(0, 2) == 0:
            rows, _ = random_feasible_rows(rng, n, p)
        else:
            rows = []
            for _ in range(p):
                a = rng.integers(-5, 6, n).astype(float)
                if not a.any():
                    a[0] = 1.0
                rows.append((a, float(rng.integers(-5, 6))))
        gens = [np.concatenate([a, [b]]) for a, b in rows]
        target = np.zeros(n + 1)
        target[-1] = 1.0
        feas = is_feasible(rows).feasible
        member = cone_contains(gens, target).contains
        # one kernel answers both: HiGHS is the independent reference
        A, b = map(np.array, zip(*rows))
        ok &= feas == (not member) == (highs(np.zeros(n), A, b, -math.inf)[0] == "optimal")
        infeasible_seen += not feas
    _line("criterion 8: infeasibility <=> marker-in-cone on 100 systems",
          ok and 0 < infeasible_seen < 100)
