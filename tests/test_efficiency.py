import runpy
from pathlib import Path

import numpy as np
import pytest

from conftest import (assert_replaying_refutation, box_vertices, forbid_lp,
                      random_feasible_rows, random_polyhedral_problem, vertex_candidate,
                      vertex_multipliers, worst_slack)
from robustmolp import feasibility
from robustmolp.efficiency import (NotFeasiblePointError, active_geometry,
                                   certify_weak_efficiency, check_slater,
                                   weakly_efficient_for_scenario)
from robustmolp.feasibility import radius_of_robust_feasibility
from robustmolp.model import (Ball, Box, Ellipsoid, NormBall,
                              Polytope, Singleton, UncertainMOLP, load_problem,
                              reduce_constraints, validate_problem)
from robustmolp.numerics import VI_TOL, norm_value
from robustmolp.oracle import refute_robust_weak_efficiency, verify_certificate

_INF = float("inf")

V1 = Polytope(((-2, -1, -2, -6), (-1, -2, -2, -6)))
V2 = Polytope(((-1, 0, 0, -3), (0, -1, 0, -3), (0, 0, -1, -3)))
C2 = np.array([[-3.0, -1, -2], [0.0, -1, -2]])
XBAR = np.array([1.0, 1.0, 1.5])


def derived_instance():
    return validate_problem(
        UncertainMOLP(2, 3, C2, [1.0, 0.0], [0.0, -3.0, 0.0], (V1, V2)))


# ---------------------------------------------------------------------------
# active geometry
# ---------------------------------------------------------------------------

def test_active_geometry_five_row_system():
    X = reduce_constraints(derived_instance())
    geo = active_geometry(X, XBAR)
    assert geo.active_rows == (0, 1)
    assert geo.generators[0] == pytest.approx([2.0, 1.0, 2.0])
    assert geo.generators[1] == pytest.approx([1.0, 2.0, 2.0])


def test_active_geometry_interior_and_boundary():
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Singleton([1.0], 0.0),))
    X = reduce_constraints(validate_problem(p))
    assert active_geometry(X, np.array([1.0])).active_rows == ()
    geo = active_geometry(X, np.array([0.0]))
    assert geo.generators[0] == pytest.approx([-1.0])
    with pytest.raises(NotFeasiblePointError):
        active_geometry(X, np.array([-1.0]))


# ---------------------------------------------------------------------------
# scenario decision LP
# ---------------------------------------------------------------------------

def test_scenario_check_midpoint_dominated():
    X = reduce_constraints(derived_instance())
    C_mid = np.array([[-3.0, 0.5, -2.0], [0.0, -2.5, -2.0]])
    chk = weakly_efficient_for_scenario(C_mid, X.rows, XBAR)
    assert not chk.efficient
    assert np.all(chk.gap > 1e-9)
    # the quoted witness x = (0, 0, 3) replays exactly
    x = np.array([0.0, 0.0, 3.0])
    assert np.array_equal(C_mid @ x, [-6.0, -6.0])
    assert np.array_equal(C_mid @ XBAR, [-5.5, -5.5])


def test_scenario_check_zero_row_always_efficient(rng):
    X = reduce_constraints(derived_instance())
    C = np.vstack([np.zeros(3), rng.normal(0, 1, 3)])
    assert weakly_efficient_for_scenario(C, X.rows, XBAR).efficient


def test_scenario_check_rejects_a_point_outside_a_row():
    # the LP starts at x_bar, so a point that misses x1 <= 1 by 1, beyond
    # ACTIVE_TOL, is refused rather than taken as met
    square = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]]
    with pytest.raises(NotFeasiblePointError, match="row 2 violated by 1.000e"):
        weakly_efficient_for_scenario(-np.eye(2), square, [2.0, 1.0])
    assert weakly_efficient_for_scenario(-np.eye(2), square, [1.0, 1.0]).efficient


def test_scenario_check_endpoints_of_derived_instance():
    vp = derived_instance()
    X = reduce_constraints(vp)
    C1 = C2 + np.outer([1.0, 0.0], [0.0, -3.0, 0.0])
    assert weakly_efficient_for_scenario(C2, X.rows, XBAR).efficient
    assert weakly_efficient_for_scenario(C1, X.rows, XBAR).efficient


# ---------------------------------------------------------------------------
# polyhedral certification
# ---------------------------------------------------------------------------

def test_certify_derived_instance_multipliers():
    out = certify_weak_efficiency(derived_instance(), XBAR)
    assert out.status == "certified"
    c = out.certificate
    assert c.lambda_nominal == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
    assert c.lambda_perturbed == pytest.approx([1 / 3, 2 / 3], abs=1e-9)
    # the active rows are V1's two vertices: each endpoint puts its mass on one
    assert vertex_multipliers(c.nominal[0], V1.vertices) == pytest.approx([1.0, 0.0], abs=1e-9)
    assert vertex_multipliers(c.perturbed[0], V1.vertices) == pytest.approx([0.0, 1.0], abs=1e-9)
    # per-constraint aggregation: all the mass sits on the first polytope
    assert [r.mu for r in c.nominal] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert verify_certificate(derived_instance(), XBAR, c, 1e-7).ok


def test_certify_zero_objective_trivial():
    p = UncertainMOLP(1, 1, [[0.0]], [0.0], [0.0], (Singleton([1.0], 0.0),))
    out = certify_weak_efficiency(validate_problem(p), np.array([0.0]))
    assert out.status == "certified"
    assert out.certificate.lambda_nominal == pytest.approx([1.0])
    assert all(r.mu == pytest.approx(0.0, abs=1e-9) for r in out.certificate.nominal)


def test_certify_interior_identity_objective_refuted():
    # no active rows: the scalarized gradient cannot vanish on the simplex
    p = UncertainMOLP(2, 2, np.eye(2), [0.0, 0.0], [0.0, 0.0],
                      (Singleton([1.0, 0.0], -5.0), Singleton([0.0, 1.0], -5.0)))
    out = certify_weak_efficiency(validate_problem(p), np.array([0.0, 0.0]))
    assert out.status == "refuted"
    assert out.refutation.endpoint == "nominal"
    assert out.refutation.x is not None


def test_certify_rejects_infeasible_point():
    with pytest.raises(NotFeasiblePointError):
        certify_weak_efficiency(derived_instance(), np.array([10.0, 10.0, -50.0]))


def test_certify_decides_a_ball_inactive_at_the_point_by_exact_lp(monkeypatch):
    # x - sqrt(x^2 + 1) / 2 >= 0 has slack at x = 1, so complementarity
    # gives the joint ball no cone block: both endpoints are exact LPs
    import robustmolp.efficiency as eff

    def forbidden(*args, **kwargs):
        raise AssertionError("a ball with slack at the point needs no cone solve")

    monkeypatch.setattr(eff, "solve_cone_system", forbidden)
    x = np.array([1.0])
    ball = Ball([1.0], 0.0, 0.5)
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (ball,))
    out = certify_weak_efficiency(validate_problem(p), x)
    assert out.residuals == {}
    assert_replaying_refutation(p, x, out)
    # two opposed objectives: no point improves both
    q = UncertainMOLP(2, 1, [[1.0], [-1.0]], [0.0, 0.0], [0.0], (ball,))
    out = certify_weak_efficiency(validate_problem(q), x)
    assert out.status == "certified"
    assert not [k for k in out.residuals if k.startswith("system_")]
    # the inactive ball's record: no multiplier, witness w = 0, its own row
    rec = out.certificate.nominal[0]
    assert rec.mu == 0.0 and not rec.witness.any()
    assert rec.scenario_a.tolist() == [1.0] and rec.scenario_b == 0.0
    assert verify_certificate(q, x, out.certificate).ok


# x_i - sqrt(x.x + 1) / 10 >= -1/10, i = 1, 2: joint balls of radius 0.1
# around (e_i, -0.1), both tight at the origin
JOINT_BALLS = (Ball([1.0, 0.0], -0.1, 0.1), Ball([0.0, 1.0], -0.1, 0.1))


def test_active_joint_balls_are_refuted_by_a_replaying_witness():
    p = UncertainMOLP(2, 2, -np.eye(2), [0.0, 0.0], [0.0, 0.0], JOINT_BALLS)
    out = certify_weak_efficiency(validate_problem(p), np.zeros(2))
    assert_replaying_refutation(p, np.zeros(2), out)


def test_slater_on_joint_balls_holds_exactly_inside_the_radius(rng):
    # the paper's two questions on one problem: the refined Slater point of
    # the joint alpha-balls around a nominal system exists below its radius
    # of robust feasibility rho and not above it
    done = 0
    while done < 50:
        rows, _ = random_feasible_rows(rng, n=int(rng.integers(1, 4)),
                                       p=int(rng.integers(1, 6)))
        rho = radius_of_robust_feasibility(rows).rho
        if rho < 1e-3:
            continue
        n = rows[0][0].size
        for frac, ok in ((0.5, True), (1.5, False)):
            balls = tuple(Ball(a, b, frac * rho) for a, b in rows)
            p = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n), balls)
            X = reduce_constraints(validate_problem(p))
            assert [r.s for r in X.concave] == [2] * len(rows) and not len(X.rows)
            slater = check_slater(X)
            assert slater.ok == ok, (rows, frac, slater)
            if ok:
                # worst_slack sums as the class reads, not as the search does
                assert min(worst_slack(c, slater.x0) for c in balls) > 0.0
        done += 1


def test_certify_singletons_equals_endpointwise_efficiency(rng):
    # all-singleton constraints: the verdict equals weak efficiency of the
    # point for both endpoint problems separately
    for _ in range(30):
        prob, anchor = random_polyhedral_problem(rng)
        if not all(isinstance(c, Singleton) for c in prob.constraints):
            continue
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob, anchor)
        X = reduce_constraints(vp)
        out = certify_weak_efficiency(vp, x)
        C1 = prob.C_bar + np.outer(prob.u, prob.v)
        both = (weakly_efficient_for_scenario(prob.C_bar, X.rows, x).efficient and
                weakly_efficient_for_scenario(C1, X.rows, x).efficient)
        assert (out.status == "certified") == both


def test_certify_polytope_wrapper_endpoint_verdicts():
    out = certify_weak_efficiency(derived_instance(), XBAR)
    # both endpoint systems feasible, on the exact per-row (LP) path
    assert out.status == "certified"
    cert = out.certificate
    # an exact LP leaves no cone-system residual, and a polytope no witness
    assert not {"system_nominal", "system_perturbed"} & set(out.residuals)
    assert all(r.witness is None for r in cert.nominal + cert.perturbed)
    assert cert.lambda_nominal == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
    assert cert.lambda_perturbed == pytest.approx([1 / 3, 2 / 3], abs=1e-9)


def test_certify_box_wrapper_matches_polytope_wrapper(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        lo = rng.integers(-2, 1, n).astype(float)
        hi = lo + rng.integers(0, 3, n)
        verts = box_vertices(lo, hi)
        x0 = rng.integers(-2, 3, n).astype(float)
        b_hi = float(min(v @ x0 for v in verts))      # all vertex rows active
        C = rng.integers(-4, 5, (2, n)).astype(float)
        pb = UncertainMOLP(2, n, C, [1.0, 0.0], rng.integers(-3, 4, n).astype(float),
                           (Box(lo, hi, b_hi, b_hi),))
        pp = UncertainMOLP(2, n, C, pb.u, pb.v,
                           (Polytope(tuple(np.concatenate([v, [b_hi]]) for v in verts)),))
        ob = certify_weak_efficiency(validate_problem(pb), x0)
        op = certify_weak_efficiency(validate_problem(pp), x0)
        assert ob.status == op.status


def test_certify_box_one_dimensional_hand_case():
    # a in [1, 2], b = 0, X = {x >= 0}; minimizing +x is optimal at 0
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (Box([1.0], [2.0], 0.0, 0.0),))
    out = certify_weak_efficiency(validate_problem(p), np.array([0.0]))
    assert out.status == "certified"
    rec = out.certificate.nominal[0]
    assert rec.mu > 0
    # the mirrored objective (-x) has no minimizer on R+, so 0 is refuted
    p2 = UncertainMOLP(1, 1, [[-1.0]], [0.0], [0.0],
                       (Box([1.0], [2.0], 0.0, 0.0),))
    assert certify_weak_efficiency(validate_problem(p2), np.array([0.0])).status == "refuted"


def test_degenerate_box_equals_singleton(rng):
    for _ in range(10):
        prob, anchor = random_polyhedral_problem(rng, n_max=3)
        sing = [c for c in prob.constraints if isinstance(c, Singleton)]
        boxes = tuple(Box(c.a_bar, c.a_bar, c.b_bar, c.b_bar) for c in sing)
        pb = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, boxes)
        ps = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, tuple(sing))
        x = vertex_candidate(rng, ps, anchor)
        ob = certify_weak_efficiency(validate_problem(pb), x)
        os_ = certify_weak_efficiency(validate_problem(ps), x)
        assert ob.status == os_.status


def test_box_vs_polytope_agreement(rng):
    for _ in range(25):
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
        pb = UncertainMOLP(m, n, C, u, v, tuple(boxes))
        pp = UncertainMOLP(m, n, C, u, v, tuple(polys))
        # a vertex of the same set, taken from its vertex rows
        x = vertex_candidate(rng, pp, x0)
        ob = certify_weak_efficiency(validate_problem(pb), x)
        op = certify_weak_efficiency(validate_problem(pp), x)
        assert ob.status == op.status


# ---------------------------------------------------------------------------
# Slater check
# ---------------------------------------------------------------------------

def test_slater_zero_delta_strictly_feasible():
    p = UncertainMOLP(1, 3, np.zeros((1, 3)), [0.0], np.zeros(3), (
        NormBall([-2.0, -1.0, -2.0], np.eye(3), 0.0, 2, -6.0, -6.0),
        NormBall([-1.0, -2.0, -2.0], np.eye(3), 0.0, 2, -6.0, -6.0),
        NormBall([-1.0, 0.0, 0.0], np.eye(3), 0.0, 2, -3.0, -3.0),
        NormBall([0.0, -1.0, 0.0], np.eye(3), 0.0, 2, -3.0, -3.0),
        NormBall([0.0, 0.0, -1.0], np.eye(3), 0.0, 2, -3.0, -3.0)))
    X = reduce_constraints(validate_problem(p))
    chk = check_slater(X)
    assert chk.ok and feasibility.maximize_min_slack(X).value > 0
    # interior witness: slacks at (1, 1, 1) are all >= 1
    x = np.array([1.0, 1.0, 1.0])
    assert min(X.slack(x)) >= 1.0 and not X.concave


def test_slater_violated_when_delta_too_large():
    # x - 2|x| >= 0 leaves X = {0}: no Slater point, yet its one point is
    # weakly efficient, and the certificate replays without one
    p = UncertainMOLP(1, 1, [[-1.0]], [0.0], [0.0],
                      (NormBall([1.0], [[1.0]], 2.0, 2, 0.0, 0.0),))
    vp = validate_problem(p)
    chk = check_slater(reduce_constraints(vp))
    assert not chk.ok and chk.x0 is None
    # the supergradients at a point x > 0 and at -x span the line through 0
    assert chk.reason == "no Slater point exists (distance 0.000e+00)"
    x = np.array([0.0])
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok


# The line x2 = 0: an ellipsoid (0, 0) + w (0, 1), |w| <= 1, with b = 0
LINE = Ellipsoid([0.0, 0.0], ((0.0, 1.0),), -1.0, 0.0)
# two tangent unit disks centred at (+-1, 0), homogenized over (x, t) with
# t fixed at 1 by two singletons; the set is their one common point
TANGENT_DISKS = (Singleton([0.0, 0.0, 1.0], 1.0), Singleton([0.0, 0.0, -1.0], -1.0),
                 Ellipsoid([0.0, 0.0, 1.0], ((1.0, 0.0, -1.0), (0.0, 1.0, 0.0)), -1.0, 0.0),
                 Ellipsoid([0.0, 0.0, 1.0], ((1.0, 0.0, 1.0), (0.0, 1.0, 0.0)), -1.0, 0.0))


@pytest.mark.parametrize("cons, C, x", [((LINE,), [[0.0, 1.0]], [0.0, 0.0]),
                                        (TANGENT_DISKS, [[1.0, 0.0, 0.0]], [0.0, 0.0, 1.0])])
def test_certify_needs_no_slater_point(cons, C, x):
    # the objective is normal to the set at its point: weakly efficient
    x = np.array(x)
    vp = validate_problem(UncertainMOLP(1, x.size, C, [0.0], np.zeros(x.size), cons))
    assert not check_slater(reduce_constraints(vp)).ok
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok


@pytest.mark.parametrize("cons, C, x", [((LINE,), [[1.0, 0.0]], [0.0, 0.0]),
                                        (TANGENT_DISKS, [[0.0, 1.0, 0.0]], [0.0, 0.0, 1.0])])
def test_no_slater_point_no_refutation_across_an_active_two_norm_row(cons, C, x):
    # the objective runs along the set's tangent, so the endpoint fails; an
    # untilted step along its direction leaves the active rows, and the
    # one it would replay (0, -2^-26, 1) for the disks is infeasible by
    # about 1e-16, "inside" only because sqrt(1 + 2^-52) rounds to 1
    x = np.array(x)
    vp = validate_problem(UncertainMOLP(1, x.size, C, [0.0], np.zeros(x.size), cons))
    chk = check_slater(reduce_constraints(vp))
    assert not chk.ok and chk.reason.startswith("no Slater point exists (distance ")
    out = certify_weak_efficiency(vp, x)
    assert out.status == "unknown" and out.refutation is None
    assert out.reason.startswith("nominal endpoint infeasible (residual ")
    assert ", stop " in out.reason
    assert out.reason.endswith(f"but {chk.reason} to tilt its Farkas direction "
                               "into the active 2-norm rows")


def test_chain_of_rows_1e5_apart_has_a_slater_point_and_is_refuted():
    # x1 >= 1, x2 >= 1e5 x1, x3 >= 1e5 x2 and the ellipsoid row
    # x1 >= 5e-11 |x3| under min x3: x0 = (1, 1e5, 1e10) meets the linear
    # rows and the 2-norm row with slack 0.5.  The search's first nearest
    # point is 1e-10 from 0, but its weights do not replay, so it is no
    # "none"; its least-squares point, x0 up to rounding, is the Slater
    # point, and certify at x_bar = (1, 1e5, 2e10) tilts toward it and refutes
    vp = validate_problem(load_problem(Path(__file__).with_name("chain_ellipsoid_problem.json")))
    X = reduce_constraints(vp)
    x0, x_bar = np.array([1.0, 1e5, 1e10]), np.array([1.0, 1e5, 2e10])
    assert min(X.slack(x0)) >= 0.0 and X.concave[0].slack(x0) == 0.5
    assert check_slater(X).ok
    assert_replaying_refutation(vp.problem, x_bar, certify_weak_efficiency(vp, x_bar))


@pytest.mark.xfail(strict=True, reason="_refute tilts the endpoint direction toward the "
                                       "Slater point by at most eps = 1 (ROADMAP known defects)")
def test_a_point_that_the_oracle_refutes_across_an_ellipsoid_is_refuted():
    # -x1 - 3 x2 - |x1 - x2/2| >= 7 under max x1 + x2, tight at
    # x_bar = (-1, -2): the direction (1.2, -1) improves and stays in the
    # set, and the oracle's scenario LP finds (4, -6), 1 better; but the
    # endpoint direction (1.5, -0.5), tilted toward the Slater point by at
    # most eps = 1, still leaves the set, so certify answers unknown
    p = UncertainMOLP(1, 2, [[-1.0, -1.0]], [0.0], [0.0, 0.0],
                      (Ellipsoid([-1.0, -3.0], ((1.0, -0.5),), 6.0, 7.0),))
    vp = validate_problem(p)
    x_bar = np.array([-1.0, -2.0])
    assert check_slater(reduce_constraints(vp)).ok
    seen = refute_robust_weak_efficiency(p, x_bar, 3)
    assert seen.outcome == "refuted" and seen.witness.x.tolist() == [4.0, -6.0]
    assert_replaying_refutation(p, x_bar, certify_weak_efficiency(vp, x_bar))


def test_certified_active_two_norm_row_runs_no_slater_search(monkeypatch):
    import robustmolp.efficiency as eff

    def forbidden(*args, **kwargs):
        raise AssertionError("a certificate needs no Slater point")

    monkeypatch.setattr(eff, "check_slater", forbidden)
    systems = _spy_cone_systems(monkeypatch)
    # the unit disc tight at (1, 0), minimizing -x1
    disc = NormBall([0.0, 0.0], np.eye(2), 1.0, 2, -2.0, -1.0)
    vp = validate_problem(UncertainMOLP(1, 2, [[-1.0, 0.0]], [0.0], [0.0, 0.0], (disc,)))
    x = np.array([1.0, 0.0])
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified" and systems
    assert verify_certificate(vp, x, out.certificate).ok


def test_each_norm_ball_is_inverted_once_per_certify(monkeypatch):
    # validation proves each Z nonsingular by its singular values, and
    # reduce_constraints inverts the validated Z without decomposing it
    # again: one require_nonsingular and one inverse per norm ball across
    # validate_problem and certify_weak_efficiency
    import robustmolp.model as model
    import robustmolp.numerics as numerics
    checked, inverted = [], []
    check, inv = numerics.require_nonsingular, np.linalg.inv
    for module in (model, numerics):
        monkeypatch.setattr(module, "require_nonsingular",
                            lambda Z: checked.append(Z) or check(Z))
    monkeypatch.setattr(np.linalg, "inv", lambda Z: inverted.append(Z) or inv(Z))
    balls = tuple(NormBall([1.0, float(k)], [[2.0, 1.0], [1.0, 2.0]], 0.5, s, -1.0, 0.0)
                  for k, s in enumerate((1, 2, _INF)))
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0], balls)
    certify_weak_efficiency(validate_problem(p), np.array([10.0, 10.0]))
    assert len(checked) == len(inverted) == len(balls)


def _slater_search(monkeypatch, delta, s):
    """The Slater search of the row (1, 1).x - delta ||x||_{s*} >= 0, where
    s* is the norm conjugate to s, and its check, which solves no LP."""
    forbid_lp(monkeypatch)
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                      (NormBall([1.0, 1.0], np.eye(2), delta, s, 0.0, 0.0),))
    X = reduce_constraints(validate_problem(p))
    return feasibility.maximize_min_slack(X), check_slater(X)


@pytest.mark.parametrize("s, threshold", [(1, 2.0), (_INF, 1.0)])
def test_slater_of_norm_one_and_inf_rows_is_one_lp(monkeypatch, s, threshold):
    # the row's min-slack has supremum +inf below delta = threshold and is
    # 0 only at x = 0 above it; the refined Slater condition asks a
    # polyhedral row only to be satisfied, so even the set {0} passes, in
    # one solve, the minimum-norm point of the lift's feasibility LP, whose
    # point is -e, x = 0, and whose value is 1
    for delta in (0.9 * threshold, 1.1 * threshold):
        search, chk = _slater_search(monkeypatch, delta, s)
        assert (search.value, search.distance, search.rounds, search.stop) == (1.0, 1.0, 1, "found")
        assert search.x.tolist() == [0.0, 0.0]
        assert chk.ok and chk.x0.tolist() == search.x.tolist() and chk.reason is None


def test_slater_of_two_norm_row_decided_by_tangent_cuts(monkeypatch):
    # 1.2 < sqrt(2) makes the supremum +inf; the first round, with no
    # column of the row, gives x = 0, where the slack is 0, and the row's
    # tangent cut there, (1, 1, 0)/1.2 generated as a column, gives the
    # nearest point of its segment to -e: x = (0.6, 0.6), with slack
    # 1.2 - 0.72 sqrt(2) > 0
    search, chk = _slater_search(monkeypatch, 1.2, 2)
    assert (search.stop, search.rounds) == ("found", 2)
    assert search.value == pytest.approx(1.2 - 0.72 * np.sqrt(2.0)) and search.distance > 0.1
    x = chk.x0
    assert chk.ok and x[0] == x[1] and x.sum() - 1.2 * np.linalg.norm(x) == search.value


def test_slater_of_two_norm_row_violated_reports_nonpositive_bound(monkeypatch):
    # 1.5 > sqrt(2): the supremum is 0 at x = 0; after the first round,
    # which has no column of the row, the tangent cuts at x = 0 and at the
    # next point combine with -e into 0, a distance within VI_TOL whose
    # weights replay, so the bound reported is -inf
    search, chk = _slater_search(monkeypatch, 1.5, 2)
    assert (search.x, search.value, search.rounds, search.stop) == (None, -_INF, 3, "none")
    assert search.distance <= VI_TOL
    assert not chk.ok and chk.reason == f"no Slater point exists (distance {search.distance:.3e})"


def test_slater_point_on_a_linear_row_by_rounding_is_reflected_inside_it():
    # the nearest point lies on x1 = x2, which is active at x_bar, and its
    # x misses that row by 9e-15; tilted toward it, the refutation's step
    # would leave the row at once.  Reflected across the rows it misses,
    # the point meets them in floats, and the tilted step replays
    cons = (Singleton([-1.0, 3.0, -3.0], 5.0), Singleton([3.0, -3.0, 0.0], 0.0),
            NormBall([-2.0, 2.0, 3.0], np.eye(3), 1.0, 2, -9.0, -8.0),
            Ellipsoid([-3.0, 2.0, -3.0], ((1.0, 1.0, -1.0), (-1.0, 1.0, 1.0)),
                      6.0 - 2.0 * np.sqrt(2.0) - 1.0, 6.0 - 2.0 * np.sqrt(2.0)))
    p = UncertainMOLP(1, 3, [[2.0, -2.0, -3.0]], [0.0], [1.0, 2.0, 2.0], cons)
    X = reduce_constraints(validate_problem(p))
    chk = check_slater(X)
    assert chk.ok and X.slack(chk.x0).min() >= 0.0
    x = np.array([0.0, 0.0, -2.0])
    assert_replaying_refutation(p, x, certify_weak_efficiency(validate_problem(p), x))


def _scaled_disc(c):
    """The unit disc tight at x = (1, 0) with its row scaled by c, under the
    objective -x2 along its tangent there (C_bar + u v^T = 0)."""
    disc = NormBall([0.0, 0.0], np.eye(2) / c, 1.0, 2, -2 * c, -c)
    return UncertainMOLP(1, 2, [[0.0, -1.0]], [1.0], [0.0, 1.0], (disc,)), np.array([1.0, 0.0])


@pytest.mark.parametrize("c", [1.0, 1e-4, 1e-6, 1e-7, 1e-9])
def test_unit_disc_in_rows_scaled_by_c_is_refuted(c):
    # the Slater point that tilts the refutation is searched for on rows of
    # unit scale, whatever c: an absolute margin of 1e-6 once read "no
    # Slater point" at c = 1e-7, and a phase-1 LP raised at c = 1e-9
    p, x = _scaled_disc(c)
    out = certify_weak_efficiency(validate_problem(p), x)
    assert_replaying_refutation(p, x, out)
    assert worst_slack(p.constraints[0], out.refutation.x) > 0.0


def test_certify_decides_the_slater_instances_without_an_lp(monkeypatch):
    # the Slater search is one minimum-norm point with generated columns:
    # no certify call reaches the simplex, whose only caller left is the
    # oracle's scenario LP
    import robustmolp.efficiency as eff
    forbid_lp(monkeypatch)
    searches = []
    check = eff.check_slater
    monkeypatch.setattr(eff, "check_slater", lambda X: searches.append(X) or check(X))
    cases = [((LINE,), [[1.0, 0.0]], [0.0, 0.0], "unknown"),
             (TANGENT_DISKS, [[0.0, 1.0, 0.0]], [0.0, 0.0, 1.0], "unknown"),
             (JOINT_BALLS, -np.eye(2), [0.0, 0.0], "refuted"),
             ((NormBall([0.0, 0.0], np.eye(2), 1.0, 2, -2.0, -1.0),), [[0.0, 1.0]],
              [1.0, 0.0], "refuted")]
    for cons, C, x, status in cases:
        x = np.array(x)
        p = UncertainMOLP(len(C), x.size, C, np.zeros(len(C)), np.zeros(x.size), cons)
        assert certify_weak_efficiency(validate_problem(p), x).status == status
    for c in (1.0, 1e-9):
        p, x = _scaled_disc(c)
        assert certify_weak_efficiency(validate_problem(p), x).status == "refuted"
    assert len(searches) == len(cases) + 2
    # and the check alone, where a Slater point exists and where none does
    for delta, ok in ((0.5, True), (2.0, False)):
        p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                          (NormBall([1.0], [[1.0]], delta, 2, 0.0, 0.0),))
        assert check_slater(reduce_constraints(validate_problem(p))).ok == ok


# ---------------------------------------------------------------------------
# norm / ellipsoid certification
# ---------------------------------------------------------------------------

def test_norm_one_dimensional_hand_cases():
    # X = {x - 0.5|x| >= 0} = R+; minimizing +x is optimal at 0
    good = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                         (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    out = certify_weak_efficiency(validate_problem(good), np.array([0.0]))
    assert out.status == "certified"
    rec = out.certificate.nominal[0]
    # brute-force oracle over the (mu, w) grid: mu*(1 - 0.5 w) = 1, |w| <= 1
    found = False
    for mu in np.arange(0.0, 4.0, 1e-3):
        for w in (-1.0, -0.5, 0.0, 0.5, 1.0):
            if abs(mu * (1.0 - 0.5 * w) - 1.0) < 2e-3 and abs(mu * 0.0) < 1e-9:
                found = True
    assert found
    assert rec.mu * (1.0 - 0.5 * float(rec.witness[0])) == pytest.approx(1.0, abs=1e-6)
    # minimizing -x has no optimum on R+; the certificate system is
    # infeasible and the oracle supplies the dominating witness
    bad = UncertainMOLP(1, 1, [[-1.0]], [0.0], [0.0],
                        (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    out2 = certify_weak_efficiency(validate_problem(bad), np.array([0.0]))
    assert out2.status == "refuted"
    assert out2.refutation.x is not None


def test_norm_one_and_inf_cone_paths_are_exact():
    # 1-norm ball on the coefficients: slack x1 - 0.5 max(|x1|, |x2|); both
    # balls are lifted into linear rows and decided by the endpoint LP
    for s in (1, _INF):
        con = NormBall([1.0, 0.0], np.eye(2), 0.5, s, 0.0, 0.0)
        good = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0], (con,))
        out = certify_weak_efficiency(validate_problem(good), np.array([0.0, 0.0]))
        assert out.status == "certified"
        rec = out.certificate.nominal[0]
        assert norm_value(rec.witness, s) <= 1.0 + 1e-10
        assert verify_certificate(validate_problem(good), np.zeros(2),
                                  out.certificate, 1e-7).ok
        bad = UncertainMOLP(1, 2, [[-1.0, 0.0]], [0.0], [0.0, 0.0], (con,))
        out2 = certify_weak_efficiency(validate_problem(bad), np.array([0.0, 0.0]))
        assert out2.status == "refuted"


def test_lifted_inf_ball_with_empty_interior_is_certified():
    # {x : x - 0.5|x| >= 0, -x >= 0} = {0}: no point is strictly feasible,
    # but lifted into linear rows the set needs no Slater point
    p = UncertainMOLP(1, 1, [[1.0]], [1.0], [1.0],
                      (NormBall([1.0], [[1.0]], 0.5, _INF, 0.0, 0.0),
                       Singleton([-1.0], 0.0)))
    vp = validate_problem(p)
    X = reduce_constraints(vp)
    search = feasibility.maximize_min_slack(X)
    assert search.value == 1.0 and search.x.tolist() == [0.0]
    x = np.array([0.0])
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok
    assert refute_robust_weak_efficiency(p, x).outcome == "confirmed"


def test_box_without_interior_beside_a_two_norm_ball_is_certified():
    # a box row x >= 0 and -x >= 0 leave {0}; the refined Slater condition
    # asks strict slack of the 2-norm ball only, which has slack 1 at 0
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (Box([1.0], [2.0], -1.0, 0.0), Singleton([-1.0], 0.0),
                       NormBall([1.0], [[1.0]], 0.5, 2, -1.0, -1.0)))
    vp = validate_problem(p)
    assert check_slater(reduce_constraints(vp)).ok
    x = np.array([0.0])
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok


def _mixed_ball_problem(rng, kinds):
    """Balls of the given norm indices (2 = ellipsoid-like 2-norm ball),
    tight at an integer anchor, with an objective in the cone of their
    supergradients there, so the anchor is certified."""
    n = int(rng.integers(1, 4))
    x = rng.integers(-2, 3, n).astype(float)
    x[x == 0] = 1.0
    cons, grads = [], []
    for s in kinds:
        a = rng.integers(-3, 4, n).astype(float)
        a[0] = 4.0
        row = reduce_constraints(validate_problem(UncertainMOLP(
            1, n, np.zeros((1, n)), [0.0], np.zeros(n),
            (NormBall(a, np.eye(n), 0.5, s, 0.0, 0.0),)))).concave[0]
        b = float(row.slack(x))
        cons.append(NormBall(a, np.eye(n), 0.5, s, b - 1.0, b))
        grads.append(row.supergradient(x)[:-1])
    C = np.array([sum(grads), grads[0]])
    return UncertainMOLP(2, n, C, [1.0, 0.0], grads[-1], tuple(cons)), x


def test_polyhedral_balls_skip_slater_and_cone_solver(monkeypatch, rng):
    import robustmolp.efficiency as eff

    def forbidden(*args, **kwargs):
        raise AssertionError("polyhedral sets need no Slater or cone solve")

    monkeypatch.setattr(eff, "check_slater", forbidden)
    monkeypatch.setattr(eff, "solve_cone_system", forbidden)
    for kinds in ((1,), (_INF,), (1, _INF), (_INF, _INF)):
        p, x = _mixed_ball_problem(rng, kinds)
        vp = validate_problem(p)
        out = certify_weak_efficiency(vp, x)
        assert out.status == "certified"
        assert verify_certificate(vp, x, out.certificate).ok
        neg = UncertainMOLP(p.m, p.n, -p.C_bar, p.u, -p.v, p.constraints)
        assert certify_weak_efficiency(validate_problem(neg), x).status == "refuted"


def test_cone_solver_sees_only_two_norm_blocks(monkeypatch, rng):
    systems = _spy_cone_systems(monkeypatch)
    for kinds in ((2,), (_INF, 2), (1, 2)):
        p, x = _mixed_ball_problem(rng, kinds)
        neg = UncertainMOLP(p.m, p.n, -p.C_bar, p.u, -p.v, p.constraints)
        for q in (p, neg):
            certify_weak_efficiency(validate_problem(q), x)
    assert len(systems) >= 6
    for _, _, blocks in systems:
        assert any(kind == "soc" and dim > 1 for kind, dim in blocks)


def test_lifted_ball_rows_share_group_multipliers_in_the_cone_system(monkeypatch, rng):
    # an s = inf ball's band rows fold into its main row's group, as in the
    # LP: one nonnegative column per group beside the 2-norm ball's block
    import robustmolp.efficiency as eff
    systems = _spy_cone_systems(monkeypatch)
    for _ in range(4):
        p, x = _mixed_ball_problem(rng, (_INF, 2))
        vp = validate_problem(p)
        XL, xl = reduce_constraints(vp).lift(x)
        geo = eff.active_geometry(XL, xl)
        assert len(geo.groups) < len(geo.active_rows)
        cones = [r for r in XL.concave if r.slack(xl) <= eff.ACTIVE_TOL]
        width = p.m + len(geo.groups) + sum(r.P.shape[1] + 1 for r in cones)
        systems.clear()
        out = certify_weak_efficiency(vp, x)
        assert out.status == "certified"
        assert verify_certificate(vp, x, out.certificate).ok
        assert len(cones) == 1 and len(systems) == 2
        for A, _, blocks in systems:
            assert A.shape[1] == width
            assert blocks[1] == ("nonneg", len(geo.groups))


def _two_ball_instance():
    """Two 2-norm balls; the first is tight at x, the second has slack 2.
    With a cone block for the second ball too, the perturbed endpoint system
    ends at the FISTA budget with a row-scaled residual within tolerance
    while the certificate's own residuals are not."""
    g = np.array([1.1753023673643446, -5.0652971905283293, 2.9347028094716703])
    p = UncertainMOLP(
        3, 3, np.outer([1.0, 2.0, 1.0], g), [1.0, 2.0, 0.0], g,
        (NormBall([1, -5, 3], [[3, 1, 1], [1, 4, 2], [1, 2, 4]], 0.5, 2,
                  -10.330039061580839, -9.3300390615808393),
         NormBall([5, -5, 5], [[2, -1, -1], [-1, 3, 1], [-1, 1, 2]], 1.0, 2,
                  -16.724744871391589, -15.724744871391589)))
    return validate_problem(p), np.array([-2.5, 3.0, 3.0])


def _budget_mixed_instance():
    """A 2-norm ball beside an s = 1 ball (_mixed_ball_problem kinds (2, 1)),
    both tight at x: both endpoint systems run FISTA to its iteration budget
    within the system tolerance, and the perturbed certificate's
    complementarity residual is above RESIDUAL_TOL."""
    g1 = np.array([3.646446609406726, 2.646446609406726])
    g2 = np.array([3.5, 1.0])
    p = UncertainMOLP(
        2, 2, np.array([g1 + g2, g1]), [1.0, 0.0], g2,
        (NormBall([4.0, 3.0], np.eye(2), 0.5, 2, 5.292893218813452, 6.292893218813452),
         NormBall([4.0, 1.0], np.eye(2), 0.5, 1, 3.5, 4.5)))
    return validate_problem(p), np.array([1.0, 1.0])


def _spy_cone_systems(monkeypatch):
    """Record the (A, b, blocks) of every cone solve of efficiency."""
    import robustmolp.efficiency as eff
    systems = []
    solve = eff.solve_cone_system

    def spy(A, b, blocks):
        systems.append((A, b, blocks))
        return solve(A, b, blocks)

    monkeypatch.setattr(eff, "solve_cone_system", spy)
    return systems


def _forbid_cone_solve(monkeypatch):
    import robustmolp.efficiency as eff

    def forbidden(*args, **kwargs):
        raise AssertionError("no 2-norm row is active: the endpoints are LPs")

    monkeypatch.setattr(eff, "solve_cone_system", forbidden)


def test_certify_never_issues_a_certificate_its_replay_rejects(monkeypatch):
    systems = _spy_cone_systems(monkeypatch)
    for vp, x in (_two_ball_instance(), _budget_mixed_instance()):
        systems.clear()
        out = certify_weak_efficiency(vp, x)
        # the guard is only exercised where the cone solver runs
        assert systems
        if out.status == "certified":
            assert verify_certificate(vp, x, out.certificate).ok
        else:
            assert out.status == "unknown"
            assert max(out.residuals.values()) > 1e-7


def test_inactive_second_ball_leaves_a_replaying_certificate():
    vp, x = _two_ball_instance()
    X = reduce_constraints(vp)
    assert [round(r.slack(x), 9) for r in X.concave] == [0.0, 2.0]
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok
    # the inactive ball's record: no multiplier, witness w = 0, scenario a_bar
    for recs in (out.certificate.nominal, out.certificate.perturbed):
        rec = recs[1]
        assert rec.mu == 0.0 and norm_value(rec.witness, 2) == 0.0
        assert not rec.witness.any()
        assert np.array_equal(rec.scenario_a, X.concave[1].a_bar)


def _with_inactive_balls(p, x, count=1):
    """p with `count` more 2-norm balls, each with slack 2 at x."""
    cons = []
    for k in range(count):
        a = np.zeros(p.n)
        a[k % p.n] = 1.0 + k
        Z = np.eye(p.n) * (1.0 + k)
        row = reduce_constraints(validate_problem(UncertainMOLP(
            1, p.n, np.zeros((1, p.n)), [0.0], np.zeros(p.n),
            (NormBall(a, Z, 0.5, 2, 0.0, 0.0),)))).concave[0]
        b = float(row.slack(x)) - 2.0
        cons.append(NormBall(a, Z, 0.5, 2, b - 1.0, b))
    return UncertainMOLP(p.m, p.n, p.C_bar, p.u, p.v, tuple(p.constraints) + tuple(cons))


def test_cone_system_has_one_block_per_active_two_norm_row(monkeypatch, rng):
    systems = _spy_cone_systems(monkeypatch)
    for kinds in ((2,), (_INF, 2), (1, 2)):
        p, x = _mixed_ball_problem(rng, kinds)
        q = _with_inactive_balls(p, x, count=2)
        neg = UncertainMOLP(q.m, q.n, -q.C_bar, q.u, -q.v, q.constraints)
        for prob in (q, neg):
            systems.clear()
            certify_weak_efficiency(validate_problem(prob), x)
            assert systems
            for _, _, blocks in systems:
                # the tight 2-norm ball only, never the two with slack 2
                assert sum(kind == "soc" for kind, _ in blocks) == 1


def test_all_inactive_two_norm_rows_make_no_cone_solve(monkeypatch, rng):
    _forbid_cone_solve(monkeypatch)
    statuses = []
    for _ in range(20):
        prob, anchor = random_polyhedral_problem(rng, n_max=3)
        x = vertex_candidate(rng, prob, anchor)
        vq = validate_problem(_with_inactive_balls(prob, x, 2))
        # rows slack at x do not move the normal cone there, so the verdict
        # of the set without them stands
        want = certify_weak_efficiency(validate_problem(prob), x).status
        out = certify_weak_efficiency(vq, x)
        assert out.status == want
        # an LP decision is exact and leaves no system residual
        assert not {"nominal", "perturbed", "system_nominal",
                    "system_perturbed"} & set(out.residuals)
        statuses.append(want)
    assert {"certified", "refuted"} <= set(statuses)


def test_inf_ball_beside_inactive_two_norm_ball_refuted_without_cone_solve(
        monkeypatch, rng):
    # an s = inf ball's lifted rows beside a 2-norm block once stalled the
    # infeasible cone solve short of a Farkas certificate
    _forbid_cone_solve(monkeypatch)
    for _ in range(3):
        p, x = _mixed_ball_problem(rng, (_INF,))
        neg = UncertainMOLP(p.m, p.n, -p.C_bar, p.u, -p.v, p.constraints)
        out = certify_weak_efficiency(validate_problem(_with_inactive_balls(neg, x)), x)
        assert out.status == "refuted"
        assert out.refutation.x is not None


def test_certify_never_consults_the_oracle(monkeypatch, rng):
    import robustmolp.oracle as oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("certify must refute without the oracle")

    monkeypatch.setattr(oracle, "refute_robust_weak_efficiency", forbidden)
    for kinds in ((2,), (_INF, 2), (1, 2)):
        p, x = _mixed_ball_problem(rng, kinds)
        for q in (p, _with_inactive_balls(p, x)):
            neg = UncertainMOLP(q.m, q.n, -q.C_bar, q.u, -q.v, q.constraints)
            assert_replaying_refutation(neg, x, certify_weak_efficiency(validate_problem(neg), x))


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.mark.parametrize("workload, certified, refuted", [
    ("CertifyPolyWorkload", 43, 37), ("CertifyConeWorkload", 25, 23)])
def test_catalogues_refute_without_the_scenario_lp(monkeypatch, workload, certified, refuted):
    # the benchmark's seed-0 catalogue, built by bench/workloads.py from
    # its source (read only; no library call builds an instance)
    import robustmolp
    import robustmolp.efficiency as eff
    import robustmolp.oracle as oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("certify refutes along the endpoint's Farkas direction")

    monkeypatch.setattr(eff, "weakly_efficient_for_scenario", forbidden)
    monkeypatch.setattr(eff, "solve_lp", forbidden)         # nor an endpoint LP
    monkeypatch.setattr(oracle, "refute_robust_weak_efficiency", forbidden)
    catalogue = runpy.run_path(str(WORKLOADS))[workload]().make_inputs(robustmolp, None, 0)
    statuses = []
    for inst in catalogue:
        out = certify_weak_efficiency(validate_problem(inst.problem), inst.x_bar)
        statuses.append(out.status)
        if out.status == "refuted":
            assert_replaying_refutation(inst.problem, inst.x_bar, out)
    assert [statuses.count(s) for s in ("certified", "refuted", "unknown")] == [
        certified, refuted, 0]


@pytest.mark.parametrize("workload", ["CertifyPolyWorkload", "CertifyConeWorkload"])
def test_scaled_objectives_never_refute_a_certified_point(workload):
    # C_bar and u times 1e8 or 1e10 leave weak efficiency as it is; the
    # endpoint LP's Farkas ray once refuted certified points there with
    # witnesses that left an active row, and phase 1 raised "unbounded".
    # Certified (and verified) or unknown are the answers scaling can leave.
    import robustmolp
    catalogue = runpy.run_path(str(WORKLOADS))[workload]().make_inputs(robustmolp, None, 0)
    for inst in catalogue:
        p, x = inst.problem, inst.x_bar
        base = certify_weak_efficiency(validate_problem(p), x).status
        for scale in (1e8, 1e10):
            q = UncertainMOLP(p.m, p.n, scale * p.C_bar, scale * p.u, p.v, p.constraints)
            out = certify_weak_efficiency(validate_problem(q), x)
            if out.status == "refuted":
                assert base != "certified"
                assert_replaying_refutation(q, x, out)
            elif out.status == "certified":
                assert verify_certificate(q, x, out.certificate).ok


def test_refute_replays_the_active_rows_its_direction_would_leave():
    # x2 >= -5 is the only row the ratio test looks at; (-1, -1) improves
    # the objective x2 but leaves the active row x1 >= 0, whose witness
    # (-1, -1) was returned as a refutation
    import robustmolp.efficiency as eff
    p = UncertainMOLP(1, 2, [[0.0, 1.0]], [0.0], [0.0, 0.0],
                      (Singleton([1.0, 0.0], 0.0), Singleton([0.0, 1.0], -5.0)))
    X, x = reduce_constraints(validate_problem(p)), np.zeros(2)
    assert eff._refute(X, x, np.array([-1.0, -1.0]), p.C_bar, None) is None
    w, gap = eff._refute(X, x, np.array([0.0, -1.0]), p.C_bar, None)
    assert w.tolist() == [0.0, -1.0] and gap.tolist() == [1.0]


def _spy_endpoint_solves(monkeypatch):
    """Every minimum-norm point certify solves: the polyhedral endpoint
    systems, once LPs, and the tangent systems of failing cone endpoints."""
    import robustmolp.efficiency as eff
    solves = []
    solve = eff.min_norm_point

    def spy(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eff, "min_norm_point", spy)
    return solves


def test_failing_nominal_endpoint_is_the_only_lp_solved(monkeypatch):
    # the endpoints differ (u v^T = e1 e1^T), and the nominal one fails:
    # no row is active, so C^T lambda = 0 has no solution on the simplex
    p = UncertainMOLP(2, 2, np.eye(2), [1.0, 0.0], [1.0, 0.0],
                      (Singleton([1.0, 0.0], -5.0), Singleton([0.0, 1.0], -5.0)))
    x = np.zeros(2)
    solves = _spy_endpoint_solves(monkeypatch)
    out = certify_weak_efficiency(validate_problem(p), x)
    assert_replaying_refutation(p, x, out)
    assert out.refutation.endpoint == "nominal" and len(solves) == 1


@pytest.mark.parametrize("workload, count", [
    ("CertifyPolyWorkload", 118), ("CertifyConeWorkload", 31)])
def test_catalogue_endpoint_lp_count_is_pinned(monkeypatch, workload, count):
    # 153 and 54 while a failing nominal endpoint was followed by the
    # perturbed one: 35 + 23 nominal refutations with distinct endpoints
    # each spent one more; the counts held when the endpoint LPs became
    # minimum-norm points
    import robustmolp
    catalogue = runpy.run_path(str(WORKLOADS))[workload]().make_inputs(robustmolp, None, 0)
    solves = _spy_endpoint_solves(monkeypatch)
    for inst in catalogue:
        certify_weak_efficiency(validate_problem(inst.problem), inst.x_bar)
    assert len(solves) == count


def test_catalogue_cone_step_count_is_pinned(monkeypatch):
    # 28,941 steps while the cone solver tested for convergence only at
    # every 512th step; its early tests at 1, 2, 4, ..., 256 stop 19 of the
    # 28 solves sooner
    import robustmolp
    import robustmolp.efficiency as eff
    catalogue = runpy.run_path(str(WORKLOADS))["CertifyConeWorkload"]().make_inputs(
        robustmolp, None, 0)
    solve, results = eff.solve_cone_system, []

    def spy(A, b, blocks):
        results.append(solve(A, b, blocks))
        return results[-1]

    monkeypatch.setattr(eff, "solve_cone_system", spy)
    for inst in catalogue:
        certify_weak_efficiency(validate_problem(inst.problem), inst.x_bar)
    assert len(results) == 28
    assert {r.stop_reason for r in results} == {"converged"}
    assert sum(r.iterations for r in results) == 11_743


def _flat_classes_problem():
    """A flat box, a zero-radius norm ball and a span-less ellipsoid, each
    one linear row, the first two tight at the origin, which is certified."""
    return UncertainMOLP(2, 2, np.eye(2), [1.0, 0.0], [1.0, 0.0], (
        Box([1.0, 0.0], [1.0, 0.0], -5.0, 0.0),
        NormBall([0.0, 1.0], np.eye(2), 0.0, 2, -1.0, 0.0),
        Ellipsoid([1.0, 1.0], (), -5.0, -1.0),
        Singleton([-1.0, -1.0], -5.0)))


def test_certificate_records_hold_no_view_of_the_reduced_set():
    # a scenario_a that viewed a row of the stacked [A | b] would keep the
    # whole matrix alive as long as the certificate: it is the problem's
    # own array, a view of one (a polytope vertex), or an array of its own
    import robustmolp
    cases = [(_flat_classes_problem(), np.zeros(2))]
    for workload in ("CertifyPolyWorkload", "CertifyConeWorkload"):
        catalogue = runpy.run_path(str(WORKLOADS))[workload]().make_inputs(robustmolp, None, 0)
        cases += [(inst.problem, inst.x_bar) for inst in catalogue]
    certified = 0
    for p, x in cases:
        out = certify_weak_efficiency(validate_problem(p), x)
        if out.status != "certified":
            continue
        certified += 1
        own = [a for c in p.constraints for f in vars(c).values()
               for a in (f if isinstance(f, tuple) else (f,)) if isinstance(a, np.ndarray)]
        for rec in out.certificate.nominal + out.certificate.perturbed:
            a = rec.scenario_a
            assert a.base is None or any(a is o or a.base is o for o in own)
    assert certified > 60


def test_slater_lp_phase_one_breakdown_on_homogenized_joint_balls():
    # joint balls of radius 0.2 around (A_j, b_j), homogenized over (x, t)
    # with t fixed at 1; the system's radius is 0.2013 > 0.2, so a Slater
    # point exists
    A = np.array([[-2.0, 3.0], [2.0, 2.0], [2.0, -3.0], [-2.0, -3.0], [2.0, -1.0]])
    cons = [Singleton([0.0, 0.0, 1.0], 1.0), Singleton([0.0, 0.0, -1.0], -1.0)]
    for a, s in zip(A, (0.0, 2.0, 0.0, 1.0, 2.0)):
        b = float(a @ [-1.0, 2.0]) - 0.2 * np.sqrt(6.0) - s
        cons.append(Ellipsoid(np.append(a, -b), tuple(0.2 * np.eye(3)), -1.0, 0.0))
    p = UncertainMOLP(2, 3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0], np.zeros(3),
                      tuple(cons))
    x = np.array([-1.0, 2.0, 1.0])
    # the Slater LP that tilts the refutation once met Bland pivots of 1.2e-10
    # and 1.9e-10 and raised "phase-1 unbounded" (tests/slater_lp_phase_one.json)
    assert_replaying_refutation(p, x, certify_weak_efficiency(validate_problem(p), x))


def test_failing_nominal_cone_endpoint_reports_only_its_residual(monkeypatch, rng):
    systems = _spy_cone_systems(monkeypatch)
    for kinds in ((2,), (_INF, 2), (1, 2)):
        p, x = _mixed_ball_problem(rng, kinds)
        neg = UncertainMOLP(p.m, p.n, -p.C_bar, p.u, -p.v, p.constraints)
        systems.clear()
        out = certify_weak_efficiency(validate_problem(neg), x)
        assert_replaying_refutation(neg, x, out)
        assert out.refutation.endpoint == "nominal"
        assert len(systems) == 1 and set(out.residuals) == {"nominal"}


def _exact_ball_slack(ball, x):
    """Worst-case slack of a 2 x 2 norm ball at x in exact rationals, for
    data whose products overflow floats: a_bar.x - b_hi - delta ||Z^-1 x||
    in the norm conjugate to s."""
    from fractions import Fraction as F
    (z11, z12), (z21, z22) = (map(F, r) for r in ball.Z.tolist())
    det = z11 * z22 - z12 * z21
    x1, x2 = map(F, x.tolist())
    y = ((z22 * x1 - z12 * x2) / det, (z11 * x2 - z21 * x1) / det)
    dual = max(map(abs, y)) if ball.s == 1 else sum(map(abs, y))
    return (sum(F(a) * F(t) for a, t in zip(ball.a_bar.tolist(), x.tolist()))
            - F(ball.b_hi) - F(ball.delta) * dual)


@pytest.mark.parametrize("s", [1, _INF])
def test_refutation_step_shows_above_the_rounding_of_huge_coordinates(s):
    # no row is active at x, so x is not weakly efficient; a unit step along
    # the Farkas direction is lost in the rounding of coordinates near 1e300
    ball = NormBall([1e300, 0.0], [[2.0, 1.0], [1.0, 2.0]], 1e299, s, -1.0, 0.0)
    p = UncertainMOLP(1, 2, [[1.0, 1.0]], [0.0], [0.0, 0.0],
                      (ball, Singleton([1.0, 0.0], 0.0)))
    x = np.array([1e300, 3e299])
    out = certify_weak_efficiency(validate_problem(p), x)
    assert out.status == "refuted" and out.refutation.endpoint == "nominal"
    w = out.refutation.x
    assert np.all(np.isfinite(w)) and w[0] >= 0.0 and _exact_ball_slack(ball, w) >= 0
    assert out.refutation.gap[0] > 0.0 and float(p.C_bar[0] @ x - p.C_bar[0] @ w) > 0.0


def test_tangent_lp_point_outside_the_ball_is_tilted_toward_the_slater_point():
    # the unit disc, tight at (1, 0), under the objective x2: its tangent
    # halfspace x1 <= 1 keeps improving directions such as (0, -1), the
    # Farkas direction of the endpoint LP with the disc's tangent column,
    # or (1, -1) - (1, 0) from the scenario LP over that halfspace; each
    # leaves the disc at once, and along it only a round-off step of about
    # 1e-8 replays.  Tilted toward the Slater point, the direction enters
    # the disc and the witness lies well inside it.
    disc = NormBall([0.0, 0.0], np.eye(2), 1.0, 2, -2.0, -1.0)
    x = np.array([1.0, 0.0])
    p = UncertainMOLP(1, 2, [[0.0, 1.0]], [0.0], [0.0, 0.0], (disc,))
    chk = weakly_efficient_for_scenario(p.C_bar, [[-1.0, 0.0, -1.0]], x)
    assert not chk.efficient and worst_slack(disc, chk.witness) < -0.1
    out = certify_weak_efficiency(validate_problem(p), x)
    assert_replaying_refutation(p, x, out)
    assert worst_slack(disc, out.refutation.x) > 1e-3
    assert out.refutation.gap[0] > 1e-3


def test_unknown_names_the_endpoint_residual_and_stop_reason(monkeypatch):
    import robustmolp.efficiency as eff
    from robustmolp.numerics import ConeResult
    # a certified point whose certificate residuals are called too large
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    vp, x = validate_problem(p), np.array([0.0])
    with monkeypatch.context() as m:
        m.setattr(eff, "RESIDUAL_TOL", -1.0)
        out = certify_weak_efficiency(vp, x)
    assert out.status == "unknown" and out.certificate is None
    assert out.reason.startswith("certificate residual above RESIDUAL_TOL (")
    # every cone solve ends infeasible at the iteration budget: the tangent
    # column (z = 0 at the point, so w* = 0 and the column is -a_bar)
    # solves the endpoint, and its block (0, mu) certifies; the unknown
    # that names the residual and the stop reason is the next test's
    monkeypatch.setattr(eff, "solve_cone_system", lambda A, b, blocks: ConeResult(
        False, False, 0.25, np.zeros(A.shape[1]), 7, "budget"))
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified" and out.reason is None
    rec = out.certificate.nominal[0]
    assert (rec.mu, rec.scenario_a.tolist(), rec.witness.tolist()) == (1.0, [1.0], [0.0])
    assert verify_certificate(vp, x, out.certificate).ok
    # an endpoint decided by its minimum-norm point has no residual entry
    assert not any(k.startswith("system_") for k in out.residuals)


def test_failed_cone_solve_certifies_by_its_tangent_system(monkeypatch):
    # the unit disc tight at (1, 0), minimizing -x1: with the cone solve
    # failing, the tangent column is the realized row of w* = (1, 0), tight
    # there, and its coefficient mu gives the block (mu w*, mu); the point
    # once came back unknown ("its tangent endpoint system is feasible")
    import robustmolp.efficiency as eff
    from robustmolp.numerics import ConeResult
    p = UncertainMOLP(1, 2, [[-1.0, 0.0]], [0.0], [0.0, 0.0],
                      (NormBall([0.0, 0.0], np.eye(2), 1.0, 2, -2.0, -1.0),))
    vp, x = validate_problem(p), np.array([1.0, 0.0])
    monkeypatch.setattr(eff, "solve_cone_system", lambda A, b, blocks: ConeResult(
        False, False, 0.25, np.zeros(A.shape[1]), 7, "budget"))
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    rec = out.certificate.nominal[0]
    assert rec.mu == 1.0 and rec.witness.tolist() == [1.0, 0.0]
    assert (rec.scenario_a.tolist(), rec.scenario_b) == ([-1.0, 0.0], -1.0)
    assert verify_certificate(vp, x, out.certificate).ok


def test_unknown_tells_a_direction_without_a_replaying_witness(monkeypatch):
    import robustmolp.efficiency as eff
    from robustmolp.numerics import ConeResult
    # the cone x1 >= |x|/2 with its apex at the point, where P^T x = 0: the
    # tangent column is a_bar alone, so the tangent endpoint system is
    # infeasible although the point minimizes x1 + x2/2 over the set
    p = UncertainMOLP(1, 2, [[1.0, 0.5]], [0.0], [0.0, 0.0],
                      (NormBall([1.0, 0.0], np.eye(2), 0.5, 2, -1.0, 0.0),))
    vp, x = validate_problem(p), np.zeros(2)
    assert certify_weak_efficiency(vp, x).status == "certified"
    monkeypatch.setattr(eff, "solve_cone_system", lambda A, b, blocks: ConeResult(
        False, False, 0.25, np.zeros(A.shape[1]), 7, "budget"))
    out = certify_weak_efficiency(vp, x)
    assert out.status == "unknown" and out.refutation is None
    assert out.reason == ("nominal endpoint infeasible (residual 2.500e-01, stop budget) "
                          "but no step along its Farkas direction replays as a strictly "
                          "dominating witness")


def test_zero_delta_norm_matches_singleton_verdicts(rng):
    for _ in range(25):
        prob, anchor = random_polyhedral_problem(rng, n_max=3)
        sing = [c for c in prob.constraints if isinstance(c, Singleton)]
        if not sing:
            continue
        norm = tuple(NormBall(c.a_bar, np.eye(prob.n), 0.0, 2, c.b_bar, c.b_bar)
                     for c in sing)
        pn = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, norm)
        ps = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, tuple(sing))
        x = vertex_candidate(rng, ps, anchor)
        on = certify_weak_efficiency(validate_problem(pn), x)
        os_ = certify_weak_efficiency(validate_problem(ps), x)
        assert on.status == os_.status


def _norm_ellipsoid_pair(rng, n, m):
    """Matched NormBall (s=2, Z=I) and Ellipsoid (axis spans) instances."""
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


def test_norm_vs_ellipsoid_agreement(rng):
    for _ in range(25):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        pn, pe, x0 = _norm_ellipsoid_pair(rng, n, m)
        on = certify_weak_efficiency(validate_problem(pn), x0)
        oe = certify_weak_efficiency(validate_problem(pe), x0)
        assert on.status == oe.status


def test_certify_norm_wrapper_and_slater_error():
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    out = certify_weak_efficiency(validate_problem(p), np.array([0.0]))
    assert out.status == "certified"        # both endpoint systems feasible


def test_no_active_two_norm_row_needs_no_slater_point(monkeypatch):
    import robustmolp.efficiency as eff

    def forbidden(*args, **kwargs):
        raise AssertionError("an inactive 2-norm row needs no Slater point")

    # the row's slack at 0 is 5e-7: above ACTIVE_TOL, so both endpoints are
    # minimum-norm points, and no refutation is tilted
    monkeypatch.setattr(eff, "check_slater", forbidden)
    ball = NormBall([0.0], [[1.0]], 0.5, 2, -1.0, -5e-7)    # |x| <= 1e-6
    x = np.array([0.0])
    vp = validate_problem(UncertainMOLP(2, 1, [[1.0], [-1.0]], [0.0, 0.0], [0.0], (ball,)))
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok
    vp = validate_problem(UncertainMOLP(2, 1, [[1.0], [1.0]], [0.0, 0.0], [0.0], (ball,)))
    out = certify_weak_efficiency(vp, x)
    assert out.status == "refuted"
    # the step along the direction -1 halves from 1 until |x| <= 1e-6
    assert out.refutation.x.tolist() == [-2.0 ** -20]


def test_certify_ellipsoid_no_spans_equals_singleton():
    pe = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                       (Ellipsoid([1.0], (), 0.0, 0.0),))
    ps = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Singleton([1.0], 0.0),))
    oe = certify_weak_efficiency(validate_problem(pe), np.array([0.0]))
    os_ = certify_weak_efficiency(validate_problem(ps), np.array([0.0]))
    assert oe.status == os_.status == "certified"


def test_certify_ellipsoid_wrapper():
    p = UncertainMOLP(1, 2, [[1.0, 1.0]], [0.0], [0.0, 0.0],
                      (Ellipsoid([2.0, 0.0], (np.array([0.5, 0.0]),
                                              np.array([0.0, 0.5])), 0.0, 0.0),))
    out = certify_weak_efficiency(validate_problem(p), np.array([0.0, 0.0]))
    # x = (1, -1.5) is feasible and improves x1 + x2
    assert out.status == "refuted"


def test_coinciding_endpoints_solve_one_cone_system(monkeypatch):
    # u = 0 makes both endpoint objectives C_bar: one solve serves both
    calls = _spy_cone_systems(monkeypatch)
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [-2.0],
                      (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    out = certify_weak_efficiency(validate_problem(p), np.array([0.0]))
    assert out.status == "certified"
    assert len(calls) == 1
    cert = out.certificate
    assert np.array_equal(cert.lambda_nominal, cert.lambda_perturbed)
    calls.clear()
    p = UncertainMOLP(1, 1, [[1.0]], [1.0], [1.0],
                      (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    assert certify_weak_efficiency(validate_problem(p), np.array([0.0])).status == "certified"
    assert len(calls) == 2


def test_mixed_classes_joint_system():
    # one polytope + one norm ball, candidate on both boundaries
    p = UncertainMOLP(
        1, 2, [[1.0, 1.0]], [0.0], [0.0, 0.0],
        (Polytope((np.array([1.0, 0.0, 0.0]),)),
         NormBall([0.0, 1.0], np.eye(2), 0.5, 2, 0.0, 0.0)))
    out = certify_weak_efficiency(validate_problem(p), np.array([0.0, 0.0]))
    assert out.status == "certified"
    assert verify_certificate(validate_problem(p), np.array([0.0, 0.0]),
                              out.certificate, 1e-7).ok


# ---------------------------------------------------------------------------
# cross-cutting properties
# ---------------------------------------------------------------------------

def test_endpoint_equivalence_property(rng):
    disagreements = 0
    for _ in range(60):
        prob, anchor = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob, anchor)
        X = reduce_constraints(vp)
        out = certify_weak_efficiency(vp, x)
        C1 = prob.C_bar + np.outer(prob.u, prob.v)
        both = (weakly_efficient_for_scenario(prob.C_bar, X.rows, x).efficient and
                weakly_efficient_for_scenario(C1, X.rows, x).efficient)
        disagreements += (out.status == "certified") != both
    assert disagreements == 0


def test_scenario_closure_when_certified(rng):
    found = 0
    for _ in range(40):
        prob, anchor = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob, anchor)
        out = certify_weak_efficiency(vp, x)
        if out.status != "certified":
            continue
        found += 1
        X = reduce_constraints(vp)
        U = np.outer(prob.u, prob.v)
        for rho in np.arange(0.0, 1.01, 0.1):
            assert weakly_efficient_for_scenario(prob.C_bar + rho * U, X.rows, x).efficient
        if found >= 8:
            break
    assert found > 0


def test_certificate_closure_and_complementarity(rng):
    for _ in range(40):
        prob, anchor = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob, anchor)
        out = certify_weak_efficiency(vp, x)
        if out.status != "certified":
            continue
        cert = out.certificate
        assert verify_certificate(vp, x, cert, 1e-7).ok
        for recs in (cert.nominal, cert.perturbed):
            for rec in recs:
                assert abs(rec.mu * (rec.scenario_a @ x - rec.scenario_b)) <= 1e-7


def test_positive_scaling_invariance(rng):
    for _ in range(20):
        prob, anchor = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob, anchor)
        base = certify_weak_efficiency(vp, x).status
        scale = float(rng.choice([0.5, 2.0, 3.7]))
        C_scaled = prob.C_bar.copy()
        C_scaled[0] *= scale
        u_scaled = prob.u.copy()
        u_scaled[0] *= scale
        scaled = UncertainMOLP(prob.m, prob.n, C_scaled, u_scaled, prob.v,
                               prob.constraints)
        assert certify_weak_efficiency(validate_problem(scaled), x).status == base
