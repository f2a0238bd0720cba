import numpy as np
import pytest

from conftest import random_polyhedral_problem, vertex_candidate
from robustmolp.efficiency import (NotFeasiblePointError, SlaterViolatedError,
                                   UnsupportedClassError, active_geometry,
                                   certify_weak_efficiency, check_slater,
                                   weakly_efficient_for_scenario)
from robustmolp.model import (Ball, Box, Ellipsoid, NormBall, Polytope,
                              Singleton, UncertainMOLP, box_vertices,
                              reduce_constraints, validate_problem)
from robustmolp.oracle import verify_certificate

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
    chk = weakly_efficient_for_scenario(C_mid, X, XBAR)
    assert not chk.efficient
    assert np.all(chk.gap > 1e-9)
    # the quoted witness x = (0, 0, 3) replays exactly
    x = np.array([0.0, 0.0, 3.0])
    assert np.array_equal(C_mid @ x, [-6.0, -6.0])
    assert np.array_equal(C_mid @ XBAR, [-5.5, -5.5])


def test_scenario_check_zero_row_always_efficient(rng):
    X = reduce_constraints(derived_instance())
    C = np.vstack([np.zeros(3), rng.normal(0, 1, 3)])
    assert weakly_efficient_for_scenario(C, X, XBAR).efficient


def test_scenario_check_endpoints_of_derived_instance():
    vp = derived_instance()
    X = reduce_constraints(vp)
    C1 = C2 + np.outer([1.0, 0.0], [0.0, -3.0, 0.0])
    assert weakly_efficient_for_scenario(C2, X, XBAR).efficient
    assert weakly_efficient_for_scenario(C1, X, XBAR).efficient


# ---------------------------------------------------------------------------
# polyhedral certification
# ---------------------------------------------------------------------------

def test_certify_derived_instance_multipliers():
    out = certify_weak_efficiency(derived_instance(), XBAR)
    assert out.status == "certified"
    c = out.certificate
    assert c.lambda_nominal == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
    assert c.lambda_perturbed == pytest.approx([1 / 3, 2 / 3], abs=1e-9)
    assert c.active_rows == (0, 1)
    assert c.row_mu_nominal == pytest.approx([1.0, 0.0], abs=1e-9)
    assert c.row_mu_perturbed == pytest.approx([0.0, 1.0], abs=1e-9)
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


def test_certify_rejects_ball_class():
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Ball([1.0], 0.0, 0.5),))
    with pytest.raises(UnsupportedClassError):
        certify_weak_efficiency(validate_problem(p), np.array([1.0]))


def test_certify_singletons_equals_endpointwise_efficiency(rng):
    # all-singleton constraints: the verdict equals weak efficiency of the
    # point for both endpoint problems separately
    for _ in range(30):
        prob = random_polyhedral_problem(rng)
        if not all(isinstance(c, Singleton) for c in prob.constraints):
            continue
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob)
        X = reduce_constraints(vp)
        out = certify_weak_efficiency(vp, x)
        C1 = prob.C_bar + np.outer(prob.u, prob.v)
        both = (weakly_efficient_for_scenario(prob.C_bar, X, x).efficient and
                weakly_efficient_for_scenario(C1, X, x).efficient)
        assert (out.status == "certified") == both


def test_certify_polytope_wrapper_endpoint_verdicts():
    out = certify_weak_efficiency(derived_instance(), XBAR)
    # both endpoint systems feasible, on the exact per-row (LP) path
    assert out.status == "certified"
    cert = out.certificate
    assert cert.row_mu_nominal is not None and cert.row_mu_perturbed is not None
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
        prob = random_polyhedral_problem(rng, n_max=3)
        sing = [c for c in prob.constraints if isinstance(c, Singleton)]
        boxes = tuple(Box(c.a_bar, c.a_bar, c.b_bar, c.b_bar) for c in sing)
        pb = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, boxes)
        ps = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, tuple(sing))
        x = vertex_candidate(rng, ps)
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
        x = vertex_candidate(rng, pb)
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
    assert chk.ok and chk.min_slack > 0
    # interior witness: slacks at (1, 1, 1) are all >= 1
    x = np.array([1.0, 1.0, 1.0])
    assert min(r.slack(x) for r in X.rows) >= 1.0


def test_slater_violated_when_delta_too_large():
    p = UncertainMOLP(1, 1, [[-1.0]], [0.0], [0.0],
                      (NormBall([1.0], [[1.0]], 2.0, 2, 0.0, 0.0),))
    X = reduce_constraints(validate_problem(p))
    chk = check_slater(X)
    assert not chk.ok
    assert chk.max_slack <= 0.0 + 1e-9
    with pytest.raises(SlaterViolatedError):
        certify_weak_efficiency(validate_problem(p), np.array([0.0]))


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
    # 1-norm ball on the coefficients: slack x1 - 0.5 max(|x1|, |x2|)
    for s in (1, _INF):
        con = NormBall([1.0, 0.0], np.eye(2), 0.5, s, 0.0, 0.0)
        good = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0], (con,))
        out = certify_weak_efficiency(validate_problem(good), np.array([0.0, 0.0]))
        assert out.status == "certified"
        rec = out.certificate.nominal[0]
        assert rec.witness_norm <= 1.0 + 1e-10
        assert verify_certificate(validate_problem(good), np.zeros(2),
                                  out.certificate, 1e-7).ok
        bad = UncertainMOLP(1, 2, [[-1.0, 0.0]], [0.0], [0.0, 0.0], (con,))
        out2 = certify_weak_efficiency(validate_problem(bad), np.array([0.0, 0.0]))
        assert out2.status == "refuted"


def test_zero_delta_norm_matches_singleton_verdicts(rng):
    for _ in range(25):
        prob = random_polyhedral_problem(rng, n_max=3)
        sing = [c for c in prob.constraints if isinstance(c, Singleton)]
        if not sing:
            continue
        norm = tuple(NormBall(c.a_bar, np.eye(prob.n), 0.0, 2, c.b_bar, c.b_bar)
                     for c in sing)
        pn = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, norm)
        ps = UncertainMOLP(prob.m, prob.n, prob.C_bar, prob.u, prob.v, tuple(sing))
        x = vertex_candidate(rng, ps)
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
        prob = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob)
        X = reduce_constraints(vp)
        out = certify_weak_efficiency(vp, x)
        C1 = prob.C_bar + np.outer(prob.u, prob.v)
        both = (weakly_efficient_for_scenario(prob.C_bar, X, x).efficient and
                weakly_efficient_for_scenario(C1, X, x).efficient)
        disagreements += (out.status == "certified") != both
    assert disagreements == 0


def test_scenario_closure_when_certified(rng):
    found = 0
    for _ in range(40):
        prob = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob)
        out = certify_weak_efficiency(vp, x)
        if out.status != "certified":
            continue
        found += 1
        X = reduce_constraints(vp)
        U = np.outer(prob.u, prob.v)
        for rho in np.arange(0.0, 1.01, 0.1):
            assert weakly_efficient_for_scenario(prob.C_bar + rho * U, X, x).efficient
        if found >= 8:
            break
    assert found > 0


def test_certificate_closure_and_complementarity(rng):
    for _ in range(40):
        prob = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob)
        out = certify_weak_efficiency(vp, x)
        if out.status != "certified":
            continue
        cert = out.certificate
        assert verify_certificate(vp, x, cert, 1e-7).ok
        for recs in (cert.nominal, cert.perturbed):
            for rec in recs:
                assert abs(rec.complementarity) <= 1e-7


def test_positive_scaling_invariance(rng):
    for _ in range(20):
        prob = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob)
        base = certify_weak_efficiency(vp, x).status
        scale = float(rng.choice([0.5, 2.0, 3.7]))
        C_scaled = prob.C_bar.copy()
        C_scaled[0] *= scale
        u_scaled = prob.u.copy()
        u_scaled[0] *= scale
        scaled = UncertainMOLP(prob.m, prob.n, C_scaled, u_scaled, prob.v,
                               prob.constraints)
        assert certify_weak_efficiency(validate_problem(scaled), x).status == base
