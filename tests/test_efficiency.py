import numpy as np
import pytest

from conftest import box_vertices, random_polyhedral_problem, vertex_candidate
from robustmolp import feasibility
from robustmolp.efficiency import (NotFeasiblePointError, SlaterViolatedError,
                                   UnsupportedClassError, active_geometry,
                                   certify_weak_efficiency, check_slater,
                                   weakly_efficient_for_scenario)
from robustmolp.model import (Ball, Box, Ellipsoid, LinearRow, NormBall,
                              Polytope, Singleton, UncertainMOLP,
                              reduce_constraints, validate_problem)
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
        # a vertex of the same set, taken from its vertex rows
        x = vertex_candidate(rng, pp)
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


def _slater_lps(monkeypatch, delta, s):
    """Slater check of the row (1, 1).x - delta ||x||_{s*} >= 0 with the LPs
    it solves, where s* is the norm conjugate to s."""
    calls = []
    solve = feasibility.solve_lp

    def counted(lp, *args, **kwargs):
        calls.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(feasibility, "solve_lp", counted)
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                      (NormBall([1.0, 1.0], np.eye(2), delta, s, 0.0, 0.0),))
    return check_slater(reduce_constraints(validate_problem(p))), len(calls)


@pytest.mark.parametrize("s, threshold", [(1, 2.0), (_INF, 1.0)])
def test_slater_of_norm_one_and_inf_rows_is_one_lp(monkeypatch, s, threshold):
    # the supremum of the min-slack is 0 from delta = threshold on, else +inf
    for delta, sup in ((0.9 * threshold, 1.0), (1.1 * threshold, 0.0)):
        p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                          (NormBall([1.0, 1.0], np.eye(2), delta, s, 0.0, 0.0),))
        X = reduce_constraints(validate_problem(p))
        search = feasibility.maximize_min_slack(X.rows, X.n, target=1e-6)
        assert search.value == pytest.approx(sup, abs=1e-12)
        assert search.upper_bound == pytest.approx(sup, abs=1e-12)
        # the refined Slater condition asks a polyhedral row only to be
        # satisfied, so even the set {0} passes, in one LP
        chk, lps = _slater_lps(monkeypatch, delta, s)
        assert chk.ok and lps == 1


def test_slater_of_two_norm_row_decided_by_tangent_cuts(monkeypatch):
    # with the 1-norm in place of the 2-norm, (1, 1).x - 1.2 ||x||_1 <= 0,
    # so the inner LP fails; 1.2 < sqrt(2) makes the true supremum +inf,
    # and the first inf-norm LP's point shows it
    chk, lps = _slater_lps(monkeypatch, 1.2, 2)
    assert chk.ok and chk.min_slack > 0.3 and lps == 2
    x = chk.x0
    assert x.sum() - 1.2 * np.linalg.norm(x) == pytest.approx(chk.min_slack)


def test_slater_of_two_norm_row_violated_reports_nonpositive_bound(monkeypatch):
    # 1.5 > sqrt(2): the supremum is 0 at x = 0; the inf-norm relaxation is
    # reaches its cap of 1 until a tangent cut at its point closes it
    chk, lps = _slater_lps(monkeypatch, 1.5, 2)
    assert not chk.ok and chk.max_slack <= 0.0 and lps == 3


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
        assert rec.witness_norm <= 1.0 + 1e-10
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
    assert feasibility.maximize_min_slack(X.rows, X.n).value == 0.0
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
            (NormBall(a, np.eye(n), 0.5, s, 0.0, 0.0),)))).rows[0]
        b = float(row.slack(x))
        cons.append(NormBall(a, np.eye(n), 0.5, s, b - 1.0, b))
        grads.append(row.supergradient(x))
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
        cones = [r for r in XL.concave() if r.slack(xl) <= eff.ACTIVE_TOL]
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
    assert [round(r.slack(x), 9) for r in X.rows] == [0.0, 2.0]
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok
    # the inactive ball's record: no multiplier, witness w = 0, scenario a_bar
    for recs in (out.certificate.nominal, out.certificate.perturbed):
        rec = recs[1]
        assert rec.mu == 0.0 and rec.witness_norm == 0.0
        assert not rec.witness.any()
        assert np.array_equal(rec.scenario_a, X.rows[1].a_bar)


def _with_inactive_balls(p, x, count=1):
    """p with `count` more 2-norm balls, each with slack 2 at x."""
    cons = []
    for k in range(count):
        a = np.zeros(p.n)
        a[k % p.n] = 1.0 + k
        Z = np.eye(p.n) * (1.0 + k)
        row = reduce_constraints(validate_problem(UncertainMOLP(
            1, p.n, np.zeros((1, p.n)), [0.0], np.zeros(p.n),
            (NormBall(a, Z, 0.5, 2, 0.0, 0.0),)))).rows[0]
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
        prob = random_polyhedral_problem(rng, n_max=3)
        x = vertex_candidate(rng, prob)
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


def _worst_slack(c, x):
    """Worst-case slack of a norm-ball class over its own data: a_bar.x -
    b_hi - delta ||Z^-1 x|| in the norm conjugate to s (Z is symmetric)."""
    conjugate = {1: _INF, 2: 2, _INF: 1}[c.s]
    return float(c.a_bar @ x - c.b_hi
                 - c.delta * np.linalg.norm(np.linalg.solve(c.Z, x), conjugate))


def _assert_replaying_refutation(p, x, out):
    assert out.status == "refuted"
    r = out.refutation
    assert r.rho == {"nominal": 0.0, "perturbed": 1.0}[r.endpoint]
    assert min(_worst_slack(c, r.x) for c in p.constraints) >= -1e-9
    C = p.C_bar + r.rho * np.outer(p.u, p.v)
    assert np.all(C @ x - C @ r.x > 0.0)


def test_certify_never_consults_the_oracle(monkeypatch, rng):
    import robustmolp.oracle as oracle

    def forbidden(*args, **kwargs):
        raise AssertionError("certify must refute without the oracle")

    monkeypatch.setattr(oracle, "refute_robust_weak_efficiency", forbidden)
    for kinds in ((2,), (_INF, 2), (1, 2)):
        p, x = _mixed_ball_problem(rng, kinds)
        for q in (p, _with_inactive_balls(p, x)):
            neg = UncertainMOLP(q.m, q.n, -q.C_bar, q.u, -q.v, q.constraints)
            _assert_replaying_refutation(neg, x, certify_weak_efficiency(validate_problem(neg), x))


def test_tangent_lp_point_outside_the_ball_is_tilted_toward_the_slater_point():
    # the unit disc, tight at (1, 0), under the objective x2: the LP over
    # its tangent halfspace x1 <= 1 returns (1, -1), a tangent direction
    # that leaves the disc at once; along it only a round-off step of about
    # 1e-8 replays.  Tilted toward the Slater point, the direction enters
    # the disc and the witness lies well inside it.
    disc = NormBall([0.0, 0.0], np.eye(2), 1.0, 2, -2.0, -1.0)
    x = np.array([1.0, 0.0])
    p = UncertainMOLP(1, 2, [[0.0, 1.0]], [0.0], [0.0, 0.0], (disc,))
    chk = weakly_efficient_for_scenario(p.C_bar, [LinearRow([-1.0, 0.0], -1.0, 0)], x)
    assert not chk.efficient and _worst_slack(disc, chk.witness) < -0.1
    out = certify_weak_efficiency(validate_problem(p), x)
    _assert_replaying_refutation(p, x, out)
    assert _worst_slack(disc, out.refutation.x) > 1e-3
    assert out.refutation.gap[0] > 1e-3


def test_unknown_names_the_endpoint_residual_and_stop_reason(monkeypatch):
    import robustmolp.efficiency as eff
    from robustmolp.numerics import ConeResult
    # a certified point: a failing endpoint leaves no direction to refute with
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    vp, x = validate_problem(p), np.array([0.0])
    with monkeypatch.context() as m:
        m.setattr(eff, "RESIDUAL_TOL", -1.0)
        out = certify_weak_efficiency(vp, x)
    assert out.status == "unknown" and out.certificate is None
    assert out.reason.startswith("certificate residual above RESIDUAL_TOL (")
    # every cone solve ends infeasible at the iteration budget
    monkeypatch.setattr(eff, "solve_cone_system", lambda A, b, blocks: ConeResult(
        False, False, 0.25, np.zeros(A.shape[1]), 7, "budget"))
    out = certify_weak_efficiency(vp, x)
    assert out.status == "unknown" and out.refutation is None
    assert out.reason == ("nominal endpoint infeasible (residual 2.500e-01, stop budget) "
                          "but no strictly dominating witness replays")
    assert out.residuals == {"nominal": 0.25, "perturbed": 0.25}


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


def test_no_active_two_norm_row_needs_no_slater_point():
    # the row's slack at 0 is 5e-7: above ACTIVE_TOL, so both endpoints are
    # exact LPs, and below SLATER_MARGIN, so a Slater check would fail
    ball = NormBall([0.0], [[1.0]], 0.5, 2, -1.0, -5e-7)    # |x| <= 1e-6
    x = np.array([0.0])
    vp = validate_problem(UncertainMOLP(2, 1, [[1.0], [-1.0]], [0.0, 0.0], [0.0], (ball,)))
    assert not check_slater(reduce_constraints(vp)).ok
    out = certify_weak_efficiency(vp, x)
    assert out.status == "certified"
    assert verify_certificate(vp, x, out.certificate).ok
    vp = validate_problem(UncertainMOLP(2, 1, [[1.0], [1.0]], [0.0, 0.0], [0.0], (ball,)))
    out = certify_weak_efficiency(vp, x)
    assert out.status == "refuted"
    assert out.refutation.x == pytest.approx([-1e-6], rel=1e-9)


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
