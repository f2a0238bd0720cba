from pathlib import Path

import numpy as np
import pytest

from conftest import (assert_replaying_witness, random_feasible_rows,
                      random_polyhedral_problem, vertex_candidate)
from robustmolp.efficiency import certify_weak_efficiency
from robustmolp.model import (Ball, Ellipsoid, NormBall, Polytope, Singleton, UncertainMOLP,
                              load_problem, reduce_constraints, validate_problem)
from robustmolp.oracle import (refute_robust_weak_efficiency, scenario_grid,
                               verify_certificate)

V1 = Polytope(((-2, -1, -2, -6), (-1, -2, -2, -6)))
V2 = Polytope(((-1, 0, 0, -3), (0, -1, 0, -3), (0, 0, -1, -3)))
C2 = np.array([[-3.0, -1, -2], [0.0, -1, -2]])
XBAR = np.array([1.0, 1.0, 1.5])
CHAIN_ELLIPSOID = Path(__file__).with_name("chain_ellipsoid_problem.json")
TINY_OBJECTIVE = Path(__file__).with_name("tiny_objective_problem.json")
NARROW_ROW = Path(__file__).with_name("narrow_row_problem.json")


def original_instance():
    """Rank-1 factor with a negative component: rejected by validation but
    analysable in oracle mode."""
    return UncertainMOLP(2, 3, C2, [-1.0, 1.0], [0.0, -3.0, 0.0], (V1, V2))


# ---------------------------------------------------------------------------
# scenario_grid
# ---------------------------------------------------------------------------

def test_grid_endpoints_only():
    p = original_instance()
    g = scenario_grid(p, 2)
    assert len(g) == 2
    assert np.array_equal(g[0], C2)
    assert np.array_equal(g[1], C2 + np.outer([-1.0, 1.0], [0.0, -3.0, 0.0]))


def test_grid_midpoint_matches_displayed_matrix():
    g = scenario_grid(original_instance(), 3)
    assert np.array_equal(g[1], np.array([[-3.0, 0.5, -2.0], [0.0, -2.5, -2.0]]))


def test_grid_constant_when_u_zero():
    p = UncertainMOLP(2, 3, C2, [0.0, 0.0], [0.0, -3.0, 0.0], (V1, V2))
    for C in scenario_grid(p, 5):
        assert np.array_equal(C, C2)
    with pytest.raises(ValueError):
        scenario_grid(p, 1)


# ---------------------------------------------------------------------------
# refutation search
# ---------------------------------------------------------------------------

def test_refutes_sign_violating_instance_at_midpoint():
    v = refute_robust_weak_efficiency(original_instance(), XBAR, k=3)
    assert v.outcome == "refuted"
    w = v.witness
    assert w.rho == pytest.approx(0.5)
    assert np.all(w.gap > 1e-9)
    # replay: the witness really dominates in every component
    C = C2 + 0.5 * np.outer([-1.0, 1.0], [0.0, -3.0, 0.0])
    assert np.all(C @ w.x < C @ XBAR - 1e-9)
    X = reduce_constraints(validate_problem(
        UncertainMOLP(2, 3, C2, [1.0, 0.0], [0.0, -3.0, 0.0], (V1, V2))))
    assert min(X.slack(w.x)) >= -1e-9


def test_confirms_derived_instance():
    p = UncertainMOLP(2, 3, C2, [1.0, 0.0], [0.0, -3.0, 0.0], (V1, V2))
    assert refute_robust_weak_efficiency(p, XBAR, k=5).outcome == "confirmed"


def test_confirms_zero_objective():
    p = UncertainMOLP(1, 1, [[0.0]], [0.0], [0.0], (Singleton([1.0], 0.0),))
    assert refute_robust_weak_efficiency(p, [0.5], k=2).outcome == "confirmed"


def test_inconclusive_with_concave_rows_when_no_witness():
    # strictly interior X boundary far away; certified instance stays
    # inconclusive for the oracle because the 2-norm row was relaxed
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (NormBall([1.0], [[1.0]], 0.5, 2, 0.0, 0.0),))
    v = refute_robust_weak_efficiency(p, [0.0], k=3)
    assert v.outcome == "inconclusive"


def test_relaxed_witness_outside_the_set_is_pulled_back_inside(monkeypatch):
    # x3 = 1 and a disk of radius 0.01 in (x1, x2), an ellipsoid homogenized
    # over (x, t): the scenario LP over its anchored cross-polytope, a
    # square with x_bar in the middle of an edge, finds the witness at a
    # corner outside the disk, which is walked back toward x_bar until it
    # is exactly feasible; the segment is tangent to the disk at x_bar, so
    # only a short piece of it (about 1.4e-5) stays inside
    import robustmolp.oracle as oracle
    e3 = np.array([0.0, 0.0, 1.0])
    p = UncertainMOLP(1, 3, [[0.0, 1.0, 0.0]], [0.0], np.zeros(3), (
        Singleton(e3, 1.0), Singleton(-e3, -1.0),
        Ellipsoid([0.0, 0.0, 0.01], ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), -1.0, 0.0)))
    x_bar = np.array([-0.01, 0.0, 1.0])
    pulled = []
    pull = oracle._pull_witness_inside

    def spy(X, x_bar, w):
        pulled.append(pull(X, x_bar, w))
        return pulled[-1]

    monkeypatch.setattr(oracle, "_pull_witness_inside", spy)
    v = refute_robust_weak_efficiency(p, x_bar, k=3)
    assert v.outcome == "refuted"
    assert len(pulled) == 1 and 0.0 < pulled[0] < 1.0
    assert_replaying_witness(p, x_bar, v.witness.rho, v.witness.x)


def test_no_false_refutations_property(rng):
    refs = 0
    for _ in range(40):
        prob, anchor = random_polyhedral_problem(rng)
        x = vertex_candidate(rng, prob, anchor)
        v = refute_robust_weak_efficiency(prob, x, k=5)
        if v.outcome != "refuted":
            continue
        refs += 1
        w = v.witness
        C = prob.C_bar + w.rho * np.outer(prob.u, prob.v)
        assert np.all(C @ w.x < C @ x - 1e-9)
        X = reduce_constraints(validate_problem(prob))
        assert min(X.slack(w.x)) >= -1e-9
    assert refs > 0


def _two_norm_class(rng, x0):
    """A random 2-norm ball, ellipsoid or joint ball that x0 meets, on its
    boundary or at slack 1."""
    n = x0.size
    a = rng.integers(-3, 4, n).astype(float)
    r = float(rng.uniform(0.1, 1.0))
    gap = float(rng.integers(0, 2))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        b = float(a @ x0 - r * np.linalg.norm(x0)) - gap
        return NormBall(a, np.eye(n), r, 2, b - 1.0, b)
    if kind == 1:
        spans = rng.normal(0, r, (int(rng.integers(1, 3)), n))
        b = float(a @ x0 - np.linalg.norm(spans @ x0)) - gap
        return Ellipsoid(a, tuple(spans), b - 1.0, b)
    return Ball(a, float(a @ x0 - r * np.sqrt(x0 @ x0 + 1.0)) - gap, r)


def test_no_false_refutations_on_two_norm_rows(rng):
    # the scenario LPs see each 2-norm row relaxed to a cross-polytope, a
    # superset of it, so every refutation must replay against the exact
    # rows, and no verdict can be a confirmation
    refs = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        rows, x0 = random_feasible_rows(rng, n=n, p=int(rng.integers(0, 3)))
        m = int(rng.integers(1, 3))
        prob = UncertainMOLP(m, n, rng.integers(-3, 4, (m, n)).astype(float),
                             rng.integers(0, 3, m).astype(float),
                             rng.integers(-3, 4, n).astype(float),
                             (*(Singleton(a, b) for a, b in rows), _two_norm_class(rng, x0)))
        v = refute_robust_weak_efficiency(prob, x0, k=5)
        assert v.outcome != "confirmed"
        if v.outcome == "refuted":
            refs += 1
            assert_replaying_witness(prob, x0, v.witness.rho, v.witness.x)
    assert refs > 0


def test_chain_of_rows_1e5_apart_is_refuted_with_a_replaying_witness():
    # x1 >= 1, x2 >= 1e5 x1, x3 >= 1e5 x2 and the ellipsoid row
    # x1 >= 5e-11 |x3|, all tight at x_bar = (1, 1e5, 2e10) but the third;
    # x3 is minimized, so (1, 1e5, 1e10) dominates.  The scenario LPs must
    # keep x_bar feasible (no NotFeasiblePointError) across rows 1e5 apart.
    # From x_bar the LP lowers x3 by its improvement cap of 1, a point
    # inside the ellipsoid row, so the witness replays without a pull-back
    p = load_problem(CHAIN_ELLIPSOID)
    x_bar = np.array([1.0, 1e5, 2e10])
    v = refute_robust_weak_efficiency(p, x_bar, k=3)
    assert v.outcome == "refuted"
    assert v.witness.x == pytest.approx([1.0, 1e5, 2e10 - 1.0], rel=1e-12)
    assert v.witness.gap == pytest.approx([1.0], rel=1e-6)
    assert_replaying_witness(p, x_bar, v.witness.rho, v.witness.x)


def test_grid_monotonicity(rng):
    for _ in range(25):
        prob, anchor = random_polyhedral_problem(rng)
        x = vertex_candidate(rng, prob, anchor)
        small = refute_robust_weak_efficiency(prob, x, k=3)
        big = refute_robust_weak_efficiency(prob, x, k=7)
        if small.outcome == "refuted":
            assert big.outcome == "refuted"


def test_oracle_certifier_agreement(rng):
    for _ in range(40):
        prob, anchor = random_polyhedral_problem(rng)
        vp = validate_problem(prob)
        x = vertex_candidate(rng, prob, anchor)
        out = certify_weak_efficiency(vp, x)
        v = refute_robust_weak_efficiency(prob, x, k=2)
        assert (out.status == "certified") == (v.outcome == "confirmed")


def test_catalogue_scenario_lp_pivot_count_is_pinned(monkeypatch):
    # 12,275 pivots, 12,135 of them finding a start, while each scenario LP
    # ran a phase 1 over artificial columns; started at (x_bar, t = 0), the
    # 265 LPs of the seed-0 certify-poly and certify-cone catalogues at
    # k = 3 took 1,818 (1,389 and 429), and take 1,939 (1,480 and 459) with
    # each objective divided by its largest |entry|
    import runpy
    import robustmolp
    import robustmolp.efficiency as eff
    bench = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    solve, pivots = eff.solve_lp, []

    def spy(*args):
        sol = solve(*args)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(eff, "solve_lp", spy)
    for workload in ("CertifyPolyWorkload", "CertifyConeWorkload"):
        for inst in runpy.run_path(str(bench))[workload]().make_inputs(robustmolp, None, 0):
            refute_robust_weak_efficiency(inst.problem, inst.x_bar, k=3)
    assert (len(pivots), sum(pivots)) == (265, 1_939)


def test_a_tiny_objective_is_refuted_in_its_own_units():
    # C_bar = -1e-10 I over x1 <= 1, x2 <= 1: (1, 1) improves both
    # objectives by 1e-10, which an absolute 1e-9 improvement test took
    # for none, so the oracle confirmed (0, 0) on an all-linear set
    p = load_problem(TINY_OBJECTIVE)
    out = refute_robust_weak_efficiency(p, [0.0, 0.0], k=3)
    assert out.outcome == "refuted"
    assert out.witness.x.tolist() == [1.0, 1.0]
    assert out.witness.gap.tolist() == [1e-10, 1e-10]


@pytest.mark.xfail(strict=True, reason="the scenario LP's improvement test is absolute in "
                                       "x units: a set 1e-10 wide is read as a single point "
                                       "(ROADMAP known defects)")
def test_a_narrow_row_is_not_confirmed():
    # -1e10 x >= -1 under min -x at x = 0: x = 1e-10 improves the objective,
    # which certify refutes, but the oracle's best t is 1e-10 <= 1e-9
    out = refute_robust_weak_efficiency(load_problem(NARROW_ROW), [0.0], k=3)
    assert out.outcome != "confirmed"


def test_an_unbounded_scenario_lp_is_a_numerical_breakdown(monkeypatch):
    # the LP is capped at t <= 1, so "unbounded" is a pivoting breakdown,
    # which once came back as a witness-less ScenarioCheck(False)
    import robustmolp.efficiency as eff
    from robustmolp.numerics import LpSolution, NumericalBreakdown
    monkeypatch.setattr(eff, "solve_lp", lambda *args: LpSolution("unbounded"))
    with pytest.raises(NumericalBreakdown):
        refute_robust_weak_efficiency(load_problem(TINY_OBJECTIVE), [0.0, 0.0], k=3)


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------

def _derived_certificate():
    vp = validate_problem(
        UncertainMOLP(2, 3, C2, [1.0, 0.0], [0.0, -3.0, 0.0], (V1, V2)))
    out = certify_weak_efficiency(vp, XBAR)
    return vp, out.certificate


def test_verify_certificate_accepts_valid():
    vp, cert = _derived_certificate()
    rep = verify_certificate(vp, XBAR, cert, 1e-7)
    assert rep.ok and rep.first_failing is None


def test_verify_certificate_refuses_a_negative_or_nan_tolerance():
    # a negative tol failed every residual, 0.0 included: a certificate
    # called invalid by a meaningless tolerance
    vp, cert = _derived_certificate()
    for tol in (-1.0, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            verify_certificate(vp, XBAR, cert, tol)
    assert verify_certificate(vp, XBAR, cert, 0.0).checks


def test_verify_certificate_rejects_perturbed_lambda():
    from dataclasses import replace
    vp, cert = _derived_certificate()
    bad = replace(cert, lambda_nominal=np.array([0.7, 0.3]))
    rep = verify_certificate(vp, XBAR, bad, 1e-7)
    assert not rep.ok
    assert rep.first_failing == "endpoint_equality_nominal"
    resid = {c.name: c.residual for c in rep.checks}
    # residual is the gap between C^T(0.7, 0.3) and the multiplier sum
    assert resid["endpoint_equality_nominal"] == pytest.approx(
        np.linalg.norm(np.array([-2.1, -1.0, -2.0]) - np.array([-2.0, -1.0, -2.0])),
        abs=1e-12)


def test_verify_certificate_zero_mu_opposing_rows():
    from robustmolp.efficiency import (ConstraintMultiplier,
                                       EfficiencyCertificate)
    p = UncertainMOLP(2, 1, [[1.0], [-1.0]], [0.0, 0.0], [0.0],
                      (Singleton([1.0], -5.0),))
    vp = validate_problem(p)
    rec = ConstraintMultiplier(0.0, np.array([1.0]), -5.0, None)
    cert = EfficiencyCertificate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), (rec,), (rec,))
    assert verify_certificate(vp, np.array([0.0]), cert, 1e-7).ok


@pytest.mark.parametrize("a, membership", [(1.2, 0.0), (1.6, 0.1)],
                         ids=["inside", "0.1-outside"])
def test_verify_measures_a_scenario_row_against_the_joint_ball(a, membership):
    # (a, 0) at distance a - 1 from the centre (1, 0) of a ball of radius 0.5;
    # mu = 1/a closes the endpoint equality, and complementarity holds at 0
    from robustmolp.efficiency import ConstraintMultiplier, EfficiencyCertificate
    vp = validate_problem(UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Ball([1.0], 0.0, 0.5),)))
    rec = (ConstraintMultiplier(1.0 / a, np.array([a]), 0.0, None),)
    cert = EfficiencyCertificate(np.array([1.0]), np.array([1.0]), rec, rec)
    rep = verify_certificate(vp, np.zeros(1), cert)
    assert rep.first_failing == (None if membership == 0.0 else "scenario_membership")
    assert _membership(rep) == pytest.approx(membership, abs=1e-15)


def test_verify_certificate_rejects_scenario_outside_class():
    from dataclasses import replace
    vp, cert = _derived_certificate()
    bad_rec = replace(cert.nominal[0], scenario_a=np.array([-9.0, 0.0, 0.0]))
    bad = replace(cert, nominal=(bad_rec,) + cert.nominal[1:])
    rep = verify_certificate(vp, XBAR, bad, 1e-7)
    assert not rep.ok
    assert rep.first_failing == "scenario_membership"


# ---------------------------------------------------------------------------
# polytope membership
# ---------------------------------------------------------------------------

def _spy_min_norm(monkeypatch):
    import robustmolp.oracle as oracle
    calls = []
    solve = oracle.min_norm_point

    def spy(points, ray):
        calls.append(len(points))
        return solve(points, ray)

    monkeypatch.setattr(oracle, "min_norm_point", spy)
    return calls


def _with_nominal_scenario(cert, a, b):
    from dataclasses import replace
    rec = replace(cert.nominal[0], scenario_a=np.asarray(a, float), scenario_b=float(b))
    return replace(cert, nominal=(rec,) + cert.nominal[1:])


def _membership(rep):
    return next(c.residual for c in rep.checks if c.name == "scenario_membership")


def test_scenario_row_equal_to_a_vertex_is_a_member_without_nnls(monkeypatch):
    vp, cert = _derived_certificate()
    calls = _spy_min_norm(monkeypatch)
    rep = verify_certificate(vp, XBAR, cert, 1e-7)
    assert rep.ok and _membership(rep) == 0.0 and calls == []
    for v in V1.vertices:
        rep = verify_certificate(vp, XBAR, _with_nominal_scenario(cert, v[:-1], v[-1]))
        assert _membership(rep) == 0.0
    assert calls == []


def test_strict_convex_combination_goes_through_nnls(monkeypatch):
    vp, cert = _derived_certificate()
    calls = _spy_min_norm(monkeypatch)
    mid = 0.25 * V1.vertices[0] + 0.75 * V1.vertices[1]
    rep = verify_certificate(vp, XBAR, _with_nominal_scenario(cert, mid[:-1], mid[-1]))
    assert _membership(rep) <= 1e-12 and calls == [2]


def test_row_just_off_a_vertex_fails_scenario_membership():
    # V1 is a segment: a step of 1e-6 past its first vertex leaves it
    vp, cert = _derived_certificate()
    v0, v1 = V1.vertices
    off = v0 + 1e-6 * (v0 - v1) / np.linalg.norm(v0 - v1)
    rep = verify_certificate(vp, XBAR, _with_nominal_scenario(cert, off[:-1], off[-1]))
    assert rep.first_failing == "scenario_membership"
    assert _membership(rep) == pytest.approx(1e-6, rel=1e-6)


# ---------------------------------------------------------------------------
# stacked replay against the record-by-record replay
# ---------------------------------------------------------------------------

def _verify_record_by_record(p, x_bar, cert, tol=1e-7):
    """verify_certificate as it replayed a certificate one record at a time
    before the records were stacked: the reference for the stacked replay.
    Returns (ok, first_failing, [(name, residual)], the complementarity
    terms' scale)."""
    import math
    from robustmolp import oracle as o
    o._check_shape(p, cert)
    x_bar = np.asarray(x_bar, float)
    C0, C1 = p.C_bar, p.C_bar + np.outer(p.u, p.v)
    checks = [("lambda_simplex", o._simplex_violation(cert.lambda_nominal)),
              ("lambda_tilde_simplex", o._simplex_violation(cert.lambda_perturbed))]
    mu_min = min(min((r.mu for r in cert.nominal), default=0.0),
                 min((r.mu for r in cert.perturbed), default=0.0))
    checks.append(("mu_nonneg", max(0.0, -mu_min)))
    wn = sm = 0.0
    for recs in (cert.nominal, cert.perturbed):
        for con, rec in zip(p.constraints, recs):
            wn = max(wn, o._witness_norm_residual(con, rec))
            if isinstance(con, Singleton):
                res = max(float(np.abs(rec.scenario_a - con.a_bar).max()),
                          abs(rec.scenario_b - con.b_bar))
            else:
                res = o._scenario_membership_residual(con, rec.scenario_a, rec.scenario_b)
            sm = max(sm, res)
    checks += [("witness_norm", wn), ("scenario_membership", sm)]
    comp = scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for name, C, lam, recs in (
                ("endpoint_equality_nominal", C0, cert.lambda_nominal, cert.nominal),
                ("endpoint_equality_perturbed", C1, cert.lambda_perturbed, cert.perturbed)):
            rhs = np.zeros(p.n)
            for rec in recs:
                rhs = rhs + rec.mu * rec.scenario_a
            res = float(np.linalg.norm(C.T @ lam - rhs))
            if not math.isfinite(res):
                A = np.reshape([rec.scenario_a for rec in recs], (-1, p.n))
                res = o._exact_norm(np.vstack([C, A]).T.tolist(),
                                    [*lam, *(-rec.mu for rec in recs)])
            checks.append((name, res))
        for recs in (cert.nominal, cert.perturbed):
            for rec in recs:
                res = abs(rec.mu * (float(rec.scenario_a @ x_bar) - rec.scenario_b))
                if not math.isfinite(res):
                    res = o._exact_norm([[*rec.scenario_a, rec.scenario_b]],
                                        [*x_bar, -1.0], rec.mu)
                comp = max(comp, res)
                scale = max(scale, abs(rec.mu) * (np.abs(rec.scenario_a) @ np.abs(x_bar)
                                                  + abs(rec.scenario_b)))
    checks.append(("complementarity", comp))
    failing = [name for name, res in checks if not res <= tol]
    return not failing, (failing[0] if failing else None), checks, scale


def _tampered(p, cert):
    """The certificate with one mu negated, one singleton scenario row moved
    by 1e-6, one lambda entry moved, and one singleton's scenario_a entry
    set to 1e300 (with mu > 0 its equality residual overflows and is redone
    in exact rationals)."""
    from dataclasses import replace
    nom = list(cert.nominal)

    def with_record(i, **kw):
        recs = list(nom)
        recs[i] = replace(recs[i], **kw)
        return replace(cert, nominal=tuple(recs))

    lam = cert.lambda_perturbed.copy()
    lam[0] += 1e-3
    j = max(range(len(nom)), key=lambda i: nom[i].mu)
    out = [with_record(j, mu=-nom[j].mu), replace(cert, lambda_perturbed=lam)]
    singles = [i for i, c in enumerate(p.constraints) if isinstance(c, Singleton)]
    if singles:
        i = max(singles, key=lambda i: nom[i].mu)       # the most multiplier mass
        huge = nom[i].scenario_a.copy()
        huge[0] = 1e300
        out += [with_record(i, scenario_a=nom[i].scenario_a + 1e-6),
                with_record(i, scenario_a=huge)]
    return out


@pytest.mark.parametrize("workload", ["CertifyPolyWorkload", "CertifyConeWorkload"])
def test_stacked_replay_matches_the_record_by_record_replay(workload):
    # the stacked equality sums the records in their order, as the loop
    # did, so its residual agrees to the last bits; a pairwise sum (np.sum)
    # moves it by more than 1e-14 of itself.  A x_bar rounds each record's
    # dot product on its own path, so complementarity agrees to 1e-14 of
    # the scale of its terms, |mu| (|a|.|x_bar| + |b|)
    import runpy
    from pathlib import Path
    import robustmolp
    bench = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    catalogue = runpy.run_path(str(bench))[workload]().make_inputs(robustmolp, None, 0)
    certified = tampered = 0
    for inst in catalogue:
        p, x = inst.problem, inst.x_bar
        out = certify_weak_efficiency(validate_problem(p), x)
        if out.status != "certified":
            continue
        certified += 1
        variants = _tampered(p, out.certificate)
        tampered += len(variants)
        for cert in [out.certificate] + variants:
            ok, first, ref, scale = _verify_record_by_record(p, x, cert)
            rep = verify_certificate(p, x, cert)
            assert (rep.ok, rep.first_failing) == (ok, first)
            assert [c.name for c in rep.checks] == [name for name, _ in ref]
            for c, (name, res) in zip(rep.checks, ref):
                bound = 1e-14 * (scale if name == "complementarity" else abs(res))
                assert abs(c.residual - res) <= bound, (name, c.residual, res)
    assert certified == {"CertifyPolyWorkload": 43, "CertifyConeWorkload": 25}[workload]
    assert tampered >= 2 * certified
