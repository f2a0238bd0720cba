"""Independent verification: scenario grids, brute-force refutation search,
and certificate replay.

This layer only cross-checks the certifiers, which never call it.  It
claims a confirmation only when the decision was exact (a feasible set
that is all-linear once its s = 1/inf norm balls are lifted, endpoint
scenario LPs); a set with a 2-norm row is searched over a polyhedral
relaxation and caps at inconclusive.  It deliberately skips the u >= 0
validation gate so that instances with sign-violating rank-1 factors can
still be analysed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .efficiency import RESIDUAL_TOL, NotFeasiblePointError, weakly_efficient_for_scenario
from .model import (Ball, Box, Ellipsoid, NormBall, Polytope,
                    RobustFeasibleSet, Singleton, UncertainMOLP,
                    ValidatedProblem, reduce_constraints, validate_dimensions)
from .numerics import min_norm_point, norm_value

_INF = float("inf")
_FLOAT_MAX = sys.float_info.max


def _as_problem(p) -> UncertainMOLP:
    if isinstance(p, ValidatedProblem):
        return p.problem
    return p


def scenario_grid(p, k: int):
    """Objective matrices C_bar + (i/(k-1)) u v^T for i = 0..k-1."""
    p = _as_problem(p)
    if k < 2:
        raise ValueError("grid size k must be >= 2")
    U = np.outer(p.u, p.v)
    return [p.C_bar + (i / (k - 1)) * U for i in range(k)]


@dataclass(frozen=True)
class Witness:
    rho: float
    x: np.ndarray
    gap: np.ndarray       # componentwise C x_bar - C x, all > 0


@dataclass(frozen=True)
class OracleVerdict:
    outcome: str          # "confirmed" | "refuted" | "inconclusive"
    witness: Witness | None
    checks_run: int


def _min_slack(X: RobustFeasibleSet, x):
    """The least slack at x of the exact rows of X, linear and concave."""
    return min([*X.slack(x), *(r.slack(x) for r in X.concave)])


def _pull_witness_inside(X, x_bar, w):
    """Largest t with x_bar + t (w - x_bar) in the exact set.

    The set is convex and contains x_bar, so the feasible t form an
    interval; dominance gaps scale linearly in t and stay strict.
    """
    def feasible(t):
        return _min_slack(X, x_bar + t * (w - x_bar)) >= -1e-12

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _anchored_cross_polytope(row, x_bar):
    """The 2-norm row at s = 1 with P R, R the Householder reflection that
    takes e_1 to +-u for u = row.worst_case(x_bar) (the identity when
    u = 0).  Its set {R w : ||w||_1 <= 1} lies in the unit ball and has u
    as a vertex, so the relaxed row holds on a superset of the row's
    points and has the same slack at x_bar to first order."""
    u = row.worst_case(x_bar)
    R = np.eye(len(u))
    if u.any():
        v = u.copy()
        v[0] += math.copysign(1.0, u[0])
        R -= (2.0 / (v @ v)) * np.outer(v, v)
    return replace(row, s=1, P=row.P @ R)


def refute_robust_weak_efficiency(p, x_bar, k: int = 11) -> OracleVerdict:
    """Scan a scenario grid for a feasible point strictly dominating x_bar.

    The scenario LPs run over the lifted set (RobustFeasibleSet.lift), so
    singleton, polytope, box and s = 1/inf norm-ball classes are exact.
    Each 2-norm row, the joint ball included, is first relaxed to the
    cross-polytope anchored at x_bar (_anchored_cross_polytope), a
    superset of the true set, so every candidate witness is replayed
    against the exact rows, or pulled back toward x_bar until it meets
    them, before a refutation is claimed; with a 2-norm row in play and no
    refutation found the verdict stays inconclusive.  Each scenario
    objective reaches its LP divided by its largest |entry|, which leaves
    weak efficiency as it is and reads the LP's absolute IMPROVEMENT_TOL
    in C's units; a witness's gap is taken from the unscaled C.  A
    ValidatedProblem is taken as validated; a raw problem is checked by
    validate_dimensions.
    """
    if isinstance(p, ValidatedProblem):
        vp, p = p, p.problem
    else:
        validate_dimensions(p)
        vp = ValidatedProblem(p)
    x_bar = np.asarray(x_bar, float)
    X = reduce_constraints(vp)
    if (worst := _min_slack(X, x_bar)) < -1e-8:
        raise NotFeasiblePointError(f"a row is violated by {-worst:.3e}")
    exact = all(r.s != 2 for r in X.concave)
    XL, xl = replace(X, concave=tuple(_anchored_cross_polytope(r, x_bar) if r.s == 2 else r
                                      for r in X.concave)).lift(x_bar)
    tau_cols = np.zeros((p.m, XL.n - p.n))

    checks = 0
    for i, C in enumerate(scenario_grid(p, k)):
        rho = i / (k - 1)
        top = abs(C).max()
        chk = weakly_efficient_for_scenario(np.hstack([C / top if top else C, tau_cols]),
                                            XL.rows, xl)
        checks += 1
        if chk.efficient:
            continue
        w = chk.witness[:p.n]
        gap = C @ x_bar - C @ w
        if exact or _min_slack(X, w) >= -1e-9:
            return OracleVerdict("refuted", Witness(rho, w, gap), checks)
        # the relaxation is a superset of the set, so walk the candidate
        # witness back toward x_bar until it is exactly feasible
        t = _pull_witness_inside(X, x_bar, w)
        if t > 0.0 and np.all(t * gap > 1e-9):
            x_t = x_bar + t * (w - x_bar)
            return OracleVerdict("refuted",
                                 Witness(rho, x_t, C @ x_bar - C @ x_t), checks)
    return OracleVerdict("confirmed" if exact else "inconclusive", None, checks)


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True, slots=True)
class VerificationReport:
    ok: bool
    checks: tuple
    first_failing: str | None


def _simplex_violation(lam):
    lam = np.asarray(lam, float)
    # 0.0 first, for -0.0 (a least entry 0.0) would print as -0 in the JSON
    return max(0.0, float(-lam.min()), abs(float(lam.sum()) - 1.0))


def _check_shape(p, cert):
    """Raise ValueError unless cert has m weights per endpoint and, per
    endpoint, one record per constraint with an n-vector scenario_a: the
    checks below pair records with constraints, and a record past the
    last constraint would enter the sums unchecked."""
    for name, lam in (("lambda", cert.lambda_nominal),
                      ("lambda_tilde", cert.lambda_perturbed)):
        if (shape := np.asarray(lam).shape) != (p.m,):
            raise ValueError(f"{name} has shape {shape}, expected ({p.m},)")
    for name, recs in (("nominal", cert.nominal), ("perturbed", cert.perturbed)):
        if len(recs) != len(p.constraints):
            raise ValueError(f"{len(recs)} {name} records for "
                             f"{len(p.constraints)} constraints")
        if any(np.asarray(r.scenario_a).shape != (p.n,) for r in recs):
            raise ValueError(f"a {name} scenario_a is not a vector of length {p.n}")


def _polytope_distance(vertices, a, b):
    """Distance from (a, b) to the convex hull of the vertices: exactly 0
    for a vertex itself, bit for bit, and otherwise by min_norm_point."""
    target = np.array([*np.asarray(a, float).tolist(), float(b)])
    if any(np.asarray(v, float).tobytes() == target.tobytes() for v in vertices):
        return 0.0
    res = min_norm_point(np.asarray(vertices, float) - target, ())
    return float(np.linalg.norm(res.p_star))


def _scenario_membership_residual(con, a, b):
    a = np.asarray(a, float)
    b = float(b)
    if isinstance(con, Polytope):
        return _polytope_distance(con.vertices, a, b)
    if isinstance(con, Box):
        res = max(float(np.maximum(con.a_lo - a, 0.0).max(initial=0.0)),
                  float(np.maximum(a - con.a_hi, 0.0).max(initial=0.0)))
        return max(res, con.b_lo - b, b - con.b_hi, 0.0)
    if isinstance(con, NormBall):
        binterval = max(con.b_lo - b, b - con.b_hi, 0.0)
        d = a - con.a_bar
        if con.delta == 0.0:
            return max(float(np.abs(d).max()), binterval)
        overshoot = max(0.0, norm_value(con.Z @ d, con.s) - con.delta)
        return max(overshoot, binterval)
    if isinstance(con, Ellipsoid):
        binterval = max(con.b_lo - b, b - con.b_hi, 0.0)
        d = a - con.a0
        if not con.spans:
            return max(float(np.abs(d).max()), binterval)
        A = np.array([s for s in con.spans])        # q x n
        v, *_ = np.linalg.lstsq(A.T, d, rcond=None)
        recon = float(np.linalg.norm(A.T @ v - d))
        overshoot = max(0.0, float(np.linalg.norm(v)) - 1.0)
        return max(recon, overshoot, binterval)
    if isinstance(con, Ball):
        dist = float(np.linalg.norm(np.concatenate([a - con.a_bar,
                                                    [b - con.b_bar]])))
        return max(0.0, dist - con.alpha)
    return _INF


def _witness_norm_residual(con, rec):
    if rec.witness is None or rec.witness.size == 0:
        return 0.0
    if isinstance(con, NormBall):
        return max(0.0, norm_value(rec.witness, con.s) - 1.0)
    if isinstance(con, Box):                # w scales the half widths
        return max(0.0, float(np.abs(rec.witness).max()) - 1.0)
    return max(0.0, float(np.linalg.norm(rec.witness)) - 1.0)


def _exact_norm(rows, w, scale=1.0):
    """The Euclidean norm of scale * (row . w for each row) from exact
    rational sums, in which products of 1e300 entries cancel exactly; the
    largest float when it is beyond the float range or the data hold an
    inf or a NaN."""
    try:
        r = [Fraction(scale) * sum(Fraction(p) * Fraction(q) for p, q in zip(row, w))
             for row in rows]
        top = max(map(abs, r))
        if top == 0:
            return 0.0
        e = top.numerator.bit_length() - top.denominator.bit_length()
        return math.ldexp(math.hypot(*(float(q / Fraction(2) ** e) for q in r)), e)
    except (OverflowError, ValueError):
        return _FLOAT_MAX


def verify_certificate(vp, x_bar, cert, tol: float = RESIDUAL_TOL) -> VerificationReport:
    """Replay every certificate condition at the given tolerance.

    Checks simplex membership of both weight vectors, multiplier signs,
    witness-norm bounds, scenario membership per uncertainty class, the
    two endpoint equalities in realized-scenario form, and complementary
    slackness.  The report lists each check's residual; verification
    passes only if all of them are within tol.  A certificate whose shape
    does not match the problem, or a tol that is negative or NaN, raises
    ValueError.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    p = _as_problem(vp)
    _check_shape(p, cert)
    x_bar = np.asarray(x_bar, float)
    C0 = p.C_bar
    C1 = p.C_bar + p.u[:, None] * p.v
    # the records stacked once, endpoint e = 0 nominal or 1 perturbed first:
    # mu[e, 0, j], b[e, j], and record j's scenario row as column j of A[e]
    k, n = len(p.constraints), p.n
    recs = cert.nominal + cert.perturbed
    mu = np.array([r.mu for r in recs], float).reshape(2, 1, k)
    A = np.array([r.scenario_a for r in recs], float).reshape(2, k, n).transpose(0, 2, 1).copy()
    b = np.array([r.scenario_b for r in recs], float).reshape(2, k)

    checks = []

    def add(name, residual):
        checks.append(CheckResult(name, float(residual), float(residual) <= tol))

    add("lambda_simplex", _simplex_violation(cert.lambda_nominal))
    add("lambda_tilde_simplex", _simplex_violation(cert.lambda_perturbed))
    add("mu_nonneg", max(0.0, -float(mu.min(initial=0.0))))
    add("witness_norm", max((_witness_norm_residual(con, rec)
                             for recs_e in (cert.nominal, cert.perturbed)
                             for con, rec in zip(p.constraints, recs_e)
                             if rec.witness is not None), default=0.0))
    # singletons by one comparison with their data, other classes per record
    single = [j for j, con in enumerate(p.constraints) if isinstance(con, Singleton)]
    sm = 0.0
    if single:
        a_bar = np.array([p.constraints[j].a_bar for j in single], float).T
        b_bar = np.array([p.constraints[j].b_bar for j in single], float)
        with np.errstate(over="ignore"):            # an overflow is an inf residual
            sm = max(float(np.abs(A[:, :, single] - a_bar).max()),
                     float(np.abs(b[:, single] - b_bar).max()))
    for j, con in enumerate(p.constraints):
        if not isinstance(con, Singleton):
            for rec in (cert.nominal[j], cert.perturbed[j]):
                sm = max(sm, _scenario_membership_residual(con, rec.scenario_a,
                                                           rec.scenario_b))
    add("scenario_membership", sm)
    # a float sum that overflows is redone exactly, so its warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        # sum_j mu_j a_j in record order (a cumulative sum is sequential)
        rhs = (mu * A).cumsum(axis=2)[:, :, -1] if k else np.zeros((2, n))
        for e, (name, C, lam) in enumerate((
                ("endpoint_equality_nominal", C0, cert.lambda_nominal),
                ("endpoint_equality_perturbed", C1, cert.lambda_perturbed))):
            lam = np.asarray(lam, float)
            res = float(np.linalg.norm(C.T @ lam - rhs[e]))
            if not math.isfinite(res):      # C^T lam - sum mu_j a_j, exactly
                res = _exact_norm(np.hstack([C.T, A[e]]).tolist(), [*lam, *(-mu[e, 0])])
            add(name, res)
        comp = np.abs(mu[:, 0] * (x_bar @ A - b))
        for e, j in zip(*(~np.isfinite(comp)).nonzero()):
            comp[e, j] = _exact_norm([[*A[e, :, j], b[e, j]]], [*x_bar, -1.0], mu[e, 0, j])
    add("complementarity", comp.max(initial=0.0))

    failing = [c.name for c in checks if not c.passed]
    return VerificationReport(not failing, tuple(checks),
                              failing[0] if failing else None)
