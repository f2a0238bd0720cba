"""Robust weak-efficiency certification.

A candidate point is robust weakly efficient exactly when suitable
scalarization weights exist for both endpoint objectives of the rank-1
uncertainty segment, with the scalarized gradient lying in the cone
spanned by active constraint data.  Polyhedral uncertainty classes are
decided exactly by LP; norm-ball and ellipsoidal classes go through a
conic multiplier system solved to a residual tolerance under a strict
feasibility (Slater) condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .feasibility import SlackSearch, maximize_min_slack
from .model import (Ball, LinearRow, RobustFeasibleSet, ValidatedProblem,
                    endpoint_objectives, reduce_constraints)
from .numerics import (ConeFeasibilitySystem, LinearProgram, VarBlock,
                       norm_value, solve_cone_system, solve_lp)

_INF = float("inf")

ACTIVE_TOL = 1e-8
RESIDUAL_TOL = 1e-7
SLATER_MARGIN = 1e-6


# one string per endpoint, shared by every refutation that names it
_INFEASIBLE_ENDPOINT = {e: f"{e} endpoint multiplier system is infeasible"
                        for e in ("nominal", "perturbed")}


class NotFeasiblePointError(Exception):
    """Candidate point violates the robust feasible set beyond tolerance."""


class SlaterViolatedError(Exception):
    """No strictly feasible point found for the norm/ellipsoid system."""

    def __init__(self, max_slack):
        self.max_slack = max_slack
        super().__init__(f"strict feasibility not verified (max slack {max_slack:.3e})")


class UnsupportedClassError(Exception):
    """Constraint class outside the certification dispatch."""


# ---------------------------------------------------------------------------
# Active geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActiveGeometry:
    point: np.ndarray
    active_rows: tuple        # indices into X.rows (linear rows only)
    generators: tuple         # normal-cone generators, -a per active row


def active_geometry(X: RobustFeasibleSet, x_bar,
                    tol: float = ACTIVE_TOL) -> ActiveGeometry:
    """Active linear rows at x_bar and the normal-cone generators they span.

    Ties at exactly the tolerance count as active; any violation beyond it
    raises NotFeasiblePointError.
    """
    x_bar = np.asarray(x_bar, float)
    active, gens = [], []
    for idx, row in enumerate(X.rows):
        if not isinstance(row, LinearRow):
            continue
        s = row.slack(x_bar)
        if s < -tol:
            raise NotFeasiblePointError(
                f"row {idx} violated by {-s:.3e} at the candidate point")
        if s <= tol:
            active.append(idx)
            gens.append(-row.a)
    return ActiveGeometry(x_bar, tuple(active), tuple(gens))


def _check_membership(X: RobustFeasibleSet, x_bar, tol: float = ACTIVE_TOL):
    for idx, row in enumerate(X.rows):
        if row.slack(x_bar) < -tol:
            raise NotFeasiblePointError(
                f"row {idx} violated by {-row.slack(x_bar):.3e}")


# ---------------------------------------------------------------------------
# Scenario-wise weak efficiency (LP decision)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioCheck:
    efficient: bool
    witness: np.ndarray | None = None
    gap: np.ndarray | None = None


def weakly_efficient_for_scenario(C, X, x_bar,
                                  tol: float = 1e-9) -> ScenarioCheck:
    """Is x_bar weakly efficient for objective C over a polyhedral X?

    Maximizes the smallest componentwise improvement t over X (capped at 1
    so the LP always has an optimum); no point improves every objective
    strictly exactly when the optimal t is <= tol.
    """
    C = np.atleast_2d(np.asarray(C, float))
    rows = X.rows if isinstance(X, RobustFeasibleSet) else tuple(X)
    if not all(isinstance(r, LinearRow) for r in rows):
        raise UnsupportedClassError("scenario decision needs an all-linear set")
    m, n = C.shape
    x_bar = np.asarray(x_bar, float)
    base = C @ x_bar
    lp_rows = []
    for r in rows:
        lp_rows.append((np.concatenate([r.a, [0.0]]), r.b, ">="))
    for i in range(m):
        lp_rows.append((np.concatenate([-C[i], [-1.0]]), -float(base[i]), ">="))
    cap = np.zeros(n + 1)
    cap[-1] = -1.0
    lp_rows.append((cap, -1.0, ">="))          # t <= 1
    obj = np.zeros(n + 1)
    obj[-1] = -1.0
    sol = solve_lp(LinearProgram.build(obj, lp_rows, np.full(n + 1, -_INF)))
    if sol.status == "infeasible":
        raise NotFeasiblePointError("candidate point is not in the set")
    if sol.status == "unbounded":  # pragma: no cover - cap prevents this
        return ScenarioCheck(False)
    t = float(sol.x[n])
    if t <= tol:
        return ScenarioCheck(True)
    wit = sol.x[:n].copy()
    return ScenarioCheck(False, wit, base - C @ wit)


# ---------------------------------------------------------------------------
# Slater condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlaterCheck:
    ok: bool
    x0: np.ndarray | None
    min_slack: float          # achieved at x0
    max_slack: float          # certified bound when ok is False


def check_slater(constraints, n=None,
                 margin: float = SLATER_MARGIN) -> SlaterCheck:
    """Search for a point with strictly positive worst-case slack everywhere.

    Subgradient ascent plus cutting-plane refinement on the concave
    min-slack; violation is reported when the concavity bound certifies the
    supremum is nonpositive or the budget runs out below the margin.
    """
    if isinstance(constraints, RobustFeasibleSet):
        rows, n = constraints.rows, constraints.n
    else:
        rows = tuple(constraints)
        if n is None:
            n = rows[0].a.size if isinstance(rows[0], LinearRow) else rows[0].a_bar.size
    search: SlackSearch = maximize_min_slack(rows, n, target=margin)
    if search.value >= margin:
        return SlaterCheck(True, search.x, search.value, _INF)
    ub = search.upper_bound if search.bound_valid else search.value
    return SlaterCheck(False, None, search.value, ub)


# ---------------------------------------------------------------------------
# Endpoint systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointSolve:
    feasible: bool
    exact: bool
    residual: float
    lam: np.ndarray | None = None
    row_mu: np.ndarray | None = None        # polyhedral path, per active row
    cone_x: np.ndarray | None = None        # conic path assignment
    registry: tuple | None = None           # conic block layout


def _solve_polyhedral_endpoint(C, geo: ActiveGeometry, X: RobustFeasibleSet):
    """Exact LP: scalarization weights on the simplex whose image lies in
    the cone of active rows (complementarity is structural)."""
    C = np.atleast_2d(np.asarray(C, float))
    m, n = C.shape
    k = len(geo.active_rows)
    act = [X.rows[i].a for i in geo.active_rows]
    d = m + k
    lp_rows = []
    for c in range(n):
        g = np.concatenate([C[:, c], [-a[c] for a in act]])
        lp_rows.append((g, 0.0, "=="))
    g = np.concatenate([np.ones(m), np.zeros(k)])
    lp_rows.append((g, 1.0, "=="))
    sol = solve_lp(LinearProgram.build(np.zeros(d), lp_rows, np.zeros(d)))
    if not sol.optimal:
        return EndpointSolve(False, True, _INF)
    lam = np.maximum(sol.x[:m], 0.0)
    lam = lam / lam.sum()
    mu = np.maximum(sol.x[m:], 0.0)
    A = np.array(act).T if k else np.zeros((n, 0))
    resid = float(np.linalg.norm(C.T @ lam - (A @ mu if k else 0.0)))
    return EndpointSolve(True, True, resid, lam, row_mu=mu)


def _endpoint_cone_system(C, vp, X, geo, x_bar):
    """Joint multiplier system for one endpoint objective.

    Variables: lambda on the simplex; per polyhedral constraint, one
    nonnegative multiplier per active row; per affine-norm-ball row
    a_bar + P w, a cone block (y_j, mu_j) with ||y_j||_s <= mu_j replacing
    the bilinear product of the multiplier and its unit witness.
    Equalities: C^T lambda equals the multiplier combination of realized
    scenario vectors, and the scalarized value matches the multiplier
    combination of right-hand sides (which encodes complementarity).
    """
    p = vp.problem
    C = np.atleast_2d(np.asarray(C, float))
    m, n = C.shape
    blocks = [VarBlock("simplex", m)]
    registry = []          # (constraint index, tag, payload)
    vec = {0: C.T}         # n x m
    sca = {0: (C @ x_bar).reshape(1, m)}
    for j in range(len(p.constraints)):
        rows_j = [r for r in X.rows if r.source == j]
        if all(isinstance(r, LinearRow) for r in rows_j):
            # active-support restriction enforces complementarity structurally
            act = [i for i in geo.active_rows if X.rows[i].source == j]
            if not act:
                continue
            bi = len(blocks)
            blocks.append(VarBlock("nonneg", len(act)))
            vec[bi] = -np.column_stack([X.rows[i].a for i in act])
            sca[bi] = -np.array([[X.rows[i].b for i in act]])
            registry.append((j, "poly", (bi, tuple(act))))
        else:
            row = rows_j[0]      # a cone class reduces to one ConcaveRow
            q = row.P.shape[1]
            bi = len(blocks)
            blocks.append(VarBlock("soc", q + 1, row.s))
            vec[bi] = np.column_stack([row.P, -row.a_bar])
            Ms = np.zeros((1, q + 1))
            Ms[0, q] = -row.b
            sca[bi] = Ms
            registry.append((j, "cone", (bi, row)))
    sys = ConeFeasibilitySystem.build(
        blocks,
        [(vec, np.zeros(n)), (sca, np.zeros(1))])
    return sys, tuple(registry)


def _solve_cone_endpoint(C, vp, X, geo, x_bar, tol):
    sys, registry = _endpoint_cone_system(C, vp, X, geo, x_bar)
    res = solve_cone_system(sys, tol=tol)
    lam = None
    if res.feasible:
        parts = sys.split(res.x)
        lam = np.maximum(parts[0], 0.0)
        lam = lam / lam.sum() if lam.sum() > 0 else np.full(len(parts[0]), 1.0 / len(parts[0]))
    return EndpointSolve(res.feasible, res.exact, res.residual, lam,
                         cone_x=res.x, registry=registry), sys


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ConstraintMultiplier:
    mu: float
    scenario_a: np.ndarray
    scenario_b: float
    witness: np.ndarray | None      # unit-ball witness for cone classes
    witness_norm: float
    complementarity: float          # mu * (scenario_a . x_bar - scenario_b)


@dataclass(frozen=True, slots=True)
class EfficiencyCertificate:
    lambda_nominal: np.ndarray
    lambda_perturbed: np.ndarray
    nominal: tuple                  # ConstraintMultiplier per constraint
    perturbed: tuple
    active_rows: tuple              # polyhedral path only, else ()
    row_mu_nominal: np.ndarray | None
    row_mu_perturbed: np.ndarray | None
    residuals: dict


def _retainable(a):
    """A reduced row's coefficients, fit to keep in a certificate.

    The constraint's own array, or a slice of one of its polytope
    vertices, is shared.  A row of a matrix is copied: a box vertex row
    would keep the whole 2^n x n vertex matrix alive for as long as the
    certificate lives.
    """
    return a if a.base is None or a.base.ndim == 1 else a.copy()


def _nominal_scenario(X, j):
    """The first reduced row of constraint j as an (a, b) scenario."""
    row = next(r for r in X.rows if r.source == j)
    return _retainable(row.a if isinstance(row, LinearRow) else row.a_bar), row.b


def _poly_constraint_records(p, X, geo, row_mu, x_bar, zero):
    """One record per constraint; a constraint with no multiplier mass
    gets its record from `zero`, which both endpoints share."""
    recs = []
    for j in range(len(p.constraints)):
        idxs = [t for t, i in enumerate(geo.active_rows)
                if X.rows[i].source == j]
        mu_j = float(sum(row_mu[t] for t in idxs))
        if mu_j > 1e-15 and idxs:
            a = sum(row_mu[t] * X.rows[geo.active_rows[t]].a for t in idxs) / mu_j
            b = float(sum(row_mu[t] * X.rows[geo.active_rows[t]].b for t in idxs) / mu_j)
            row_a = X.rows[geo.active_rows[idxs[0]]].a
            # the mean of one row is nearly always that row bit for bit;
            # then the record keeps the row's array instead of a new one
            if len(idxs) == 1 and a.tobytes() == row_a.tobytes():
                a = _retainable(row_a)
            recs.append(ConstraintMultiplier(mu_j, np.asarray(a, float), b,
                                             None, 0.0, mu_j * (float(a @ x_bar) - b)))
        else:
            if j not in zero:
                a, b = _nominal_scenario(X, j)
                # mu times the slack, a zero whose sign shows in the
                # canonical JSON, taken from the two shared constants
                neg = math.copysign(1.0, float(a @ x_bar) - b) < 0
                zero[j] = ConstraintMultiplier(0.0, a, float(b), None, 0.0,
                                               -0.0 if neg else 0.0)
            recs.append(zero[j])
    return tuple(recs)


def _cone_constraint_records(p, X, geo, sol: EndpointSolve, sys, x_bar):
    parts = sys.split(sol.cone_x)
    recs = {j: None for j in range(len(p.constraints))}
    for j, tag, payload in sol.registry:
        if tag == "poly":
            bi, act = payload
            mu_vals = np.maximum(parts[bi], 0.0)
            mu_j = float(mu_vals.sum())
            if mu_j > 1e-15:
                a = sum(mu_vals[t] * X.rows[i].a for t, i in enumerate(act)) / mu_j
                b = sum(mu_vals[t] * X.rows[i].b for t, i in enumerate(act)) / mu_j
            else:
                a, b = _nominal_scenario(X, j)
            recs[j] = ConstraintMultiplier(mu_j, np.asarray(a, float), float(b),
                                           None, 0.0,
                                           mu_j * (float(np.asarray(a) @ x_bar) - float(b)))
        else:
            bi, row = payload
            seg = parts[bi]
            y, mu_j = seg[:-1], max(0.0, float(seg[-1]))
            w = y / mu_j if mu_j > 1e-10 else np.zeros_like(y)
            wn = norm_value(w, row.s)
            if wn > 1.0:
                w = w / wn
            a = row.a_bar - row.P @ w
            recs[j] = ConstraintMultiplier(mu_j, a, row.b, w, norm_value(w, row.s),
                                           mu_j * (float(a @ x_bar) - row.b))
    for j in recs:
        if recs[j] is None:
            a, b = _nominal_scenario(X, j)
            recs[j] = ConstraintMultiplier(0.0, a, b, None, 0.0, 0.0)
    return tuple(recs[j] for j in range(len(p.constraints)))


def _certificate_residuals(C0, C1, cert, x_bar):
    out = {}
    for eq_key, comp_key, C, lam, recs in (
            ("endpoint_equality_nominal", "complementarity_nominal",
             C0, cert.lambda_nominal, cert.nominal),
            ("endpoint_equality_perturbed", "complementarity_perturbed",
             C1, cert.lambda_perturbed, cert.perturbed)):
        lhs = C.T @ lam
        rhs = sum(r.mu * r.scenario_a for r in recs)
        out[eq_key] = float(np.linalg.norm(lhs - rhs))
        out[comp_key] = float(max((abs(r.complementarity) for r in recs),
                                  default=0.0))
    return out


# ---------------------------------------------------------------------------
# Top-level certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RefutationInfo:
    reason: str
    endpoint: str | None = None
    rho: float | None = None
    x: np.ndarray | None = None
    gap: np.ndarray | None = None


@dataclass(frozen=True, slots=True)
class CertifyOutcome:
    status: str                       # "certified" | "refuted" | "unknown"
    certificate: EfficiencyCertificate | None = None
    refutation: RefutationInfo | None = None
    residuals: dict | None = None


def certify_weak_efficiency(vp: ValidatedProblem, x_bar,
                            residual_tol: float = RESIDUAL_TOL,
                            oracle_grid: int = 5) -> CertifyOutcome:
    """Certify or refute robust weak efficiency of a robust-feasible point.

    All-polyhedral uncertainty is decided exactly; once a norm-ball or
    ellipsoid class is present the joint conic system is solved under a
    verified Slater condition, refutations require a dominating scenario
    witness, and an unresolved residual yields "unknown".
    """
    p = vp.problem
    x_bar = np.asarray(x_bar, float)
    if x_bar.size != p.n:
        raise ValueError(f"point has dimension {x_bar.size}, expected {p.n}")
    if any(isinstance(c, Ball) for c in p.constraints):
        raise UnsupportedClassError(
            "joint-ball classes are radius-analysis only; not certifiable")
    X = reduce_constraints(vp)
    _check_membership(X, x_bar)
    C0, C1 = endpoint_objectives(vp)
    # u = 0 or v = 0 makes the endpoints coincide; compare bits, since a
    # -0.0 against a 0.0 can flip the sign of a zero in the certificate
    same = C0.tobytes() == C1.tobytes()

    if X.all_linear:
        geo = active_geometry(X, x_bar)
        e0 = _solve_polyhedral_endpoint(C0, geo, X)
        e1 = e0 if same else _solve_polyhedral_endpoint(C1, geo, X)
        if e0.feasible and e1.feasible:
            zero = {}
            nominal = _poly_constraint_records(p, X, geo, e0.row_mu, x_bar, zero)
            perturbed = (nominal if e1 is e0 else
                         _poly_constraint_records(p, X, geo, e1.row_mu, x_bar, zero))
            cert = EfficiencyCertificate(e0.lam, e1.lam, nominal, perturbed,
                                         geo.active_rows, e0.row_mu, e1.row_mu, {})
            resid = _certificate_residuals(C0, C1, cert, x_bar)
            cert = replace(cert, residuals=resid)
            return CertifyOutcome("certified", certificate=cert, residuals=resid)
        name, C_fail, rho = (("nominal", C0, 0.0) if not e0.feasible
                             else ("perturbed", C1, 1.0))
        chk = weakly_efficient_for_scenario(C_fail, X, x_bar)
        info = RefutationInfo(
            _INFEASIBLE_ENDPOINT[name], name,
            rho if not chk.efficient else None, chk.witness, chk.gap)
        return CertifyOutcome("refuted", refutation=info)

    slater = check_slater(X)
    if not slater.ok:
        raise SlaterViolatedError(slater.max_slack)
    geo = active_geometry(X, x_bar)
    e0, sys0 = _solve_cone_endpoint(C0, vp, X, geo, x_bar, residual_tol)
    e1, sys1 = ((e0, sys0) if same else
                _solve_cone_endpoint(C1, vp, X, geo, x_bar, residual_tol))
    residuals = {"nominal": e0.residual, "perturbed": e1.residual}

    if e0.feasible and e1.feasible:
        cert = EfficiencyCertificate(
            e0.lam, e1.lam,
            _cone_constraint_records(p, X, geo, e0, sys0, x_bar),
            _cone_constraint_records(p, X, geo, e1, sys1, x_bar),
            (), None, None, {})
        resid = _certificate_residuals(C0, C1, cert, x_bar)
        resid.update({f"system_{k}": v for k, v in residuals.items()})
        cert = replace(cert, residuals=resid)
        return CertifyOutcome("certified", certificate=cert, residuals=resid)

    exact = (e0.exact or e0.feasible) and (e1.exact or e1.feasible)
    from . import oracle as _oracle
    verdict = _oracle.refute_robust_weak_efficiency(p, x_bar, k=oracle_grid)
    if verdict.outcome == "refuted":
        w = verdict.witness
        return CertifyOutcome("refuted", refutation=RefutationInfo(
            "dominating scenario witness found", None, w.rho, w.x, w.gap),
            residuals=residuals)
    if exact:
        name = "nominal" if not e0.feasible else "perturbed"
        return CertifyOutcome("refuted", refutation=RefutationInfo(
            f"{name} endpoint multiplier system is infeasible (exact)", name),
            residuals=residuals)
    return CertifyOutcome("unknown", residuals=residuals)
