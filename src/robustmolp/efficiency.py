"""Robust weak-efficiency certification.

A candidate point is robust weakly efficient exactly when suitable
scalarization weights exist for both endpoint objectives of the rank-1
uncertainty segment, with the scalarized gradient lying in the cone
spanned by active constraint data.  Polyhedral uncertainty classes,
s = 1/inf norm balls included once lifted into linear rows, are decided
exactly by LP.  A 2-norm ball or ellipsoid row gets a multiplier only
when it is active at the point (complementarity zeroes the others): an
endpoint with an active one goes through a conic multiplier system solved
to a residual tolerance under a strict feasibility (Slater) condition,
and an endpoint with none is decided by the same exact LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .feasibility import SlackSearch, maximize_min_slack
from .model import (Ball, ConcaveRow, LinearRow, RobustFeasibleSet,
                    ValidatedProblem, endpoint_objectives, reduce_constraints)
from .numerics import (ConeFeasibilitySystem, LinearProgram, VarBlock,
                       norm_value, slack_value, solve_cone_system, solve_lp)

_INF = float("inf")

ACTIVE_TOL = 1e-8
RESIDUAL_TOL = 1e-7     # certificate residuals, verify_certificate's default
SLATER_MARGIN = 1e-6
IMPROVEMENT_TOL = 1e-9  # smallest improvement t that refutes a scenario
ORACLE_GRID = 5         # scenario grid of the oracle behind a refutation


# one string per endpoint, shared by every refutation that names it
_INFEASIBLE_ENDPOINT = {e: f"{e} endpoint multiplier system is infeasible"
                        for e in ("nominal", "perturbed")}


class NotFeasiblePointError(Exception):
    """Candidate point violates the robust feasible set beyond tolerance."""


class SlaterViolatedError(Exception):
    """No strictly feasible point found for a 2-norm ball or ellipsoid set."""

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


def active_geometry(X: RobustFeasibleSet, x_bar) -> ActiveGeometry:
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
        if s < -ACTIVE_TOL:
            raise NotFeasiblePointError(
                f"row {idx} violated by {-s:.3e} at the candidate point")
        if s <= ACTIVE_TOL:
            active.append(idx)
            gens.append(-row.a)
    return ActiveGeometry(x_bar, tuple(active), tuple(gens))


def _check_membership(X: RobustFeasibleSet, x_bar):
    for idx, row in enumerate(X.rows):
        if row.slack(x_bar) < -ACTIVE_TOL:
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


def weakly_efficient_for_scenario(C, X, x_bar) -> ScenarioCheck:
    """Is x_bar weakly efficient for objective C over a polyhedral X?

    Maximizes the smallest componentwise improvement t over X (capped at 1
    so the LP always has an optimum); no point improves every objective
    strictly exactly when the optimal t is <= IMPROVEMENT_TOL.
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
    if t <= IMPROVEMENT_TOL:
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


def check_slater(X: RobustFeasibleSet) -> SlaterCheck:
    """Decide whether some point has worst-case slack >= SLATER_MARGIN.

    An LP for linear and s = 1/inf rows; for s = 2 rows a 1-norm LP proves
    it and an inf-norm LP with tangent cuts disproves it, with max_slack
    the relaxation's bound (see maximize_min_slack).
    """
    search: SlackSearch = maximize_min_slack(X.rows, X.n, target=SLATER_MARGIN)
    if search.value >= SLATER_MARGIN:
        return SlaterCheck(True, search.x, search.value, _INF)
    return SlaterCheck(False, None, search.value, search.upper_bound)


# ---------------------------------------------------------------------------
# Endpoint systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointSolve:
    feasible: bool
    residual: float | None                  # cone path only; an LP is exact
    lam: np.ndarray | None = None
    row_mu: np.ndarray | None = None        # LP path, per active row
    mu_of: dict | None = None               # active linear row -> multiplier
    cones: dict | None = None               # constraint -> (row, its (y, mu) block)


def _solve_polyhedral_endpoint(C, geo: ActiveGeometry, X: RobustFeasibleSet):
    """Exact LP: scalarization weights on the simplex whose image lies in
    the cone of active linear rows (complementarity is structural)."""
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
        return EndpointSolve(False, None)
    lam = np.maximum(sol.x[:m], 0.0)
    lam = lam / lam.sum()
    mu = np.maximum(sol.x[m:], 0.0)
    return EndpointSolve(True, None, lam, mu, dict(zip(geo.active_rows, mu)))


def _endpoint_cone_system(C, vp, X, geo, x_bar):
    """Joint multiplier system for one endpoint objective.

    Variables: lambda on the simplex; per polyhedral constraint, one
    nonnegative multiplier per active row; per 2-norm ball or ellipsoid row
    a_bar + P w active at x_bar, a cone block (y_j, mu_j) with
    ||y_j||_2 <= mu_j replacing the bilinear product of the multiplier and
    its unit witness.  Equalities: C^T lambda equals the multiplier
    combination of realized scenario vectors, and the scalarized value
    matches the multiplier combination of right-hand sides.  Together they
    give sum_j mu_j [(a_bar_j - P_j w_j).x_bar - b_j] = 0 with every term at
    least mu_j times the row's slack, so a row with slack above ACTIVE_TOL
    has mu_j = 0 (scenario a_bar_j) and gets no block, as an inactive
    linear row gets no multiplier.
    Returns the system and (constraint, block, active rows or row) per block.
    """
    p = vp.problem
    C = np.atleast_2d(np.asarray(C, float))
    m, n = C.shape
    blocks = [VarBlock("simplex", m)]
    registry = []
    vec = {0: C.T}         # n x m
    sca = {0: (C @ x_bar).reshape(1, m)}
    for j in range(len(p.constraints)):
        rows_j = [r for r in X.rows if r.source == j]
        bi = len(blocks)
        if all(isinstance(r, LinearRow) for r in rows_j):
            # active-support restriction enforces complementarity structurally
            act = [i for i in geo.active_rows if X.rows[i].source == j]
            if not act:
                continue
            blocks.append(VarBlock("nonneg", len(act)))
            vec[bi] = -np.column_stack([X.rows[i].a for i in act])
            sca[bi] = -np.array([[X.rows[i].b for i in act]])
            registry.append((j, bi, act))
        else:
            row = rows_j[0]      # a cone class reduces to one ConcaveRow
            if row.slack(x_bar) > ACTIVE_TOL:
                continue
            q = row.P.shape[1]
            blocks.append(VarBlock("soc", q + 1))
            vec[bi] = np.column_stack([row.P, -row.a_bar])
            sca[bi] = np.append(np.zeros(q), -row.b)
            registry.append((j, bi, row))
    sys = ConeFeasibilitySystem.build(
        blocks,
        [(vec, np.zeros(n)), (sca, np.zeros(1))])
    return sys, registry


def _solve_cone_endpoint(C, vp, X, geo, x_bar):
    sys, registry = _endpoint_cone_system(C, vp, X, geo, x_bar)
    if not any(blk.kind == "soc" for blk in sys.blocks):
        # no 2-norm row is active at x_bar: the endpoint is polyhedral
        return _solve_polyhedral_endpoint(C, geo, X)
    res = solve_cone_system(sys)
    if not res.feasible:
        return EndpointSolve(False, res.residual)
    parts = sys.split(res.x)
    lam = np.maximum(parts[0], 0.0)       # projected onto the simplex
    lam = lam / lam.sum()
    mu_of, cones = {}, {}
    for j, bi, rows in registry:
        if isinstance(rows, list):          # active linear rows
            mu_of.update(zip(rows, np.maximum(parts[bi], 0.0)))
        else:                               # one ConcaveRow
            cones[j] = (rows, parts[bi])
    return EndpointSolve(True, res.residual, lam, mu_of=mu_of, cones=cones)


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
    active_rows: tuple              # LP path only (rows of the lifted set), else ()
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


def _in_rn(a, n):
    """The first n entries of a: a itself unless the lift padded it, so a
    record keeps no extra view object of an unlifted row."""
    return a if a.size == n else a[:n]


def _witness_record(row, n, mu_j, y, x_bar):
    """Record of an affine norm-ball row a_bar + P w whose multiplier mu_j
    carries y = mu_j w; w is scaled back into the unit s-ball."""
    w = y / mu_j if mu_j > 1e-10 else np.zeros_like(y)
    w = w / max(1.0, norm_value(w, row.s))
    a = _in_rn(row.a_bar - row.P @ w, n)
    slack = slack_value(a, x_bar, row.b)
    return ConstraintMultiplier(mu_j, a, row.b, w, norm_value(w, row.s),
                                mu_j * slack if mu_j else math.copysign(0.0, slack))


def _constraint_records(p, X, sol: EndpointSolve, x_bar, zero):
    """One record per constraint from an endpoint solution over X, the
    lifted set, cut back to R^n.

    A cone block (y, mu) gives the multiplier and the witness w = y/mu; a
    2-norm row without one, inactive at x_bar, gets mu = 0 and w = 0.  A
    ball lifted at row k0 (RobustFeasibleSet.lift) gives them from its
    rows: mu on the main row, and mu w = nu(tau >= P^T x) - nu(tau >= -P^T x)
    on its band rows.  Any other constraint gets the multiplier-weighted
    mean of its active rows, and with no multiplier mass its first row,
    a record that `zero` shares between the endpoints.
    """
    n = p.n
    cones = {r.source: (r, np.zeros(r.P.shape[1] + 1))
             for r in X.rows if isinstance(r, ConcaveRow)}
    cones.update(sol.cones or {})
    balls = {row.source: (k0, row) for k0, row in X.lifted}
    terms = {}
    for i, mu in sol.mu_of.items():
        terms.setdefault(X.rows[i].source, []).append((X.rows[i], mu))
    recs = []
    for j in range(len(p.constraints)):
        if j in cones:
            row, seg = cones[j]
            recs.append(_witness_record(row, n, max(0.0, float(seg[-1])), seg[:-1], x_bar))
            continue
        if j in balls:
            k0, row = balls[j]
            q = row.P.shape[1]
            nu = np.array([sol.mu_of.get(k0 + 1 + i, 0.0) for i in range(2 * q)])
            recs.append(_witness_record(row, n, float(sol.mu_of.get(k0, 0.0)),
                                        nu[q:] - nu[:q], x_bar))
            continue
        act = terms.get(j, ())
        mu_j = float(sum(mu for _, mu in act))
        if mu_j > 1e-15:
            a = sum(mu * _in_rn(r.a, n) for r, mu in act) / mu_j
            b = float(sum(mu * r.b for r, mu in act) / mu_j)
            # the mean of one row is nearly always that row bit for bit;
            # then the record keeps the row's array instead of a new one
            if len(act) == 1 and a.tobytes() == _in_rn(act[0][0].a, n).tobytes():
                a = _retainable(_in_rn(act[0][0].a, n))
            recs.append(ConstraintMultiplier(mu_j, np.asarray(a, float), b, None, 0.0,
                                             mu_j * slack_value(a, x_bar, b)))
            continue
        if j not in zero:
            row = next(r for r in X.rows if r.source == j)
            a = _retainable(_in_rn(row.a if isinstance(row, LinearRow) else row.a_bar, n))
            # mu times the slack: a zero whose sign shows in the canonical
            # JSON, and no NaN where the slack overflows
            zero[j] = ConstraintMultiplier(0.0, a, row.b, None, 0.0,
                                           math.copysign(0.0, slack_value(a, x_bar, row.b)))
        recs.append(zero[j])
    return tuple(recs)


def _certificate_residuals(C0, C1, cert):
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


def _oracle_outcome(p, x_bar, residuals):
    """Refuted when the oracle finds a dominating scenario witness, else
    unknown with the residuals that left the question open."""
    from . import oracle as _oracle
    verdict = _oracle.refute_robust_weak_efficiency(p, x_bar, k=ORACLE_GRID)
    if verdict.outcome == "refuted":
        w = verdict.witness
        return CertifyOutcome("refuted", refutation=RefutationInfo(
            "dominating scenario witness found", None, w.rho, w.x, w.gap),
            residuals=residuals)
    return CertifyOutcome("unknown", residuals=residuals)


def _certified(p, x_bar, C0, C1, cert, extra):
    """The certified outcome, unless a residual that verify_certificate
    replays exceeds RESIDUAL_TOL: then the replay would reject the
    certificate, and the outcome is the oracle's."""
    resid = _certificate_residuals(C0, C1, cert)
    ok = all(v <= RESIDUAL_TOL for v in resid.values())      # False on NaN
    resid.update(extra)
    if not ok:
        return _oracle_outcome(p, x_bar, resid)
    cert = replace(cert, residuals=resid)
    return CertifyOutcome("certified", certificate=cert, residuals=resid)


def certify_weak_efficiency(vp: ValidatedProblem, x_bar) -> CertifyOutcome:
    """Certify or refute robust weak efficiency of a robust-feasible point.

    The feasible set is lifted (RobustFeasibleSet.lift) so that s = 1/inf
    norm balls become linear rows.  An all-linear lifted set is decided
    exactly by LP.  Once a 2-norm ball or an ellipsoid is present a Slater
    point is verified, an endpoint with such a row active at the point is
    a joint conic system and one with none is the exact LP, refutations
    require a dominating scenario witness, and an unresolved residual
    yields "unknown".  A certificate whose endpoint-equality or
    complementarity residual exceeds RESIDUAL_TOL is never issued.
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
    XL, xl = X.lift(x_bar)
    # the objectives do not see the lift's auxiliary columns
    D0, D1 = ((C0, C1) if XL is X else
              (np.hstack([C, np.zeros((p.m, XL.n - p.n))]) for C in (C0, C1)))
    lp = XL.all_linear
    if not lp:
        slater = check_slater(X)
        if not slater.ok:
            raise SlaterViolatedError(slater.max_slack)
    geo = active_geometry(XL, xl)

    def solve(C):
        if lp:
            return _solve_polyhedral_endpoint(C, geo, XL)
        return _solve_cone_endpoint(C, vp, XL, geo, xl)

    e0 = solve(D0)
    e1 = e0 if same else solve(D1)

    def residuals(prefix):
        # an endpoint decided by LP is exact and has no residual entry
        return {prefix + name: e.residual for name, e in (("nominal", e0), ("perturbed", e1))
                if e.residual is not None}

    if e0.feasible and e1.feasible:
        zero = {}
        nominal = _constraint_records(p, XL, e0, x_bar, zero)
        perturbed = nominal if e1 is e0 else _constraint_records(p, XL, e1, x_bar, zero)
        rows = (geo.active_rows, e0.row_mu, e1.row_mu) if lp else ((), None, None)
        cert = EfficiencyCertificate(e0.lam, e1.lam, nominal, perturbed, *rows, {})
        return _certified(p, x_bar, C0, C1, cert, residuals("system_"))
    if not lp:
        return _oracle_outcome(p, x_bar, residuals(""))
    name, D_fail, rho = (("nominal", D0, 0.0) if not e0.feasible
                         else ("perturbed", D1, 1.0))
    chk = weakly_efficient_for_scenario(D_fail, XL, xl)
    info = RefutationInfo(
        _INFEASIBLE_ENDPOINT[name], name,
        rho if not chk.efficient else None,
        None if chk.witness is None else _in_rn(chk.witness, p.n), chk.gap)
    return CertifyOutcome("refuted", refutation=info)
