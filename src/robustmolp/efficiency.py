"""Robust weak-efficiency certification.

A candidate point is robust weakly efficient exactly when suitable
scalarization weights exist for both endpoint objectives of the rank-1
uncertainty segment, with the scalarized gradient lying in the cone
spanned by active constraint data.  Polyhedral uncertainty classes,
boxes and s = 1/inf norm balls included once lifted into linear rows, are
decided exactly by LP.  A 2-norm ball or ellipsoid row gets a multiplier
only when it is active at the point (complementarity zeroes the others):
with an active one both endpoints are conic multiplier systems solved to
a residual tolerance under a refined Slater condition (strict slack on
the 2-norm rows only), and with none they are the same exact LP.  A
failing endpoint is refuted by one rule for every class: Farkas' lemma
turns the infeasible endpoint LP (with a tangent column for each active
2-norm row) into a direction that strictly improves its objectives, and
a step along it is replayed as the witness; no second LP is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .feasibility import SlackSearch, maximize_min_slack
from .model import (Ball, ConcaveRow, LinearRow, RobustFeasibleSet,
                    ValidatedProblem, endpoint_objectives, reduce_constraints)
from .numerics import norm_value, slack_value, solve_cone_system, solve_lp

_INF = float("inf")

ACTIVE_TOL = 1e-8
RESIDUAL_TOL = 1e-7     # certificate residuals, verify_certificate's default
SLATER_MARGIN = 1e-6
IMPROVEMENT_TOL = 1e-9  # smallest improvement t that refutes a scenario


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
    generators: tuple         # normal-cone generators, -(sum of a) per group
    groups: tuple             # active rows that share one multiplier


def active_geometry(X: RobustFeasibleSet, x_bar) -> ActiveGeometry:
    """Active linear rows at x_bar and the normal-cone generators they span.

    Ties at exactly the tolerance count as active; any violation beyond it
    raises NotFeasiblePointError.  Each active row is its own group, except
    in a lifted ball (RobustFeasibleSet.lift).  There a tau column has a
    zero objective, so its equality reads mu(main row) = the sum of the
    multipliers of its active band rows: a band row alone on its column
    joins the main row's group (together they are the worst scenario row
    a_bar - P w), and the band rows of a ball whose main row is inactive
    have zero multipliers and join no group.
    """
    x_bar = np.asarray(x_bar, float)
    groups = {}
    for idx, row in enumerate(X.rows):
        if not isinstance(row, LinearRow):
            continue
        s = row.slack(x_bar)
        if s < -ACTIVE_TOL:
            raise NotFeasiblePointError(
                f"row {idx} violated by {-s:.3e} at the candidate point")
        if s <= ACTIVE_TOL:
            groups[idx] = [idx]
    active = tuple(groups)
    for k0, row in X.lifted:
        q = row.P.shape[1]
        # s = inf: band rows i and q + i bound tau_i; s = 1: all bound one tau
        columns = [(i, q + i) for i in range(q)] if row.s == _INF else [range(2 * q)]
        for col in columns:
            on = [k0 + 1 + j for j in col if k0 + 1 + j in groups]
            if k0 not in groups or len(on) == 1:
                for i in on:
                    del groups[i]
                    if k0 in groups:
                        groups[k0].append(i)
    gens = tuple(-X.rows[g[0]].a if len(g) == 1 else -sum(X.rows[i].a for i in g)
                 for g in groups.values())
    return ActiveGeometry(x_bar, active, gens, tuple(map(tuple, groups.values())))


def _check_membership(X: RobustFeasibleSet, x_bar):
    """Raise NotFeasiblePointError on a worst-case row violated at x_bar;
    the linear rows are left to active_geometry, which meets every one
    of them again in the lifted set."""
    for idx, row in enumerate(X.rows):
        if not isinstance(row, LinearRow):
            s = row.slack(x_bar)
            if s < -ACTIVE_TOL:
                raise NotFeasiblePointError(f"row {idx} violated by {-s:.3e}")


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
    k = len(rows)
    # rows over (x, t): a.x >= b, C_i x + t <= C_i x_bar, and t <= 1
    G = np.zeros((k + m + 1, n + 1))
    G[:k, :n] = np.reshape([r.a for r in rows], (k, n))
    G[k:k + m, :n] = -C
    G[k:, n] = -1.0
    h = np.concatenate([[r.b for r in rows], -base, [-1.0]])
    sol = solve_lp(G[-1], G, h, -_INF)         # min -t
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
    """Decide the refined Slater condition: some point satisfies every
    polyhedral row (linear, s = 1/inf balls, boxes) and has worst-case
    slack >= SLATER_MARGIN on every 2-norm ball and ellipsoid row.

    An LP for the polyhedral rows; for s = 2 rows a 1-norm LP proves it
    and an inf-norm LP with tangent cuts disproves it, with max_slack the
    relaxation's bound (see maximize_min_slack).
    """
    strict = [r for r in X.rows if isinstance(r, ConcaveRow) and r.s == 2]
    satisfied = [r for r in X.rows if not (isinstance(r, ConcaveRow) and r.s == 2)]
    search: SlackSearch = maximize_min_slack(strict, X.n, target=SLATER_MARGIN,
                                             satisfied=satisfied)
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
    stop_reason: str                        # the cone solver's, or the LP status
    lam: np.ndarray | None = None
    mu_of: dict | None = None               # active linear row -> multiplier
    cones: dict | None = None               # constraint -> (row, its (y, mu) block)
    direction: np.ndarray | None = None     # infeasible: the Farkas direction d


def _solve_endpoint(C, XL, geo: ActiveGeometry, cones, xl):
    """Scalarization weights lambda on the simplex whose image C^T lambda
    lies in the cone of the constraint data active at xl.

    Columns: lambda; one nonnegative multiplier per group of active linear
    rows on its generator (complementarity is structural); and per 2-norm
    ball or ellipsoid row a_bar + P w in `cones`, the ones active at xl, a
    block (y, mu) with ||y||_2 <= mu on the columns (P, -a_bar), y standing
    for the multiplier times its unit witness.  Rows: the n equalities and
    the scalarized value [C xl | -sum(b) per group | 0, -b per block].
    Together they give sum_j mu_j [(a_bar_j - P_j w_j).xl - b_j] = 0 with
    every term at least mu_j times the row's slack, so an inactive row
    would get mu_j = 0 and needs no block.  With no block the endpoint is
    an exact LP over the n equalities, an all-zero one left out.

    An infeasible endpoint carries the direction d of the LP's Farkas ray
    (zero on the left-out equalities): C d < 0, and d.(-generator) >= 0 for
    every group.  A cone system that fails gets it from the same LP with
    each block replaced by its tangent column -g, g the row's supergradient
    at xl; when that LP is feasible there is no direction.
    """
    m, n = C.shape
    k = len(geo.groups)
    dims = [r.P.shape[1] + 1 for r in cones]
    A = np.zeros((n + 1, m + k + sum(dims)))
    A[:n, :m] = C.T
    A[:n, m:m + k] = np.reshape(geo.generators, (k, n)).T
    A[n, :m] = C @ xl
    A[n, m:m + k] = [-sum(XL.rows[i].b for i in g) for g in geo.groups]
    o = m + k
    for r, d in zip(cones, dims):
        A[:n, o:o + d - 1] = r.P
        A[:n, o + d - 1] = -r.a_bar
        A[n, o + d - 1] = -r.b
        o += d
    residual, x = None, None
    if cones:
        blocks = [("simplex", m)] + [("nonneg", k)] * (k > 0) + [("soc", d) for d in dims]
        res = solve_cone_system(A, np.zeros(n + 1), blocks)
        residual, stop = res.residual, res.stop_reason
        if res.feasible:
            x = res.x
        else:
            # the direction's LP: each block's columns give way to its tangent column
            A = A[:, :m + k + len(cones)]
            A[:n, m + k:] = np.transpose([-r.supergradient(xl) for r in cones])
    if x is None:
        live = A[:n].any(axis=1)
        G = np.vstack([A[:n][live], np.zeros(A.shape[1])])
        G[-1, :m] = 1.0                         # the simplex row
        h = np.zeros(len(G))
        h[-1] = 1.0
        sol = solve_lp(np.zeros(A.shape[1]), G, h, 0.0, eq=True)
        if not cones:
            stop = sol.status
            x = sol.x
    if x is None:
        d = None
        if sol.ray is not None:
            d = np.zeros(n)
            d[live] = sol.ray[:-1]
        return EndpointSolve(False, residual, stop, direction=d)
    lam = np.maximum(x[:m], 0.0)
    lam = lam / lam.sum()
    mu_of = dict.fromkeys(geo.active_rows, 0.0)
    for rows, mu in zip(geo.groups, np.maximum(x[m:m + k], 0.0).tolist()):
        for i in rows:
            mu_of[i] = mu
    segs = np.split(x[m + k:], np.cumsum(dims)[:-1])
    return EndpointSolve(True, residual, stop, lam, mu_of,
                         {r.source: (r, seg) for r, seg in zip(cones, segs)})


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


def _in_rn(a, n):
    """The first n entries of a: a itself unless the lift padded it, and
    then a copy, so that a record keeps no padded array alive."""
    return a if a.size == n else a[:n].copy()


def _witness_record(row, n, mu_j, y, x_bar):
    """Record of an affine norm-ball row a_bar + P w whose multiplier mu_j
    carries y = mu_j w; w is scaled back into the unit s-ball."""
    w = y / mu_j if mu_j > 1e-10 else np.zeros_like(y)
    w = w / max(1.0, norm_value(w, row.s))
    a = _in_rn(row.a_bar - row.P @ w, n)
    slack = slack_value(a, x_bar, row.b)
    return ConstraintMultiplier(mu_j, a, row.b, w, norm_value(w, row.s),
                                mu_j * slack if mu_j else math.copysign(0.0, slack))


def _constraint_records(p, X, XL, sol: EndpointSolve, x_bar, zero):
    """One record per constraint from an endpoint solution over XL, the
    lift of the reduced set X, cut back to R^n.

    A cone block (y, mu) gives the multiplier and the witness w = y/mu; a
    2-norm row without one, inactive at x_bar, gets mu = 0 and w = 0.  A
    ball lifted at row k0 (RobustFeasibleSet.lift) gives them from its
    rows: mu on the main row, and mu w = nu(tau >= P^T x) - nu(tau >= -P^T x)
    on its band rows.  Any other constraint gets the multiplier-weighted
    mean of its active rows, and with no multiplier mass its first row,
    a record that `zero` shares between the endpoints.  A record's
    scenario row is the constraint's own array of X wherever it equals
    one bit for bit, so that it keeps no array of its own.
    """
    n = p.n
    own = {}
    for r in X.rows:
        own.setdefault(r.source, []).append(r)
    cones = {r.source: (r, np.zeros(r.P.shape[1] + 1))
             for r in XL.rows if isinstance(r, ConcaveRow)}
    cones.update(sol.cones)
    balls = {row.source: (k0, row) for k0, row in XL.lifted}
    terms = {}
    for i, mu in sol.mu_of.items():
        terms.setdefault(XL.rows[i].source, []).append((XL.rows[i], mu))
    recs = []
    for j in range(len(p.constraints)):
        if j in cones:
            row, seg = cones[j]
            recs.append(_witness_record(row, n, max(0.0, float(seg[-1])), seg[:-1], x_bar))
            continue
        if j in balls:
            k0, row = balls[j]
            q = row.P.shape[1]
            nu = np.fromiter((sol.mu_of.get(i, 0.0) for i in range(k0 + 1, k0 + 1 + 2 * q)),
                             float, 2 * q)
            recs.append(_witness_record(row, n, float(sol.mu_of.get(k0, 0.0)),
                                        nu[q:] - nu[:q], x_bar))
            continue
        act = terms.get(j, ())
        mu_j = float(sum(mu for _, mu in act))
        if mu_j > 1e-15:
            a = sum(mu * r.a[:n] for r, mu in act) / mu_j
            b = float(sum(mu * r.b for r, mu in act) / mu_j)
            # the mean of one row is nearly always that row bit for bit
            a = next((r.a for r in own[j] if r.a.tobytes() == a.tobytes()), a)
            recs.append(ConstraintMultiplier(mu_j, np.asarray(a, float), b, None, 0.0,
                                             mu_j * slack_value(a, x_bar, b)))
            continue
        if j not in zero:
            row = own[j][0]         # linear: concave rows have records above
            a = row.a
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
    endpoint: str
    rho: float
    x: np.ndarray
    gap: np.ndarray


@dataclass(frozen=True, slots=True)
class CertifyOutcome:
    status: str                       # "certified" | "refuted" | "unknown"
    certificate: EfficiencyCertificate | None = None
    refutation: RefutationInfo | None = None
    residuals: dict | None = None
    reason: str | None = None         # why an outcome is "unknown"


def _refute(XL, xl, d, C, x0):
    """(x, gap) for a robust-feasible x strictly dominating x_bar = xl[:n]
    under the objective C of a failing endpoint, or None; d in R^n is that
    endpoint's Farkas direction (EndpointSolve.direction, cut back).

    d is scaled to a least improvement -C d of 1.  With a 2-norm row active
    it is tilted toward the Slater point x0 (eps <= 1, spending at most half
    of that improvement) so that it enters those rows strictly.  Each tau of
    the lift then moves as its steepest active band row, so that the ray's
    group sums become one nonnegative rate per active linear row of XL.
    The step is the ratio test on the inactive linear rows of XL, capped at
    t = 1, or at 2^-26 |C| |x_bar| where that is larger so that the step
    shows above the rounding of C x_bar, and halved until x_bar + t d is
    finite and each 2-norm row's exact slack there is >= min(0, its slack
    at x_bar).
    """
    n = C.shape[1]
    x_bar = xl[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        drop = -float(np.max(C @ d))
        if not drop > 0.0:          # NaN too
            return None
        d = d / drop
        if x0 is not None:
            top = float(np.max(C @ (x0 - x_bar)))
            eps = min(1.0, 0.5 / top) if top > 0.0 else 1.0
            d = (d + eps * (x0 - x_bar)) / (1.0 + eps)
        slacks = [r.slack(xl) for r in XL.rows]
        dl = np.zeros(XL.n)
        dl[:n] = d
        for k0, row in XL.lifted:
            cols = n + np.flatnonzero(XL.rows[k0].a[n:])   # one for s = 1, q for s = inf
            rate = {}
            for j in range(2 * row.P.shape[1]):
                if slacks[k0 + 1 + j] <= ACTIVE_TOL:
                    a, c = XL.rows[k0 + 1 + j].a, cols[j % cols.size]
                    rate[c] = max(rate.get(c, -_INF), -float(a[:n] @ d) / a[c])
            dl[list(rate)] = list(rate.values())
        scale = float(np.max(np.abs(C) @ np.abs(x_bar)))
        t = max(1.0, math.ldexp(scale, -26)) if math.isfinite(scale) else 1.0
        floors = []
        for r, s in zip(XL.rows, slacks):
            if isinstance(r, ConcaveRow):
                floors.append((r, min(0.0, s)))
            elif s > ACTIVE_TOL and (ad := float(r.a @ dl)) < 0.0:
                t = min(t, s / -ad)
        for _ in range(64):
            x = xl + t * dl
            if np.isfinite(x).all() and all(r.slack(x) >= f for r, f in floors):
                x = _in_rn(x, n)
                gap = C @ x_bar - C @ x
                return (x, gap) if np.all(gap > 0.0) else None
            t *= 0.5
    return None


def _certified(C0, C1, cert, extra):
    """The certified outcome, or "unknown" when a residual that
    verify_certificate replays exceeds RESIDUAL_TOL."""
    resid = _certificate_residuals(C0, C1, cert)
    bad = [k for k, v in resid.items() if not v <= RESIDUAL_TOL]     # NaN too
    resid.update(extra)
    if bad:
        return CertifyOutcome("unknown", residuals=resid, reason=(
            f"certificate residual above RESIDUAL_TOL ({bad[0]} = {resid[bad[0]]:.3e})"))
    return CertifyOutcome("certified", certificate=replace(cert, residuals=resid), residuals=resid)


def certify_weak_efficiency(vp: ValidatedProblem, x_bar) -> CertifyOutcome:
    """Certify or refute robust weak efficiency of a robust-feasible point.

    The feasible set is lifted (RobustFeasibleSet.lift) so that s = 1/inf
    norm balls become linear rows.  The endpoints are exact LPs while no
    2-norm ball or ellipsoid row is active at the point; with one active a
    Slater point is verified and both endpoints are joint conic systems.
    The perturbed endpoint is solved only when the nominal one is feasible.
    A failing endpoint is refuted by _refute along the Farkas direction of
    its endpoint LP; when there is no direction, no step along it replays,
    or a certificate's equality or complementarity residual exceeds
    RESIDUAL_TOL, the outcome is "unknown" with its reason.
    """
    p = vp.problem
    x_bar = np.asarray(x_bar, float)
    if x_bar.size != p.n:
        raise ValueError(f"point has dimension {x_bar.size}, expected {p.n}")
    if any(isinstance(c, Ball) for c in p.constraints):
        raise UnsupportedClassError(
            "joint-ball classes are not certifiable; only verify replays them")
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
    geo = active_geometry(XL, xl)
    # complementarity zeroes the multiplier of a 2-norm row slack at xl
    cones = [r for r in XL.rows if isinstance(r, ConcaveRow) and r.slack(xl) <= ACTIVE_TOL]
    x0 = None
    if cones:
        slater = check_slater(X)
        if not slater.ok:
            raise SlaterViolatedError(slater.max_slack)
        x0 = slater.x0
    e0 = _solve_endpoint(D0, XL, geo, cones, xl)
    # a failing nominal endpoint decides the outcome alone
    ends = {"nominal": e0}
    if e0.feasible:
        ends["perturbed"] = e0 if same else _solve_endpoint(D1, XL, geo, cones, xl)
    name, e = list(ends.items())[-1]        # the failing endpoint, if any

    def residuals(prefix):
        # an endpoint decided by LP is exact and has no residual entry
        return {prefix + k: v.residual for k, v in ends.items() if v.residual is not None}

    if e.feasible:
        e1 = e                              # both endpoints are feasible
        zero = {}
        nominal = _constraint_records(p, X, XL, e0, x_bar, zero)
        perturbed = nominal if e1 is e0 else _constraint_records(p, X, XL, e1, x_bar, zero)
        row_mu = [np.fromiter(e.mu_of.values(), float, len(e.mu_of)) for e in (e0, e1)]
        rows = (geo.active_rows, *row_mu) if XL.all_linear else ((), None, None)
        cert = EfficiencyCertificate(e0.lam, e1.lam, nominal, perturbed, *rows, {})
        return _certified(C0, C1, cert, residuals("system_"))
    C, rho = (C0, 0.0) if name == "nominal" else (C1, 1.0)
    found = None if e.direction is None else _refute(XL, xl, e.direction[:p.n], C, x0)
    if found is None:
        res = "exact" if e.residual is None else f"{e.residual:.3e}"
        why = ("its tangent endpoint LP is feasible, so there is no direction to refute along"
               if e.direction is None else
               "no step along its Farkas direction replays as a strictly dominating witness")
        return CertifyOutcome("unknown", residuals=residuals(""), reason=(
            f"{name} endpoint infeasible (residual {res}, stop {e.stop_reason}) but {why}"))
    info = RefutationInfo(_INFEASIBLE_ENDPOINT[name], name, rho, *found)
    return CertifyOutcome("refuted", refutation=info, residuals=residuals(""))
