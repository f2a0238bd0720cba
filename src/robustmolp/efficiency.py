"""Robust weak-efficiency certification.

A candidate point is robust weakly efficient exactly when suitable
scalarization weights exist for both endpoint objectives of the rank-1
uncertainty segment, with the scalarized gradient lying in the cone
spanned by active constraint data.  Polyhedral uncertainty classes,
boxes and s = 1/inf norm balls included once lifted into linear rows, are
decided exactly by LP.  A 2-norm row (a norm ball, an ellipsoid, or the
joint (a, b) ball, whose P moves b too) gets a multiplier only when it
is active at the point (complementarity zeroes the others):
with an active one both endpoints are conic multiplier systems solved to
a residual tolerance, and with none they are the same exact LP.  A
failing endpoint is refuted by one rule for every class: Farkas' lemma
turns the infeasible endpoint LP (with a tangent column for each active
2-norm row) into a direction that strictly improves its objectives, and
a step along it is replayed as the witness; no second LP is solved.  Only
a step across an active 2-norm row needs the refined Slater condition
(strict slack on the 2-norm rows only), to tilt toward its point; with
no such point the outcome is "unknown".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feasibility import SlackSearch, maximize_min_slack
from .model import (RobustFeasibleSet, ValidatedProblem, endpoint_objectives, own_row,
                    reduce_constraints)
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


# ---------------------------------------------------------------------------
# Active geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActiveGeometry:
    active_rows: tuple        # indices into the linear rows X.rows
    generators: np.ndarray    # normal-cone generators, -(sum of a) per group
    groups: tuple             # active rows that share one multiplier


def active_geometry(X: RobustFeasibleSet, x_bar) -> ActiveGeometry:
    """Active linear rows at x_bar and the normal-cone generators they span.

    Ties at exactly the tolerance count as active; any violation beyond it
    raises NotFeasiblePointError.  Each active row is its own group, except
    in a lifted ball (RobustFeasibleSet.lift).  There a tau column has a
    zero objective, so its equality reads mu(main row) = the sum of the
    multipliers of its active band rows: a band row alone on its column
    joins the main row's group (together they are the worst scenario row
    [a_bar | b] - P w), and the band rows of a ball whose main row is
    inactive have zero multipliers and join no group.
    """
    x_bar = np.asarray(x_bar, float)
    s = X.slack(x_bar)
    if s.size and (worst := s.min()) < -ACTIVE_TOL:
        raise NotFeasiblePointError(f"row {np.argmin(s)} violated by {-worst:.3e} "
                                    "at the candidate point")
    groups = {i: [i] for i in np.flatnonzero(s <= ACTIVE_TOL).tolist()}
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
    A = X.A
    gens = np.reshape([-A[g[0]] if len(g) == 1 else -sum(A[i] for i in g)
                       for g in groups.values()], (-1, X.n))
    return ActiveGeometry(active, gens, tuple(map(tuple, groups.values())))


# ---------------------------------------------------------------------------
# Scenario-wise weak efficiency (LP decision)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioCheck:
    efficient: bool
    witness: np.ndarray | None = None
    gap: np.ndarray | None = None


def weakly_efficient_for_scenario(C, rows, x_bar) -> ScenarioCheck:
    """Is x_bar weakly efficient for objective C over {x : A x >= b}, rows = [A | b]?

    Maximizes the smallest componentwise improvement t over it (capped at
    1 so the LP always has an optimum); no point improves every objective
    strictly exactly when the optimal t is <= IMPROVEMENT_TOL.
    """
    C = np.atleast_2d(np.asarray(C, float))
    m, n = C.shape
    rows = np.reshape(np.asarray(rows, float), (-1, n + 1))
    x_bar = np.asarray(x_bar, float)
    base = C @ x_bar
    k = len(rows)
    # rows over (x, t): a.x >= b, C_i x + t <= C_i x_bar, and t <= 1
    G = np.zeros((k + m + 1, n + 1))
    G[:k, :n] = rows[:, :n]
    G[k:k + m, :n] = -C
    G[k:, n] = -1.0
    h = np.concatenate([rows[:, n], -base, [-1.0]])
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
    slack >= SLATER_MARGIN on every 2-norm row (norm ball, ellipsoid or
    joint ball).

    An LP for the polyhedral rows; for s = 2 rows a 1-norm LP proves it
    and an inf-norm LP with tangent cuts disproves it, with max_slack the
    relaxation's bound (see maximize_min_slack).
    """
    two = [r.source for r in X.concave if r.s == 2]
    search: SlackSearch = maximize_min_slack(X, SLATER_MARGIN, two)
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
    row [a_bar | b] + P w in `cones`, the ones active at xl, a block
    (y, mu) with ||y||_2 <= mu on the columns (P, -[a_bar | b]) in the
    [A | b] layout, y standing for the multiplier times its unit witness.
    Rows: the n equalities and the scalarized value
    [C xl | -sum(b) per group | P[n], -b per block].  Together they give
    sum_j mu_j [a_j.xl - b_j] = 0 for the realized rows
    [a_j | b_j] = [a_bar_j | b_j] - P_j w_j, with every term at least mu_j
    times the row's slack, so an inactive row would get mu_j = 0 and needs
    no block.  With no block the endpoint is an exact LP over the n
    equalities, an all-zero one left out.

    An infeasible endpoint carries the direction d of the LP's Farkas ray
    (zero on the left-out equalities): C d < 0, and d.(-generator) >= 0 for
    every group.  A cone system that fails gets it from the same LP with
    each block replaced by its tangent column -g, g the first n entries of
    the row's supergradient at xl; when that LP is feasible there is no
    direction.
    """
    m, n = C.shape
    k = len(geo.groups)
    dims = [r.P.shape[1] + 1 for r in cones]
    A = np.zeros((n + 1, m + k + sum(dims)))
    A[:n, :m] = C.T
    A[:n, m:m + k] = geo.generators.T
    A[n, :m] = C @ xl
    A[n, m:m + k] = [-sum(XL.b[i] for i in g) for g in geo.groups]
    o = m + k
    for r, d in zip(cones, dims):
        A[:, o:o + d - 1] = r.P
        A[:, o + d - 1] = -np.append(r.a_bar, r.b)
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
            A[:n, m + k:] = np.transpose([-r.supergradient(xl)[:-1] for r in cones])
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


@dataclass(frozen=True, slots=True)
class EfficiencyCertificate:
    lambda_nominal: np.ndarray
    lambda_perturbed: np.ndarray
    nominal: tuple                  # ConstraintMultiplier per constraint
    perturbed: tuple


def _in_rn(a, n):
    """The first n entries of a: a itself unless the lift padded it, and
    then a copy, so that a record keeps no padded array alive."""
    return a if a.size == n else a[:n].copy()


def _witness_record(row, n, mu_j, y):
    """Record of a concave row whose multiplier mu_j carries y = mu_j w: its
    realized row [a_bar | b] - P w, w scaled back into the unit s-ball."""
    w = y / mu_j if mu_j > 1e-10 else np.zeros_like(y)
    w = w / max(1.0, norm_value(w, row.s))
    r = row.realize(w)
    return ConstraintMultiplier(mu_j, r[:n].copy(), float(r[-1]), w)


def _constraint_records(p, X, XL, sol: EndpointSolve, zero):
    """One record per constraint from an endpoint solution over XL, the
    lift of the reduced set X, cut back to R^n.

    A cone block (y, mu) gives the multiplier and the witness w = y/mu; a
    2-norm row without one, inactive at x_bar, gets mu = 0 and w = 0.  A
    ball lifted at row k0 (RobustFeasibleSet.lift) gives them from its
    rows: mu on the main row, and mu w = nu(tau >= z) - nu(tau >= -z) on
    its band rows, z = P^T (x, -1).  Any other constraint gets the multiplier-weighted
    mean of its active rows, and with no multiplier mass its first row,
    a record that `zero` shares between the endpoints.  A record's
    scenario row is the constraint's own array (own_row) wherever it equals
    one of its rows of X bit for bit, so that it keeps no array of its own.
    """
    n, A = p.n, X.A
    # the rows of constraint j in X are first[j]:first[j + 1]
    first = np.searchsorted(X.source, np.arange(len(p.constraints) + 1))
    cones = {r.source: (r, np.zeros(r.P.shape[1] + 1)) for r in XL.concave}
    cones.update(sol.cones)
    balls = {row.source: (k0, row) for k0, row in XL.lifted}
    terms = {}
    for i, mu in sol.mu_of.items():
        terms.setdefault(int(XL.source[i]), []).append((i, mu))
    recs = []
    for j, c in enumerate(p.constraints):
        if j in cones:
            row, seg = cones[j]
            recs.append(_witness_record(row, n, max(0.0, float(seg[-1])), seg[:-1]))
            continue
        if j in balls:
            k0, row = balls[j]
            q = row.P.shape[1]
            nu = np.fromiter((sol.mu_of.get(i, 0.0) for i in range(k0 + 1, k0 + 1 + 2 * q)),
                             float, 2 * q)
            recs.append(_witness_record(row, n, float(sol.mu_of.get(k0, 0.0)), nu[q:] - nu[:q]))
            continue
        act = terms.get(j, ())
        mu_j = float(sum(mu for _, mu in act))
        if mu_j > 1e-15:
            a = sum(mu * XL.rows[i, :n] for i, mu in act) / mu_j
            b = float(sum(mu * XL.rows[i, -1] for i, mu in act) / mu_j)
            # the mean of one row is nearly always that row bit for bit
            a = next((own_row(c, i - first[j], n) for i in range(first[j], first[j + 1])
                      if A[i].tobytes() == a.tobytes()), a)
            recs.append(ConstraintMultiplier(mu_j, np.asarray(a, float), b, None))
            continue
        if j not in zero:
            # linear: concave rows have records above
            zero[j] = ConstraintMultiplier(0.0, own_row(c, 0, n),
                                           float(X.rows[first[j], -1]), None)
        recs.append(zero[j])
    return tuple(recs)


def _certificate_residuals(C0, C1, cert, x_bar):
    """The residuals verify_certificate replays: each endpoint equality,
    and complementarity, the largest |mu (a.x_bar - b)| of a record with
    mu != 0."""
    out = {}
    for eq_key, comp_key, C, lam, recs in (
            ("endpoint_equality_nominal", "complementarity_nominal",
             C0, cert.lambda_nominal, cert.nominal),
            ("endpoint_equality_perturbed", "complementarity_perturbed",
             C1, cert.lambda_perturbed, cert.perturbed)):
        lhs = C.T @ lam
        rhs = sum(r.mu * r.scenario_a for r in recs)
        out[eq_key] = float(np.linalg.norm(lhs - rhs))
        out[comp_key] = float(max((abs(r.mu * slack_value(r.scenario_a, x_bar, r.scenario_b))
                                   for r in recs if r.mu), default=0.0))
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
        A, b = XL.A, XL.b
        slacks = XL.slack(xl)
        dl = np.zeros(XL.n)
        dl[:n] = d
        for k0, row in XL.lifted:
            cols = n + np.flatnonzero(A[k0, n:])    # one for s = 1, q for s = inf
            rate = {}
            for j in range(2 * row.P.shape[1]):
                if slacks[k0 + 1 + j] <= ACTIVE_TOL:
                    a, c = A[k0 + 1 + j], cols[j % cols.size]
                    rate[c] = max(rate.get(c, -_INF), -float(a[:n] @ d) / a[c])
            dl[list(rate)] = list(rate.values())
        scale = float(np.max(np.abs(C) @ np.abs(x_bar)))
        t = max(1.0, math.ldexp(scale, -26)) if math.isfinite(scale) else 1.0
        # the ratio test, each ratio from its row's dot products: A @ dl may round otherwise
        for i in np.flatnonzero((slacks > ACTIVE_TOL) & (A @ dl < 0.0)):
            if (ad := float(A[i] @ dl)) < 0.0:
                t = min(t, slack_value(A[i], xl, b[i]) / -ad)
        floors = [(r, min(0.0, r.slack(xl))) for r in XL.concave]
        for _ in range(64):
            x = xl + t * dl
            if np.isfinite(x).all() and all(r.slack(x) >= f for r, f in floors):
                x = _in_rn(x, n)
                gap = C @ x_bar - C @ x
                return (x, gap) if np.all(gap > 0.0) else None
            t *= 0.5
    return None


def _certified(C0, C1, cert, x_bar, extra):
    """The certified outcome, or "unknown" when a residual that
    verify_certificate replays exceeds RESIDUAL_TOL."""
    resid = _certificate_residuals(C0, C1, cert, x_bar)
    bad = [k for k, v in resid.items() if not v <= RESIDUAL_TOL]     # NaN too
    resid.update(extra)
    if bad:
        return CertifyOutcome("unknown", residuals=resid, reason=(
            f"certificate residual above RESIDUAL_TOL ({bad[0]} = {resid[bad[0]]:.3e})"))
    return CertifyOutcome("certified", certificate=cert, residuals=resid)


def certify_weak_efficiency(vp: ValidatedProblem, x_bar) -> CertifyOutcome:
    """Certify or refute robust weak efficiency of a robust-feasible point.

    Every class is decided, the joint ball included.  The feasible set is
    lifted (RobustFeasibleSet.lift) so that s = 1/inf norm balls become
    linear rows.  The endpoints are exact LPs while no 2-norm row is
    active at the point; with one active
    both endpoints are joint conic systems.  The perturbed endpoint is
    solved only when the nominal one is feasible.  A failing endpoint is
    refuted by _refute along the Farkas direction of its endpoint LP,
    tilted toward the point of check_slater when a 2-norm row is active.
    When there is no direction, no Slater point for that tilt, no step
    along it that replays, or a certificate's equality or complementarity
    residual above RESIDUAL_TOL, the outcome is "unknown" with its reason.
    """
    p = vp.problem
    x_bar = np.asarray(x_bar, float)
    if x_bar.size != p.n:
        raise ValueError(f"point has dimension {x_bar.size}, expected {p.n}")
    X = reduce_constraints(vp)
    # a violated linear row is left to active_geometry, which meets it in the lift
    for r in X.concave:
        if (s := r.slack(x_bar)) < -ACTIVE_TOL:
            raise NotFeasiblePointError(f"constraint {r.source} violated by {-s:.3e}")
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
    cones = [r for r in XL.concave if r.slack(xl) <= ACTIVE_TOL]
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
        nominal = _constraint_records(p, X, XL, e0, zero)
        perturbed = nominal if e1 is e0 else _constraint_records(p, X, XL, e1, zero)
        cert = EfficiencyCertificate(e0.lam, e1.lam, nominal, perturbed)
        return _certified(C0, C1, cert, x_bar, residuals("system_"))
    C, rho = (C0, 0.0) if name == "nominal" else (C1, 1.0)
    found = None
    if e.direction is None:
        why = "its tangent endpoint LP is feasible, so there is no direction to refute along"
    # untilted, the direction is tangent to the active 2-norm rows, and only
    # a step whose curvature rounds away would replay along it
    elif cones and not (slater := check_slater(X)).ok:
        why = ("no Slater point exists to tilt its Farkas direction into the active "
               f"2-norm rows (max_slack {slater.max_slack:.3e})")
    else:
        found = _refute(XL, xl, e.direction[:p.n], C, slater.x0 if cones else None)
        why = "no step along its Farkas direction replays as a strictly dominating witness"
    if found is None:
        res = "exact" if e.residual is None else f"{e.residual:.3e}"
        return CertifyOutcome("unknown", residuals=residuals(""), reason=(
            f"{name} endpoint infeasible (residual {res}, stop {e.stop_reason}) but {why}"))
    info = RefutationInfo(_INFEASIBLE_ENDPOINT[name], name, rho, *found)
    return CertifyOutcome("refuted", refutation=info, residuals=residuals(""))
