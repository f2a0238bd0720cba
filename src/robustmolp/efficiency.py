"""Robust weak-efficiency certification.

A candidate point is robust weakly efficient exactly when suitable
scalarization weights exist for both endpoint objectives of the rank-1
uncertainty segment, with the scalarized gradient lying in the cone
spanned by active constraint data: 0 in conv{rows of C} + cone{active
generators}.  Polyhedral uncertainty classes, boxes and s = 1/inf norm
balls included once lifted into linear rows, are decided by the
minimum-norm point of that set, the radius's own kernel with several
rays.  A 2-norm row (a norm ball, an ellipsoid, or the joint (a, b)
ball, whose P moves b too) gets a multiplier only when it is active at
the point (complementarity zeroes the others): with an active one both
endpoints are conic multiplier systems solved to a residual tolerance,
and with none they are the same minimum-norm point.  A failing endpoint
is refuted by one rule for every class: its nearest point q (with a
tangent column for each active 2-norm row as one more ray) separates 0
from the set, so d = -q strictly improves its objectives (Farkas'
lemma), and a step along d that every row replays is the witness; no
LP is solved.  Only a step across an active 2-norm row needs the refined
Slater condition (strict slack on the 2-norm rows only), to tilt toward
the point of feasibility's nearest-point search, whose "none" replays a
Farkas certificate; with no such point the outcome is "unknown".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .feasibility import maximize_min_slack
from .model import (RobustFeasibleSet, ValidatedProblem, endpoint_objectives, own_row,
                    reduce_constraints)
from .numerics import (VI_TOL, NumericalBreakdown, min_norm_point, norm_value,
                       slack_value, solve_cone_system, solve_lp)

_INF = float("inf")

ACTIVE_TOL = 1e-8
RESIDUAL_TOL = 1e-7     # certificate residuals, verify_certificate's default
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
        raise NotFeasiblePointError(f"row {s.argmin()} violated by {-worst:.3e} "
                                    "at the candidate point")
    groups = {i: [i] for i in (s <= ACTIVE_TOL).nonzero()[0].tolist()}
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
    gens = np.array([-A[g[0]] if len(g) == 1 else -sum(A[i] for i in g)
                     for g in groups.values()], float).reshape(-1, X.n)
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
    1 so the LP always has an optimum), from (x_bar, t = 0); no point
    improves every objective strictly exactly when the optimal t is
    <= IMPROVEMENT_TOL.  A row that x_bar misses by more than ACTIVE_TOL
    raises NotFeasiblePointError; an "unbounded" answer, which the cap
    leaves only to a pivoting breakdown, raises NumericalBreakdown.
    """
    C = np.atleast_2d(np.asarray(C, float))
    m, n = C.shape
    rows = np.reshape(np.asarray(rows, float), (-1, n + 1))
    x_bar = np.asarray(x_bar, float)
    s = RobustFeasibleSet(n, rows, np.arange(len(rows))).slack(x_bar)
    if s.size and (worst := s.min()) < -ACTIVE_TOL:
        raise NotFeasiblePointError(f"row {s.argmin()} violated by {-worst:.3e} "
                                    "at the candidate point")
    base = C @ x_bar
    k = len(rows)
    # rows over (x, t): a.x >= b, C_i x + t <= C_i x_bar, and t <= 1
    G = np.zeros((k + m + 1, n + 1))
    G[:k, :n] = rows[:, :n]
    G[k:k + m, :n] = -C
    G[k:, n] = -1.0
    h = np.concatenate([rows[:, n], -base, [-1.0]])
    sol = solve_lp(G[-1], G, h, np.append(x_bar, 0.0))     # min -t
    if sol.status == "unbounded":
        raise NumericalBreakdown("the scenario LP, capped at t <= 1, came back unbounded")
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
    x0: np.ndarray | None       # a point of positive 2-norm slack when ok
    reason: str | None = None   # why ok is False


def check_slater(X: RobustFeasibleSet) -> SlaterCheck:
    """Decide the refined Slater condition, a point that meets every
    polyhedral row with worst-case slack > 0 on every 2-norm row, by
    maximize_min_slack; the reason says whether it replayed a proof of none."""
    search = maximize_min_slack(X)
    if search.value > 0:
        return SlaterCheck(True, search.x)
    what = "exists" if search.stop == "none" else f"found in {search.rounds} rounds"
    return SlaterCheck(False, None, f"no Slater point {what} (distance {search.distance:.3e})")


# ---------------------------------------------------------------------------
# Endpoint systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointSolve:
    feasible: bool
    residual: float | None                  # a cone solve's, unless a minimum-norm point decided
    stop_reason: str                        # the cone solver's, or "feasible" | "infeasible"
    lam: np.ndarray | None = None
    mu_of: dict | None = None               # active linear row -> multiplier
    cones: dict | None = None               # constraint -> (row, its (y, mu) block)
    direction: np.ndarray | None = None     # infeasible: d = -(nearest point)


def _endpoint_rows(XL, geo: ActiveGeometry, cones, m):
    """The cone system both endpoints share when a 2-norm row is active,
    lambda left blank.

    Columns: lambda; one nonnegative multiplier per group of active linear
    rows on its generator (complementarity is structural); per 2-norm row
    [a_bar | b] + P w in `cones`, the ones active at xl, a block (y, mu)
    with ||y||_2 <= mu on the columns (P, -[a_bar | b]) in the [A | b]
    layout, y standing for the multiplier times its unit witness.
    Rows: the n equalities, all = 0, and the scalarized value
    [C xl | -sum(b) per group | P[n], -b per block], = 0 too; the cone
    solver's simplex block holds sum(lambda) = 1.  The two give
    sum_j mu_j [a_j.xl - b_j] = 0 for the realized rows
    [a_j | b_j] = [a_bar_j | b_j] - P_j w_j, with every term at least mu_j
    times the row's slack: an inactive row would get mu_j = 0, and no block.
    """
    n, k = XL.n, len(geo.groups)
    dims = [r.P.shape[1] + 1 for r in cones]
    S = np.zeros((n + 1, m + k + sum(dims)))
    S[:n, m:m + k] = geo.generators.T
    S[n, m:m + k] = [-sum(XL.b[i] for i in g) for g in geo.groups]
    o = m + k
    for r, d in zip(cones, dims):
        S[:, o:o + d - 1] = r.P
        S[:-1, o + d - 1], S[-1, o + d - 1] = -r.a_bar, -r.b
        o += d
    return S


def _solve_endpoint(C, S, geo: ActiveGeometry, cones, xl):
    """Scalarization weights lambda on the simplex whose image C^T lambda
    lies in the cone of the constraint data active at xl.

    With no block the endpoint is one minimum-norm point of conv(rows of
    C) + cone(generators): a distance within VI_TOL * max|C| certifies it,
    lambda the weights and the group multipliers the ray coefficients.
    Otherwise its nearest point q gives the direction d = -q of a failing
    endpoint, since its variational inequality reads C d <= -||q||^2 and
    d.(-generator) >= 0 for every group.  With blocks, C is written into
    the lambda columns of S (_endpoint_rows) for the cone solver.  A cone
    system that fails is decided by the same minimum-norm point with each
    block's tangent column -g as one more ray, g the first n entries of
    the row's supergradient at xl, the realized row of w* = worst_case(xl),
    which is tight there: a distance within the tolerance gives that block
    (mu w*, mu) from the tangent column's coefficient mu.
    """
    (m, n), k = C.shape, len(geo.groups)
    residual, stop, rays, x = None, "infeasible", geo.generators, None
    dims = [r.P.shape[1] + 1 for r in cones]
    if cones:
        with np.errstate(over="ignore", invalid="ignore"):   # inf: solve_cone_system raises
            S[:n, :m], S[n, :m] = C.T, C @ xl
        blocks = [("simplex", m)] + [("nonneg", k)] * (k > 0) + [("soc", d) for d in dims]
        res = solve_cone_system(S.copy(), np.zeros(n + 1), blocks)
        residual, stop = res.residual, res.stop_reason
        if res.feasible:
            x = res.x
        else:
            rays = np.vstack([rays, [-r.supergradient(xl)[:-1] for r in cones]])
    if x is None:
        near = min_norm_point(C, rays)
        if near.distance > VI_TOL * float(np.abs(C).max()):
            return EndpointSolve(False, residual, stop, direction=-near.p_star)
        tangent = [np.append(mu * r.worst_case(xl), mu) for r, mu in zip(cones, near.mu[k:])]
        residual, stop = None, "feasible"
        x = np.concatenate([near.weights, near.mu[:k], *tangent])
    lam = np.maximum(x[:m], 0.0)
    lam = lam / lam.sum()
    mu_of = dict.fromkeys(geo.active_rows, 0.0)
    for rows, mu in zip(geo.groups, np.maximum(x[m:m + k], 0.0).tolist()):
        for i in rows:
            mu_of[i] = mu
    segs = [x[o:o + d] for d, o in zip(dims, accumulate(dims, initial=m + k))]
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
    w = y / mu_j if mu_j > 1e-10 else np.zeros(y.size)
    w = w / max(1.0, norm_value(w, row.s))
    r = row.realize(w)
    return ConstraintMultiplier(mu_j, r[:n].copy(), float(r[-1]), w)


def _constraint_records(p, X, XL, e0, e1):
    """One record per constraint from each endpoint solution over XL, the
    lift of the reduced set X, cut back to R^n (one tuple if e1 is e0).

    A cone block (y, mu) gives the multiplier and the witness w = y/mu; a
    2-norm row without one, inactive at x_bar, gets mu = 0 and w = 0.  A
    ball lifted at row k0 (RobustFeasibleSet.lift) gives them from its
    rows: mu on the main row, and mu w = nu(tau >= z) - nu(tau >= -z) on
    its band rows, z = P^T (x, -1).  A linear constraint gets the
    multiplier-weighted mean of its active rows, summed in row order from
    one product of the multipliers with the active rows of XL, and with no
    multiplier mass its first row, a record the endpoints share.  A scenario
    row is the constraint's own array (own_row) wherever it equals one of
    its rows of X bit for bit, so that a record keeps no array of its own.
    """
    n, A = p.n, X.A
    # the rows of constraint j are first[j]:first[j + 1] in X
    ends = np.arange(len(p.constraints) + 1)
    first = X.source.searchsorted(ends).tolist()
    b = X.b.tolist()
    zero = [ConstraintMultiplier(0.0, own_row(c, 0, n), b[first[j]], None)
            if first[j] < first[j + 1] else None for j, c in enumerate(p.constraints)]

    def records(sol):
        recs = list(zero)
        for r in XL.concave:
            row, seg = sol.cones.get(r.source, (r, np.zeros(r.P.shape[1] + 1)))
            recs[r.source] = _witness_record(row, n, max(0.0, float(seg[-1])), seg[:-1])
        for k0, row in XL.lifted:
            q = row.P.shape[1]
            nu = np.fromiter((sol.mu_of.get(i, 0.0) for i in range(k0 + 1, k0 + 1 + 2 * q)),
                             float, 2 * q)
            recs[row.source] = _witness_record(row, n, float(sol.mu_of.get(k0, 0.0)),
                                               nu[q:] - nu[:q])
        # the active rows of constraint j in XL are act[bounds[j]:bounds[j + 1]]
        act, mus = list(sol.mu_of), list(sol.mu_of.values())
        src = XL.source[act]
        bounds = src.searchsorted(ends).tolist()
        weighted = np.array(mus)[:, None] * XL.rows[act]
        for j in dict.fromkeys(src.tolist()):
            s, e = bounds[j], bounds[j + 1]
            mu_j = 0.0
            for mu in mus[s:e]:     # left to right, which sum() is not from Python 3.12 on
                mu_j += mu
            if zero[j] is None or not mu_j > 1e-15:     # a lifted ball's rows, or no mass
                continue
            total = sum(weighted[s:e])
            a = total[:n] / mu_j
            # the mean of one row is nearly always that row bit for bit
            a = next((own_row(p.constraints[j], i - first[j], n) for i in
                      range(first[j], first[j + 1]) if A[i].tobytes() == a.tobytes()), a)
            recs[j] = ConstraintMultiplier(mu_j, a, float(total[-1] / mu_j), None)
        return tuple(recs)

    nominal = records(e0)
    return nominal, nominal if e1 is e0 else records(e1)


def _certificate_residuals(C0, C1, cert, x_bar):
    """The residuals verify_certificate replays, from the records of both
    endpoints stacked once: each endpoint equality, sum_j mu_j a_j added in
    record order, and complementarity, the largest |mu (a.x_bar - b)| of a
    record with mu != 0 (a slack that is not finite redone by slack_value)."""
    recs = cert.nominal + cert.perturbed
    mu = np.array([r.mu for r in recs]).reshape(2, -1)
    A = np.array([r.scenario_a for r in recs]).reshape(2, mu.shape[1], -1)
    b = np.array([r.scenario_b for r in recs]).reshape(2, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = (mu[:, :, None] * A).cumsum(axis=1)[:, -1]
        s = A @ x_bar - b
        for e, j in zip(*(~np.isfinite(s)).nonzero()):
            s[e, j] = slack_value(A[e, j], x_bar, b[e, j])
        comp = np.where(mu != 0, np.abs(mu * s), 0.0).max(axis=1)
    eq = [float(np.linalg.norm(C.T @ lam - r)) for C, lam, r in
          ((C0, cert.lambda_nominal, rhs[0]), (C1, cert.lambda_perturbed, rhs[1]))]
    return {"endpoint_equality_nominal": eq[0], "complementarity_nominal": float(comp[0]),
            "endpoint_equality_perturbed": eq[1], "complementarity_perturbed": float(comp[1])}


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
    endpoint's direction (EndpointSolve.direction, cut back).

    d is scaled to a least improvement -C d of 1.  With a 2-norm row active
    it is tilted toward the Slater point x0 (eps <= 1, spending at most half
    of that improvement) so that it enters those rows strictly.  Each tau of
    the lift then moves as its steepest active band row, so that the ray's
    group sums become one nonnegative rate per active linear row of XL.
    The step is the ratio test on the inactive linear rows of XL, capped at
    t = 1, or at 2^-26 |C| |x_bar| where that is larger so that the step
    shows above the rounding of C x_bar, and halved until x_bar + t d is
    finite and replays: the slack there of each linear row of XL, each
    lifted ball (its worst case, whatever its tau) and each 2-norm row is
    >= min(0, its slack at x_bar).  The replay does not trust d: an active
    row that d would leave refuses every step.
    """
    n = C.shape[1]
    x_bar = xl[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        drop = -float((C @ d).max())
        if not drop > 0.0:          # NaN too
            return None
        d = d / drop
        if x0 is not None:
            top = float((C @ (x0 - x_bar)).max())
            eps = min(1.0, 0.5 / top) if top > 0.0 else 1.0
            d = (d + eps * (x0 - x_bar)) / (1.0 + eps)
        A, b = XL.A, XL.b
        slacks = XL.slack(xl)
        dl = np.zeros(XL.n)
        dl[:n] = d
        for k0, row in XL.lifted:
            cols = n + A[k0, n:].nonzero()[0]       # one for s = 1, q for s = inf
            rate = {}
            for j in range(2 * row.P.shape[1]):
                if slacks[k0 + 1 + j] <= ACTIVE_TOL:
                    a, c = A[k0 + 1 + j], cols[j % cols.size]
                    rate[c] = max(rate.get(c, -_INF), -float(a[:n] @ d) / a[c])
            dl[list(rate)] = list(rate.values())
        scale = float((np.abs(C) @ np.abs(x_bar)).max())
        t = max(1.0, math.ldexp(scale, -26)) if math.isfinite(scale) else 1.0
        # the ratio test, each ratio from its row's dot products: A @ dl may round otherwise
        for i in ((slacks > ACTIVE_TOL) & (A @ dl < 0.0)).nonzero()[0]:
            if (ad := float(A[i] @ dl)) < 0.0:
                t = min(t, slack_value(A[i], xl, b[i]) / -ad)
        # the replay: every linear row of XL, a lifted ball as its own worst
        # case in R^n (its tau may lag), and each 2-norm row
        floor = np.minimum(slacks, 0.0)
        curved = [(r, XL.n) for r in XL.concave]
        for k0, row in XL.lifted:
            floor[k0:k0 + 1 + 2 * row.P.shape[1]] = -_INF
            curved.append((row, n))
        floors = [(r, k, min(0.0, r.slack(xl[:k]))) for r, k in curved]
        for _ in range(64):
            x = xl + t * dl
            if (np.isfinite(x).all() and (XL.slack(x) >= floor).all()
                    and all(r.slack(x[:k]) >= f for r, k, f in floors)):
                x = _in_rn(x, n)
                gap = C @ x_bar - C @ x
                return (x, gap) if (gap > 0.0).all() else None
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
    linear rows.  The endpoints are minimum-norm points while no 2-norm
    row is active at the point; with one active both endpoints are joint
    conic systems.  The perturbed endpoint is solved only when the nominal
    one is feasible.  A failing endpoint is refuted by _refute along the
    direction of its nearest point, tilted toward the point of
    check_slater when a 2-norm row is active.
    When there is no Slater point for that tilt, no step along the
    direction that replays, or a certificate's equality or complementarity
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
    D0, D1 = (C0, C1) if XL is X else np.zeros((2, p.m, XL.n))
    if XL is not X:
        D0[:, :p.n], D1[:, :p.n] = C0, C1
    geo = active_geometry(XL, xl)
    # complementarity zeroes the multiplier of a 2-norm row slack at xl
    cones = [r for r in XL.concave if r.slack(xl) <= ACTIVE_TOL]
    S = _endpoint_rows(XL, geo, cones, p.m) if cones else None
    e0 = _solve_endpoint(D0, S, geo, cones, xl)
    # a failing nominal endpoint decides the outcome alone
    ends = {"nominal": e0}
    if e0.feasible:
        ends["perturbed"] = e0 if same else _solve_endpoint(D1, S, geo, cones, xl)
    name, e = list(ends.items())[-1]        # the failing endpoint, if any

    def residuals(prefix):
        # an endpoint decided by its minimum-norm point has no residual entry
        return {prefix + k: v.residual for k, v in ends.items() if v.residual is not None}

    if e.feasible:                          # so both endpoints are
        cert = EfficiencyCertificate(e0.lam, e.lam, *_constraint_records(p, X, XL, e0, e))
        return _certified(C0, C1, cert, x_bar, residuals("system_"))
    C, rho = (C0, 0.0) if name == "nominal" else (C1, 1.0)
    found = None
    # untilted, the direction is tangent to the active 2-norm rows, and only
    # a step whose curvature rounds away would replay along it
    if cones and not (slater := check_slater(X)).ok:
        why = f"{slater.reason} to tilt its Farkas direction into the active 2-norm rows"
    else:
        found = _refute(XL, xl, e.direction[:p.n], C, slater.x0 if cones else None)
        why = "no step along its Farkas direction replays as a strictly dominating witness"
    if found is None:
        res = "exact" if e.residual is None else f"{e.residual:.3e}"
        return CertifyOutcome("unknown", residuals=residuals(""), reason=(
            f"{name} endpoint infeasible (residual {res}, stop {e.stop_reason}) but {why}"))
    info = RefutationInfo(_INFEASIBLE_ENDPOINT[name], name, rho, *found)
    return CertifyOutcome("refuted", refutation=info, residuals=residuals(""))
