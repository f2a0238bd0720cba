"""Robust feasibility analysis.

Finite-system feasibility checks, conic membership of the marker vector
(0,...,0,1) that characterizes inconsistency, the hypographical set of a
nominal system, the radius of robust feasibility under joint coefficient
ball perturbations, and feasibility probing at a given perturbation size.
A radius rho > 0 proves the nominal system feasible by a closed-form point,
so the Phase-I LP runs only when rho = 0 or that point fails its check.
A probe is one radius pass: one hypographical set and one minimum-norm
point, whose rho/2 point it reuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import RobustFeasibleSet
from .numerics import MinNormResult, min_norm_point, solve_lp

_INF = float("inf")

CUT_ROUNDS = 40         # tangent-cut LPs for s = 2 rows in the Slater check
MEMBER_TOL = 1e-9       # relative equality residual of a cone combination
BOUNDARY_TOL = 1e-6     # |alpha - rho| at which ball_robust_feasible is inconclusive


class NominalInfeasibleError(Exception):
    """The unperturbed constraint system already has no solution."""


class NonCertifiedError(Exception):
    """Minimum-norm point failed its variational-inequality check."""


class UnsupportedClassError(Exception):
    """radius or feasible met a constraint that is not a singleton: both
    need the nominal system of an all-singleton problem."""


def _as_rows(rows):
    return [(np.asarray(a, float), float(b)) for a, b in rows]


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None = None


def is_feasible(rows) -> FeasibilityResult:
    """Phase-I decision for {a.x >= b} over free variables.

    Feasible results carry a witness; infeasibility is the exact simplex
    verdict.
    """
    rows = _as_rows(rows)
    if not rows:
        raise ValueError("rows must be nonempty")
    G = np.array([a for a, _ in rows])
    sol = solve_lp(np.zeros(G.shape[1]), G, [b for _, b in rows], -_INF)
    if sol.optimal:
        return FeasibilityResult(True, sol.x)
    return FeasibilityResult(False)


@dataclass(frozen=True)
class ConeMembership:
    contains: bool
    weights: np.ndarray | None = None


def cone_contains(generators, target) -> ConeMembership:
    """Exact membership of target in cone(generators).

    Finitely generated cones are closed, so this is a single feasibility
    LP in the nonnegative combination weights.
    """
    gens = [np.asarray(g, float) for g in generators]
    if not gens:
        raise ValueError("generators must be nonempty")
    t = np.asarray(target, float)
    G = np.column_stack(gens)
    sol = solve_lp(np.zeros(len(gens)), G, t, 0.0, eq=True)
    if not sol.optimal:
        return ConeMembership(False)
    w = np.maximum(sol.x, 0.0)
    if np.linalg.norm(G @ w - t) > MEMBER_TOL * max(1.0, np.linalg.norm(t)):
        return ConeMembership(False)
    return ConeMembership(True, w)


@dataclass(frozen=True)
class HypographicalSet:
    """conv{(a_j, b_j)} + R+ * (0,...,0,-1) for a nominal system."""

    points: np.ndarray    # p x (n+1)
    ray: np.ndarray       # fixed (0,...,0,-1)


def hypographical_set(nominal) -> HypographicalSet:
    pts = np.array([[*np.asarray(a, float).tolist(), b] for a, b in nominal], float)
    if not len(pts):
        raise ValueError("nominal system must be nonempty")
    ray = np.zeros(pts.shape[1])
    ray[-1] = -1.0
    return HypographicalSet(pts, ray)


@dataclass(frozen=True)
class RadiusResult:
    rho: float
    p_star: np.ndarray
    weights: np.ndarray
    mu: float
    certified: bool


def _ball_witness(points, p_star, rho, alpha):
    """Closed-form point x of the alpha-ball probe, 0 <= alpha < rho, from
    the radius's nearest point p* = (a*, b*), and min_j a_j.x - b_j over
    the rows [a_j | b_j] of points; (None, -inf) when x overflows.

    The VI of p* gives a_j.a* + b_j b* >= rho^2 for every row, and
    b* <= 0.  For b* < 0, x = a*/|b*| has sqrt(x.x + 1) = rho/|b*|, so
    every worst-case slack is at least rho(rho - alpha)/|b*|.  For b* = 0,
    x = t a* with sqrt(t^2 rho^2 + 1) <= t rho + 1 has slack_j >=
    t rho(rho - alpha) - b_j - alpha, which t below makes nonnegative.
    Either way every nominal slack is at least alpha.
    """
    a_star, b_star = p_star[:-1], float(p_star[-1])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if b_star < 0:
            x = a_star / -b_star
        else:
            # divided step by step: rho * (rho - alpha) overflows from 1e154
            t = max(0.0, (points[:, -1].max() + alpha) / rho / (rho - alpha))
            x = t * a_star
        slack = points[:, :-1] @ x - points[:, -1]
    if not np.isfinite(x).all():
        return None, -_INF
    if not np.isfinite(slack).all():
        # the overflow-safe slack, which keeps the sign of an overflow
        slack = RobustFeasibleSet(x.size, points, np.arange(len(points))).slack(x)
    return x, float(slack.min())


def _radius(nominal):
    """The radius computed once for radius_of_robust_feasibility and each
    ball probe: its RadiusResult, certified False where the public function
    raises NonCertifiedError; the points [a_j | b_j] of the hypographical
    set; the rho/2 probe's (x, min_j a_j.x - b_j), (None, -inf) unless
    rho > 0 is certified; and the Phase-I point, None unless that x fails
    its check and the LP ran.  Raises NominalInfeasibleError.
    """
    H = hypographical_set(nominal)
    res: MinNormResult = min_norm_point(H.points, H.ray)
    half, nominal_x = (None, -_INF), None
    if res.certified and res.distance > 0:
        half = _ball_witness(H.points, res.p_star, res.distance, res.distance / 2)
    if not half[1] >= 0:
        nom = is_feasible(list(zip(H.points[:, :-1], H.points[:, -1])))
        if not nom.feasible:
            raise NominalInfeasibleError("nominal system is infeasible")
        nominal_x = nom.x
    rr = RadiusResult(res.distance, res.p_star, res.weights, res.mu, res.certified)
    return rr, H.points, half, nominal_x


def radius_of_robust_feasibility(nominal) -> RadiusResult:
    """Largest coefficient-ball radius keeping the system feasible.

    Equals the distance from the origin to the hypographical set of the
    nominal rows, computed as a minimum-norm point.  A certified rho > 0
    proves the nominal system feasible by the point of the rho/2-ball probe,
    whose slacks are >= rho/2 (alpha = 0's are tight), checked >= 0 in
    floats; otherwise the Phase-I LP decides, before NonCertifiedError.
    """
    rr = _radius(nominal)[0]
    if not rr.certified:
        raise NonCertifiedError("minimum-norm solve did not certify optimality")
    return rr


# ---------------------------------------------------------------------------
# Min-slack maximization by LP (the Slater check)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlackSearch:
    x: np.ndarray | None
    value: float          # min-slack achieved at x
    upper_bound: float    # LP bound on the supremum; inf if x decided it


def _slack_lp(X, strict, cap, s, cuts):
    """max t <= cap s.t. slack_j(x) >= t on the rows of the strict
    constraints, slack_j(x) >= 0 on the others, and g.x - t >= b for each
    cut [g | b].

    The LP is X's lift (RobustFeasibleSet.lift) with the 2-norm of each
    s = 2 row replaced by the dual norm of s (the 1-norm for s = inf, the
    inf-norm for s = 1), plus a column t: -1 on the main rows of the strict
    constraints, 0 on the other main rows and on the band rows.  The cuts
    and t <= cap follow the lifted rows.  Returns (x, t), or (None, -inf)
    when no x satisfies the rows of the other constraints.
    """
    n = X.n
    rows = tuple(replace(r, s=s) if r.s == 2 else r for r in X.concave)
    XL, _ = replace(X, concave=rows).lift(np.zeros(n))
    t_col = np.where(np.isin(XL.source, strict), -1.0, 0.0)
    for i, r in XL.lifted:
        t_col[i + 1:i + 1 + 2 * r.P.shape[1]] = 0.0
    k = len(t_col)
    G = np.zeros((k + len(cuts) + 1, XL.n + 1))
    G[:k, :-1], G[:k, -1], G[k:, -1] = XL.A, t_col, -1.0
    for row, cut in zip(G[k:], cuts):
        row[:n] = cut[:-1]
    h = np.concatenate([XL.b, [cut[-1] for cut in cuts], [-cap]])
    lower = np.zeros(XL.n + 1)
    lower[:n] = lower[-1] = -_INF
    sol = solve_lp(G[-1], G, h, lower)          # min -t
    if not sol.optimal:
        return None, -_INF
    return sol.x[:n], float(sol.x[-1])


def maximize_min_slack(X: RobustFeasibleSet, target: float = 0.0,
                       strict=None) -> SlackSearch:
    """Maximize min_j slack_j(x) over the rows of the reduced set X, linear
    and concave, of the constraints in `strict` (default: all of them),
    over the x in R^n where the rows of the other constraints have
    slack >= 0.  Every 2-norm (s = 2) row must be strict.

    One LP in (x, t) maximizes t <= max(1, target) subject to
    slack_j(x) >= t, each dual norm written with the band rows of the lift
    (Ben-Tal, El Ghaoui & Nemirovski, Robust Optimization, 2009).  With
    linear, s = 1 and s = inf rows only, the LP is exact and its value is
    the supremum (or the cap).  The 2-norm of an s = 2 row lies between the
    inf-norm and the 1-norm: the LP with the 1-norm is a restriction whose
    point is a witness, and the LP with the inf-norm plus Kelley's tangent
    cuts yhat.P^T (x, -1) <= ||P^T (x, -1)||_2 at each round's point (its
    worst row there, supergradient) is a relaxation whose value bounds the
    supremum.  The cut rounds stop when a point
    reaches the target, when the bound falls below it, or after CUT_ROUNDS.
    With no point satisfying the other constraints the value and bound are
    -inf.
    """
    cap = max(1.0, target)
    if strict is None:
        strict = [*X.source.tolist(), *(r.source for r in X.concave)]
    lin = np.isin(X.source, strict)
    rows = [r for r in X.concave if r.source in strict]
    round_rows = [r for r in X.concave if r.s == 2]
    if any(r.source not in strict for r in round_rows):
        raise ValueError("every 2-norm row must be strict")

    def phi(pt):
        return min([*X.slack(pt)[lin], *(r.slack(pt) for r in rows)], default=cap)

    x, bound = _slack_lp(X, strict, cap, _INF, ())
    if x is None:
        return SlackSearch(None, -_INF, -_INF)
    best_x, best_v = x, phi(x)
    if not round_rows:
        return SlackSearch(best_x, best_v, bound)
    bound, cuts = _INF, []
    for _ in range(CUT_ROUNDS):
        if best_v >= target:
            break
        cuts += [r.supergradient(x) for r in round_rows]
        x, bound = _slack_lp(X, strict, cap, 1, cuts)
        if bound < target:
            break
        v = phi(x)
        if v > best_v:
            best_x, best_v = x, v
    return SlackSearch(best_x, best_v, bound)


@dataclass(frozen=True)
class BallFeasibility:
    status: str           # "feasible" | "infeasible" | "inconclusive"
    x: np.ndarray | None = None
    rho: float | None = None


def ball_robust_feasible(nominal, alpha: float) -> BallFeasibility:
    """Probe feasibility when every row's (a, b) may move in an alpha-ball.

    The sign decision near the boundary is delegated to the radius value;
    strictly inside, the witness comes in closed form from the radius's
    nearest point and is checked to have worst-case slack >= -1e-8 (a
    check that overflow leaves undecided reads as inconclusive).  For
    b* < 0 it is the radius's rho/2 point, reused.
    Exactly at the radius (within BOUNDARY_TOL) the answer is inconclusive
    because attainment of the supremum is not guaranteed.  At alpha = 0
    the rho/2 point is the witness when rho > 0 is certified and its
    slacks are >= 0; otherwise the Phase-I LP decides, and alpha = 0
    never raises NonCertifiedError.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    rr, points, (x, slack), nominal_x = _radius(nominal)   # raises on infeasible nominal
    if alpha == 0.0:
        return BallFeasibility("feasible", x if nominal_x is None else nominal_x, None)
    if not rr.certified:
        raise NonCertifiedError("minimum-norm solve did not certify optimality")
    if alpha > rr.rho + BOUNDARY_TOL:
        return BallFeasibility("infeasible", None, rr.rho)
    if abs(alpha - rr.rho) <= BOUNDARY_TOL:
        return BallFeasibility("inconclusive", None, rr.rho)
    if not rr.p_star[-1] < 0:
        # t a* depends on alpha; for b* < 0, x = a*/|b*| is rho/2's point
        x, slack = _ball_witness(points, rr.p_star, rr.rho, alpha)
    if x is None or not slack - alpha * math.hypot(*x, 1.0) >= -1e-8:
        return BallFeasibility("inconclusive", None, rr.rho)
    return BallFeasibility("feasible", x, rr.rho)
