"""Robust feasibility analysis.

Finite-system feasibility checks, conic membership of the marker vector
(0,...,0,1) that characterizes inconsistency, the hypographical set of a
nominal system, the radius of robust feasibility under joint coefficient
ball perturbations, and feasibility probing at a given perturbation size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BallRow, ConcaveRow, RobustFeasibleSet, dual_norm_bands
from .numerics import MinNormResult, min_norm_point, solve_lp

_INF = float("inf")

CUT_ROUNDS = 40         # tangent-cut LPs for s = 2 rows in the Slater check
MEMBER_TOL = 1e-9       # relative equality residual of a cone combination


class NominalInfeasibleError(Exception):
    """The unperturbed constraint system already has no solution."""


class NonCertifiedError(Exception):
    """Minimum-norm point failed its variational-inequality check."""


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
    rows = _as_rows(nominal)
    if not rows:
        raise ValueError("nominal system must be nonempty")
    n = rows[0][0].size
    pts = np.array([np.concatenate([a, [b]]) for a, b in rows])
    ray = np.zeros(n + 1)
    ray[-1] = -1.0
    return HypographicalSet(pts, ray)


@dataclass(frozen=True)
class RadiusResult:
    rho: float
    p_star: np.ndarray
    weights: np.ndarray
    mu: float
    certified: bool


def radius_of_robust_feasibility(nominal) -> RadiusResult:
    """Largest coefficient-ball radius keeping the system feasible.

    Equals the distance from the origin to the hypographical set of the
    nominal rows, computed as a minimum-norm point.
    """
    rows = _as_rows(nominal)
    if not is_feasible(rows).feasible:
        raise NominalInfeasibleError("nominal system is infeasible")
    H = hypographical_set(rows)
    res: MinNormResult = min_norm_point(list(H.points), H.ray)
    if not res.certified:
        raise NonCertifiedError("minimum-norm solve did not certify optimality")
    return RadiusResult(res.distance, res.p_star, res.weights, res.mu, True)


# ---------------------------------------------------------------------------
# Min-slack maximization by LP (the Slater check)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlackSearch:
    x: np.ndarray | None
    value: float          # min-slack achieved at x
    upper_bound: float    # LP bound on the supremum; inf if x decided it


def _slack_lp(X, satisfied, cap, two_norm, cuts):
    """max t <= cap s.t. slack_j(x) >= t for the rows of the set X,
    slack_j(x) >= 0 for those of the set `satisfied`, if any, and g.x - t >= b
    for each cut (g, b).

    The main rows come first, X's and then satisfied's, each set's in
    constraint order; then the cuts, the band rows and t <= cap.  A
    ConcaveRow's dual norm ||P^T x|| becomes auxiliary columns tau >= 0
    (dual_norm_bands): one tau bounds the inf-norm (s = 1 rows), one tau
    per column of P the 1-norm (s = inf rows).  The 2-norm of an s = 2 row
    is replaced by the `two_norm` (1 or inf).  Returns (x, t), or
    (None, -inf) when the satisfied rows have no common point.
    """
    n = X.n
    sets = ((X, -1.0), (satisfied, 0.0)) if satisfied else ((X, -1.0),)
    bands = []
    for r in (r for S, _ in sets for r in S.concave):
        if not isinstance(r, ConcaveRow):
            raise TypeError(f"no min-slack LP for {type(r).__name__}")
        bands.append(dual_norm_bands(r.P, r.s if r.s != 2 else (_INF if two_norm == 1 else 1)))
    widths = [B.shape[1] - n for B in bands]
    cols = n + 1 + np.cumsum([0, *widths])      # first tau column of each ConcaveRow
    mains = sum(len(S.rows) + len(S.concave) for S, _ in sets)
    G = np.zeros((mains + len(cuts) + sum(map(len, bands)) + 1, cols[-1]))
    h = np.zeros(len(G))
    i, c = 0, iter(zip(cols, widths))          # the sets' ConcaveRows take them in turn
    for S, t_coef in sets:
        lin, at = S.positions([1] * len(S.concave))
        G[i + lin, :n], G[i + lin, n], h[i + lin] = S.A, t_coef, S.b
        for r, k0, (col, k) in zip(S.concave, i + at, c):
            G[k0, :n], G[k0, n], G[k0, col:col + k], h[k0] = r.a_bar, t_coef, -1.0, r.b
        i += len(S.rows) + len(S.concave)
    for g, b in cuts:
        G[i, :n], G[i, n], h[i] = g, -1.0, b
        i += 1
    for B, col, k in zip(bands, cols, widths):  # band rows: right-hand side 0
        G[i:i + len(B), :n], G[i:i + len(B), col:col + k] = B[:, :n], B[:, n:]
        i += len(B)
    G[-1, n], h[-1] = -1.0, -cap                # t <= cap
    lower = np.zeros(G.shape[1])
    lower[:n + 1] = -_INF
    sol = solve_lp(G[-1], G, h, lower)          # min -t
    if not sol.optimal:
        return None, -_INF
    return sol.x[:n], float(sol.x[n])


def maximize_min_slack(X: RobustFeasibleSet, target: float = 0.0,
                       satisfied: RobustFeasibleSet | None = None) -> SlackSearch:
    """Maximize min_j slack_j(x) over the rows of the reduced set X, linear
    and concave, over the x in R^n that satisfy every row of the set
    `satisfied` (slack >= 0).

    One LP in (x, t) maximizes t <= max(1, target) subject to
    slack_j(x) >= t, each dual norm written with auxiliary columns
    (Ben-Tal, El Ghaoui & Nemirovski, Robust Optimization, 2009).  With
    linear, s = 1 and s = inf rows only, the LP is exact and its value is
    the supremum (or the cap).  The 2-norm of an s = 2 row lies between the
    inf-norm and the 1-norm: the LP with the 1-norm is a restriction whose
    point is a witness, and the LP with the inf-norm plus Kelley's tangent
    cuts yhat.P^T x <= ||P^T x||_2 at each round's point is a relaxation
    whose value bounds the supremum.  The cut rounds stop when a point
    reaches the target, when the bound falls below it, or after CUT_ROUNDS.
    With no point satisfying `satisfied` the value and bound are -inf.
    """
    cap = max(1.0, target)

    def phi(pt):
        return min([*X.slack(pt), *(r.slack(pt) for r in X.concave)], default=cap)

    x, bound = _slack_lp(X, satisfied, cap, 1, ())
    if x is None:
        return SlackSearch(None, -_INF, -_INF)
    best_x, best_v = x, phi(x)
    round_rows = [r for r in X.concave if r.s == 2]
    if not round_rows:
        return SlackSearch(best_x, best_v, bound)
    bound, cuts = _INF, []
    for _ in range(CUT_ROUNDS):
        if best_v >= target:
            break
        cuts += [(r.supergradient(x), r.b) for r in round_rows]
        x, bound = _slack_lp(X, satisfied, cap, _INF, cuts)
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


def ball_robust_feasible(nominal, alpha: float,
                         boundary_tol: float = 1e-6) -> BallFeasibility:
    """Probe feasibility when every row's (a, b) may move in an alpha-ball.

    The sign decision near the boundary is delegated to the radius value;
    strictly inside, the witness comes in closed form from the radius's
    nearest point and is checked to have worst-case slack >= -1e-8.
    Exactly at the radius (within boundary_tol) the answer is inconclusive
    because attainment of the supremum is not guaranteed.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    rows = _as_rows(nominal)
    if alpha == 0.0:
        nom = is_feasible(rows)
        if not nom.feasible:
            raise NominalInfeasibleError("nominal system is infeasible")
        return BallFeasibility("feasible", nom.x, None)
    rr = radius_of_robust_feasibility(rows)   # raises on infeasible nominal
    if alpha > rr.rho + boundary_tol:
        return BallFeasibility("infeasible", None, rr.rho)
    if abs(alpha - rr.rho) <= boundary_tol:
        return BallFeasibility("inconclusive", None, rr.rho)
    # Witness from p* = (a*, b*): its VI gives a_j.a* + b_j b* >= rho^2 for
    # every row, and b* <= 0.  For b* < 0, x = a*/|b*| has
    # sqrt(x.x + 1) = rho/|b*|, so every worst-case slack is at least
    # rho(rho - alpha)/|b*|.  For b* = 0, x = t a* with
    # sqrt(t^2 rho^2 + 1) <= t rho + 1 has slack_j >= t rho(rho - alpha)
    # - b_j - alpha, which t below makes nonnegative.
    a_star, b_star = rr.p_star[:-1], float(rr.p_star[-1])
    if b_star < 0:
        x = a_star / -b_star
    else:
        t = max(0.0, (max(b for _, b in rows) + alpha) / (rr.rho * (rr.rho - alpha)))
        x = t * a_star
    worst = min(BallRow(a, b, j, alpha).slack(x) for j, (a, b) in enumerate(rows))
    if worst < -1e-8:  # pragma: no cover - the closed form guarantees >= 0
        return BallFeasibility("inconclusive", None, rr.rho)
    return BallFeasibility("feasible", x, rr.rho)
