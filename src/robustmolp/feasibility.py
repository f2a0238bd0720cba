"""Robust feasibility analysis.

Finite-system feasibility checks, conic membership of the marker vector
(0,...,0,1) that characterizes inconsistency, the hypographical set of a
nominal system, the radius of robust feasibility under joint coefficient
ball perturbations, and feasibility probing at a given perturbation size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BallRow, LinearRow
from .numerics import LinearProgram, MinNormResult, min_norm_point, solve_lp

_INF = float("inf")

ASCENT_ITERS = 5000     # subgradient steps before the cutting planes
CUT_ROUNDS = 40         # cutting-plane LPs per box size


class NominalInfeasibleError(Exception):
    """The unperturbed constraint system already has no solution."""


class NonCertifiedError(Exception):
    """Minimum-norm point failed its variational-inequality check."""


def _as_rows(rows):
    out = []
    for r in rows:
        if isinstance(r, LinearRow):
            out.append((r.a, r.b))
        else:
            a, b = r
            out.append((np.asarray(a, float), float(b)))
    return out


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
    n = rows[0][0].size
    lp = LinearProgram.build(
        np.zeros(n),
        [(a, b, ">=") for a, b in rows],
        np.full(n, -_INF))
    sol = solve_lp(lp)
    if sol.optimal:
        return FeasibilityResult(True, sol.x)
    return FeasibilityResult(False)


@dataclass(frozen=True)
class ConeMembership:
    contains: bool
    weights: np.ndarray | None = None


def cone_contains(generators, target, tol: float = 1e-9) -> ConeMembership:
    """Exact membership of target in cone(generators).

    Finitely generated cones are closed, so this is a single feasibility
    LP in the nonnegative combination weights.
    """
    gens = [np.asarray(g, float) for g in generators]
    if not gens:
        raise ValueError("generators must be nonempty")
    t = np.asarray(target, float)
    k = t.size
    G = np.column_stack(gens)
    lp = LinearProgram.build(
        np.zeros(len(gens)),
        [(G[i], float(t[i]), "==") for i in range(k)],
        np.zeros(len(gens)))
    sol = solve_lp(lp)
    if not sol.optimal:
        return ConeMembership(False)
    w = np.maximum(sol.x, 0.0)
    if np.linalg.norm(G @ w - t) > tol * max(1.0, np.linalg.norm(t)):
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
# Concave min-slack maximization (shared with the Slater check)
# ---------------------------------------------------------------------------

def _row_supergradient(row, x):
    if isinstance(row, LinearRow):
        return row.a
    return row.supergradient(x)


@dataclass(frozen=True)
class SlackSearch:
    x: np.ndarray
    value: float          # best achieved min-slack
    upper_bound: float    # certified bound on the achievable min-slack
    bound_valid: bool     # upper bound free of box-truncation effects


def maximize_min_slack(rows, n, target: float = 0.0) -> SlackSearch:
    """Maximize min_j slack_j(x) over R^n for concave row slacks.

    Subgradient ascent with diminishing 1/sqrt(k) steps from the origin,
    then cutting-plane refinement (each round solves an LP over tangent
    over-estimators inside a box) until the target slack is achieved or
    the model bound certifies it cannot be.
    """
    rows = list(rows)
    x = np.zeros(n)

    def phi(pt):
        return min(r.slack(pt) for r in rows)

    vals = [r.slack(x) for r in rows]
    best_x, best_v = x.copy(), min(vals)
    for k in range(1, ASCENT_ITERS + 1):
        i = int(np.argmin(vals))
        g = _row_supergradient(rows[i], x)
        ng = np.linalg.norm(g)
        if ng < 1e-14:
            break
        x = x + (1.0 / math.sqrt(k)) * g / ng
        vals = [r.slack(x) for r in rows]
        v = min(vals)
        if v > best_v:
            best_x, best_v = x.copy(), v
        if best_v >= target and k >= 32:
            break
    if best_v >= target:
        return SlackSearch(best_x, best_v, _INF, False)

    # Cutting planes: concave slacks lie below their tangents, so the LP
    # value is a valid upper bound as long as the box is not binding.
    R = max(10.0, 4.0 * float(np.abs(best_x).max()) + 10.0)
    for _ in range(3):
        cuts = []
        for r in rows:
            if isinstance(r, LinearRow):
                cuts.append((r.a, -r.b))
        anchors = [best_x, np.zeros(n)]
        ub = _INF
        box_hit = False
        for _round in range(CUT_ROUNDS):
            for pt in anchors:
                for r in rows:
                    if not isinstance(r, LinearRow):
                        g = r.supergradient(pt)
                        c0 = r.slack(pt) - float(g @ pt)
                        cuts.append((g, c0))
            anchors = []
            lp_rows = [(np.concatenate([g, [-1.0]]), -c0, ">=")
                       for g, c0 in cuts]
            for i in range(n):
                e = np.zeros(n + 1)
                e[i] = 1.0
                lp_rows.append((e, -R, ">="))
                lp_rows.append((-e, -R, ">="))
            obj = np.zeros(n + 1)
            obj[-1] = -1.0
            sol = solve_lp(LinearProgram.build(obj, lp_rows,
                                               np.full(n + 1, -_INF)))
            if not sol.optimal:
                break
            xk = sol.x[:n]
            ub = float(sol.x[n])
            box_hit = bool(np.abs(xk).max() >= R - 1e-6)
            vk = phi(xk)
            if vk > best_v:
                best_x, best_v = xk.copy(), vk
            if best_v >= target:
                return SlackSearch(best_x, best_v, ub, not box_hit)
            if ub < target and not box_hit:
                return SlackSearch(best_x, best_v, ub, True)
            if ub - best_v <= 1e-12:
                break
            anchors = [xk]
        if not box_hit:
            break
        R *= 10.0
    return SlackSearch(best_x, best_v, ub, not box_hit)


@dataclass(frozen=True)
class BallFeasibility:
    status: str           # "feasible" | "infeasible" | "inconclusive"
    x: np.ndarray | None = None
    rho: float | None = None


def ball_robust_feasible(nominal, alpha: float,
                         boundary_tol: float = 1e-6) -> BallFeasibility:
    """Probe feasibility when every row's (a, b) may move in an alpha-ball.

    The sign decision near the boundary is delegated to the radius value;
    strictly inside, a witness with worst-case slack >= -1e-8 is produced.
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
    n = rows[0][0].size
    worst = [BallRow(a, b, j, alpha) for j, (a, b) in enumerate(rows)]
    search = maximize_min_slack(worst, n, target=0.0)
    if search.value < -1e-8:  # pragma: no cover - radius guarantees a witness
        return BallFeasibility("inconclusive", None, rr.rho)
    return BallFeasibility("feasible", search.x, rr.rho)
