"""Robust feasibility analysis.

Finite-system feasibility checks, conic membership of the marker vector
e = (0,...,0,1) that characterizes inconsistency, the radius of robust
feasibility under joint coefficient ball perturbations, feasibility
probing at a given perturbation size, and the refined Slater search.
Nominal feasibility and the refined Slater point are one nearest-point
search with generated columns, whose "none" counts only when a Farkas
certificate replays; cone membership and the radius are each one
minimum-norm point.  Each public call on a nominal system turns its rows
(a_j, b_j) into one array [A | b] once, which is also where an empty or
non-finite system is rejected; its rows are the points of the
hypographical set.  A radius rho > 0 proves the nominal system feasible
by a closed-form point, so the search runs only when rho = 0 or that
point fails its check.  A probe is one radius pass whose rho/2 point it
reuses, and each of its answers is evidence that it checks itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import RobustFeasibleSet
from .numerics import VI_TOL, NumericalBreakdown, min_norm_point, unit_rows

_INF = float("inf")
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

CUT_ROUNDS = 40         # minimum-norm solves of the nearest-point search


class NominalInfeasibleError(Exception):
    """The unperturbed constraint system already has no solution."""


class NonCertifiedError(Exception):
    """Minimum-norm point failed its variational-inequality check."""


class UnsupportedClassError(Exception):
    """radius or feasible met a constraint that is not a singleton: both
    need the nominal system of an all-singleton problem."""


def _system(nominal):
    """The nominal rows (a_j, b_j) as one p x (n+1) array [A | b]; raises
    ValueError when there is no row or an entry is not finite."""
    S = np.array([[*np.asarray(a, float).tolist(), b] for a, b in nominal], float)
    if not len(S):
        raise ValueError("nominal system must be nonempty")
    if not np.isfinite(S).all():
        raise ValueError("nominal system must be finite")
    return S


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None = None


def is_feasible(rows) -> FeasibilityResult:
    """Decide {a.x >= b} over free variables, with a witness when feasible:
    _search with no 2-norm row, whose "rounds" raises NumericalBreakdown."""
    x = _nominal_point(_system(rows))
    return FeasibilityResult(x is not None, x)


def _nominal_point(S):
    """is_feasible's witness for the rows of S = [A | b], None if there is none."""
    if (search := _search(unit_rows(S[:, :-1], S[:, -1]))).stop == "rounds":
        raise NumericalBreakdown("no point of the marker projection meets every row")
    return search.x


def _meets(U, x):
    """Whether x is finite and meets each unit row [a | b] of U to -VI_TOL max(1, |a|.|x|)."""
    return bool(np.isfinite(x).all() and (U[:, :-1] @ x - U[:, -1] >= -VI_TOL * np.maximum(
        1.0, np.abs(U[:, :-1]) @ np.abs(x))).all())


def _farkas(U, y, strict=0):
    """Whether y replays as a Farkas certificate of the rows U = [A | b],
    the first `strict` of them asked for slack > 0: y >= 0,
    |A^T y| <= VI_TOL |A|^T y up to the rounding of the largest entry of
    |A|^T y, and b.y > 0 or, with weight on a strict row, b.y not below
    its rounding."""
    A, b, w = U[:, :-1], U[:, -1], np.abs(U[:, :-1]).T @ y
    return bool((y >= 0).all()
                and (b @ y > 0 or y[:strict].any() and b @ y >= -len(y) * _EPS * np.abs(b) @ y)
                and (np.abs(A.T @ y) <= VI_TOL * w + _EPS * w.max(initial=0.0)).all())


@dataclass(frozen=True)
class ConeMembership:
    contains: bool
    weights: np.ndarray | None = None


def cone_contains(generators, target) -> ConeMembership:
    """Membership of target in cone(generators).

    Finitely generated cones are closed, so target is a member exactly
    when -target + cone(generators) comes within VI_TOL * max|target| of 0
    (one minimum-norm point, whose ray coefficients are the weights) and
    G^T w rebuilds target to VI_TOL (|G|^T w + |target|) entrywise, up to
    rounding: a small distance may sit on generators far apart in scale.
    Raises ValueError when there is no generator or an entry is not finite.
    """
    gens = np.array([np.asarray(g, float) for g in generators])
    if not len(gens):
        raise ValueError("generators must be nonempty")
    t = np.asarray(target, float)
    if not (np.isfinite(gens).all() and np.isfinite(t).all()):
        raise ValueError("generators and target must be finite")
    res = min_norm_point([-t], gens)
    w = np.abs(gens).T @ res.mu + np.abs(t)
    if (res.distance > VI_TOL * float(np.abs(t).max(initial=0.0))
            or not (np.abs(gens.T @ res.mu - t) <= VI_TOL * w + _EPS * w.max()).all()):
        return ConeMembership(False)
    return ConeMembership(True, res.mu)


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
    ball probe: its RadiusResult; the array [A | b]; the rho/2 probe's
    (x, min_j a_j.x - b_j), (None, -inf) unless rho > 0; and is_feasible's
    point, None unless that x fails its check.  Raises NominalInfeasibleError.
    """
    S = _system(nominal)
    k = S.shape[1]
    res = min_norm_point(S, -np.eye(1, k, k - 1))           # the ray (0, ..., 0, -1)
    half, nominal_x = (None, -_INF), None
    if res.distance > 0:
        half = _ball_witness(S, res.p_star, res.distance, res.distance / 2)
    if not half[1] >= 0 and (nominal_x := _nominal_point(S)) is None:
        raise NominalInfeasibleError("nominal system is infeasible")
    rr = RadiusResult(res.distance, res.p_star, res.weights, float(res.mu[0]), res.certified)
    return rr, S, half, nominal_x


def radius_of_robust_feasibility(nominal) -> RadiusResult:
    """Largest coefficient-ball radius keeping the system feasible.

    Equals the distance from the origin to the hypographical set of the
    nominal rows, one minimum-norm point.  A rho > 0 proves the nominal
    system feasible when the rho/2-ball probe's point (slacks >= rho/2)
    passes a float check; else is_feasible decides, then NonCertifiedError.
    """
    rr = _radius(nominal)[0]
    if not rr.certified:
        raise NonCertifiedError("minimum-norm solve did not certify optimality")
    return rr


# ---------------------------------------------------------------------------
# The nearest-point search: nominal feasibility and the refined Slater point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlackSearch:
    x: np.ndarray | None  # a point of positive 2-norm slack, None if not found
    value: float          # least 2-norm slack at x, 1 with none; -inf without x
    distance: float       # of the last nearest point, on the rows of _search
    rounds: int           # minimum-norm solves
    stop: str             # "found" | "none" | "rounds"


def _search(U, concave=()):
    """A point that meets the unit rows U = [A | b] (_meets) with slack > 0
    on every 2-norm ConcaveRow of concave, or a replayed proof that there
    is none (Motzkin's transposition theorem in conic form).

    Each round is the minimum-norm point q of conv(-e, generated rows) +
    cone(rows of U), with b divided by s = max(1, max_j b_j).  Its
    candidates are x = -s q[:n]/q[n], then x moved by least squares onto
    the rows with a positive coefficient or that x misses.  Failing both,
    each 2-norm row's worst realization at x, divided by the row's largest
    |entry|, enters as a point if [h | b/s].q >= ||q||^2 fails by VI_TOL
    ||q|| (Wolfe's nearest point with generated columns), up to CUT_ROUNDS
    solves.  "none" only when a certificate replays: the weights of a q
    within VI_TOL of 0 (_farkas, the generated rows strict), or least
    squares on the unit-length rows that the last point meets with
    equality or misses; else "rounds".
    """
    A, b, k = U[:, :-1], U[:, -1], U.shape[1]
    s = float(b.max(initial=1.0))
    D = np.append(np.ones(k - 1), s)
    scale = [max(*np.abs(r.a_bar), abs(r.b), np.abs(r.P).max()) or 1.0 for r in concave]
    G = np.empty((0, k))                    # generated rows, each divided by its scale
    rays = U / D
    for rounds in range(1, CUT_ROUNDS + 1):
        res = min_norm_point(np.vstack([-np.eye(1, k, k - 1), G / D]), rays)
        q = res.p_star
        w = np.concatenate([res.weights[1:], res.mu])       # on the rows of [G; U]
        if res.distance <= VI_TOL and _farkas(np.vstack([G, U]), w, len(G)):
            return SlackSearch(None, -_INF, res.distance, rounds, "none")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = s * (q[:-1] / -q[-1])
            T = (res.mu > 0) | (A @ x <= b)
            for y in (x, x + np.linalg.lstsq(A[T], b[T] - A[T] @ x, rcond=None)[0]):
                if _meets(U, y) and (least := min((r.slack(y) for r in concave),
                                                  default=1.0)) > 0:
                    return SlackSearch(y, least, res.distance, rounds, "found")
            cuts = [h for h in (r.supergradient(x) / c for r, c in zip(concave, scale))
                    if (h / D) @ q - q @ q < -VI_TOL * res.distance]
        if not cuts:
            break
        G = np.vstack([G, cuts])
    with np.errstate(over="ignore", invalid="ignore"):
        T |= A @ y <= b
        V = U[T] / np.maximum(np.hypot.reduce(U[T], axis=1), _TINY)[:, None]
        none = _farkas(V, np.linalg.lstsq(V.T, np.eye(k)[-1], rcond=None)[0])
    return SlackSearch(None, -_INF, res.distance, rounds, "none" if none else "rounds")


def maximize_min_slack(X: RobustFeasibleSet) -> SlackSearch:
    """The refined Slater search: a point of the reduced set X with
    worst-case slack > 0 on every 2-norm (s = 2) row and >= 0 on the others,
    or a replayed proof that there is none; _search on the rows of X's lift."""
    XL = X.lift(np.zeros(X.n))[0]
    search = _search(unit_rows(XL.A, XL.b), XL.concave)
    return search if search.x is None else replace(search, x=search.x[:X.n])


@dataclass(frozen=True)
class BallFeasibility:
    status: str           # "feasible" | "infeasible" | "inconclusive"
    x: np.ndarray | None = None
    rho: float | None = None


def _refutes(S, rr, alpha):
    """Whether the radius's output refutes the alpha-ball probe of S = [A | b]:
    rows moved by -(a*, beta), beta = -sqrt(alpha^2 - |a*|^2) (norm alpha),
    that the weights w >= 0 combine into 0.x >= b.w - beta > 0, up to A^T w
    rebuilding a* within VI_TOL of |A|^T w + |a*|.  b.w - beta > 0 is alpha >
    hypot(a*, max(-b.w, 0)), with b.w lowered by its rounding; the moved
    rows, which overflow near 1e300, are never formed; a NaN refutes nothing.
    """
    A, b, a, w = S[:, :-1], S[:, -1], rr.p_star[:-1], rr.weights
    with np.errstate(over="ignore", invalid="ignore"):
        rebuilt = (np.abs(A.T @ w - a) <= VI_TOL * (np.abs(A).T @ w + np.abs(a))).all()
        bw = float(b @ w) - len(S) * _EPS * float(np.abs(b) @ w)
    return bool((w >= 0).all() and rebuilt and alpha > math.hypot(*a, max(-bw, 0.0)))


def ball_robust_feasible(nominal, alpha: float) -> BallFeasibility:
    """Probe feasibility when every row's (a, b) may move in an alpha-ball.

    Each answer replays the radius's output and checks itself, whatever the
    float rho reads.  Feasible: alpha < rho and the closed-form point (for
    b* < 0 the radius's rho/2 point, reused) has worst-case slack >= 0 in
    floats.  Infeasible: _refutes holds.  Otherwise, as at alpha = rho,
    inconclusive.  At alpha = 0 the rho/2 point is the witness when its
    slacks are >= 0, else is_feasible's.  rho is None unless the
    minimum-norm solve is certified; NonCertifiedError is never raised.
    """
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    rr, S, (x, slack), nominal_x = _radius(nominal)   # raises on infeasible nominal
    if alpha == 0.0:
        return BallFeasibility("feasible", x if nominal_x is None else nominal_x, None)
    rho = rr.rho if rr.certified else None
    if alpha < rr.rho and not rr.p_star[-1] < 0:
        x, slack = _ball_witness(S, rr.p_star, rr.rho, alpha)
    if alpha < rr.rho and x is not None and slack - alpha * math.hypot(*x, 1.0) >= 0:
        return BallFeasibility("feasible", x, rho)
    return BallFeasibility("infeasible" if _refutes(S, rr, alpha) else "inconclusive", None, rho)
