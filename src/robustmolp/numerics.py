"""Self-contained dense numerical kernel.

Provides the primitives everything else is built on: a one-phase simplex
LP solver started at a given feasible point, Euclidean projection onto the
unit simplex, the minimum-norm point of a polytope-plus-cone set
conv(points) + cone(rays), and a block-structured second-order-cone
feasibility solver.  The minimum-norm
point decides every feasibility question at distance 0: the radius is its
distance with the single ray (0, ..., 0, -1); nominal rows are infeasible
when (0, ..., 0, 1) is in their cone; an endpoint multiplier system is
feasible when 0 is in conv(objective rows) + cone(active generators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_INF = float("inf")
_TINY = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)

RCOND_TOL = 1e-12       # least over largest singular value of a singular matrix
VI_TOL = 1e-8           # minimum-norm variational inequality, on scaled data
CONE_TOL = 1e-7         # row-scaled equality residual of a feasible cone point
CONE_MAX_ITER = 30_000  # projected-gradient iterations per cone system


class NumericalBreakdown(Exception):
    """Simplex pivot budget exhausted (degenerate cycling in floats), or a
    quantity the method needs overflows the float range."""


class SingularMatrixError(Exception):
    """Matrix numerically singular (singular value ratio below RCOND_TOL)."""


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

MAX_PIVOTS = 100_000    # Bland pivots per LP


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "unbounded"
    x: np.ndarray | None = None
    pivots: int = 0                       # Bland pivots

    @property
    def optimal(self):
        return self.status == "optimal"


_PIV_EPS = 1e-9         # least pivot entry: pivots near 1e-10 let a tableau drift
_RC_EPS = 1e-9


def unit_rows(G, h):
    """[G | h], each row of G x >= h divided by its largest |coefficient| (a
    zero row kept), less the rows this gives a right-hand side of -inf, which
    every finite x meets; other non-finite data raises NumericalBreakdown."""
    mx = np.abs(G).max(axis=1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # dividing keeps subnormal rows in range, where the reciprocal overflows
        U = np.column_stack([G, h]) / np.where(mx > 0, mx, 1.0)[:, None]
    U = U[U[:, -1] != -_INF]
    if not np.isfinite(U).all():
        raise NumericalBreakdown(
            "unit_rows: a row divided by its largest |coefficient| is not finite")
    return U


def solve_lp(c, G, h, x0) -> LpSolution:
    """min c.x  subject to  G x >= h over free x, from a point x0 that
    meets every row: the oracle's scenario LP; feasibility and the Slater
    search are minimum-norm points (feasibility.is_feasible,
    maximize_min_slack).

    One phase of dense simplex with Bland's anti-cycling rule on
    unit_rows, in x = x0 + d with d = d+ - d-: x0 makes the slack basis
    feasible, so no phase finds a start.  A row that x0 misses by
    rounding is taken as met (its right-hand side in d is clamped to 0),
    so the status is never "infeasible"; a caller checks x0 against its
    own tolerance first.  "unbounded" is exact up to _PIV_EPS.  More than
    MAX_PIVOTS pivots raise NumericalBreakdown, and so does data or an
    optimal point that is not finite.

    The tableau is stored transposed, one array row per column (d+_j and
    d-_j side by side, then the slacks), so that a pivot is a single
    rank-1 update of the columns where the pivot row is nonzero.  Its last
    column holds the reduced costs and its last row the right-hand side.
    A basic column is an exact unit vector with a zero reduced cost (a
    pivot never touches it), so Bland's scan for the entering column
    needs no test of basis membership.
    """
    c = np.asarray(c, float)
    x0 = np.asarray(x0, float)
    n = c.size
    U = unit_rows(np.asarray(G, float), h)
    m = len(U)
    A = U[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):
        r = U[:, -1] - A @ x0
    if not np.isfinite(r).all():
        raise NumericalBreakdown("solve_lp: a row's slack at the start is not finite")

    # the rows A d - s = r, s >= 0, negated: the slacks form the basis, and
    # the right-hand side -r is >= 0 once a miss by rounding is clamped
    N = 2 * n + m
    T = np.zeros((N + 1, m + 1))
    T[0:2 * n:2, :m] = -A.T
    T[1:2 * n:2, :m] = A.T
    np.fill_diagonal(T[2 * n:N], 1.0)
    T[0:2 * n:2, m] = c
    T[1:2 * n:2, m] = -c
    T[-1, :m] = -np.minimum(r, 0.0)
    basis = list(range(2 * n, N))
    pivots = 0
    while True:
        cand = (T[:N, -1] < -_RC_EPS).nonzero()[0]
        if not cand.size:
            break
        enter = int(cand[0])
        col = T[enter, :-1]
        elig = (col > _PIV_EPS).nonzero()[0]
        if not elig.size:
            return LpSolution("unbounded", pivots=pivots)
        best, leave = _INF, -1
        ratios = T[-1].take(elig) / col.take(elig)
        for i, ratio in zip(elig.tolist(), ratios.tolist()):
            if (leave < 0 or ratio < best - 1e-12 or
                    (abs(ratio - best) <= 1e-12 and basis[i] < basis[leave])):
                best, leave = ratio, i
        nz = T[:, leave].nonzero()[0]
        block = T.take(nz, axis=0)
        prow = block[:, leave] / T[enter, leave]
        # the update also reaches row leave (column leave of block); reset it
        block -= np.multiply.outer(prow, T[enter])
        block[:, leave] = prow
        T[nz] = block
        basis[leave] = enter
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalBreakdown(f"pivot budget {MAX_PIVOTS} exhausted")
    d_std = np.zeros(N)
    d_std[basis] = T[-1, :-1]
    with np.errstate(over="ignore"):
        x = x0 + (d_std[0:2 * n:2] - d_std[1:2 * n:2])
    if not np.isfinite(x).all():
        raise NumericalBreakdown("the optimal point is not finite")
    return LpSolution("optimal", x, pivots)


# ---------------------------------------------------------------------------
# Simplex projection and norms
# ---------------------------------------------------------------------------

def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1}, sorted in Python floats
    (exact); IndexError if no entry clears its threshold and one is NaN or
    infinite."""
    y = np.asarray(y, float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("expected a nonempty vector")
    css, theta = 0.0, None          # np.cumsum's running sum, term by term
    for i, ui in enumerate(sorted(y.tolist(), reverse=True), 1):
        css += ui
        if ui - (css - 1.0) / i > 0:
            theta = (css - 1.0) / i
    if theta is None and np.isfinite(y).all():
        # past 2^53, u - (css - 1)/i can round to 0 at every entry; the
        # projection is translation-invariant, and the top entry clears once
        # it is 0 (in Python floats an entry pushed past the range is -inf)
        top = float(y.max())
        return project_simplex([u - top for u in y.tolist()])
    if theta is None or css != css:     # np.sort puts a NaN first: then none clears
        raise IndexError("no entry clears its simplex threshold")
    return np.maximum(y - theta, 0.0)


def norm_value(x: np.ndarray, s) -> float:
    x = np.asarray(x, float)
    if x.size == 0:
        return 0.0
    if s == 1:
        return float(np.abs(x).sum())
    if s == 2:
        return float(np.linalg.norm(x))
    if s == _INF or s == math.inf:
        return float(np.abs(x).max())
    raise ValueError(f"norm index {s!r} not in {{1, 2, inf}}")


def slack_value(a, x, b) -> float:
    """a.x - b, never NaN: an overflow gives the correctly signed infinity.

    The float dot product is kept when it is finite, since an overflow
    never turns finite again.  Otherwise the sum is redone in exact
    rationals, where products of 1e300 entries cancel exactly; scaling by
    a power of two alone would flush the small products of such a sum.
    """
    v = float(np.vdot(a, x)) - b
    if math.isfinite(v):
        return v
    exact = sum(Fraction(p) * Fraction(q) for p, q in
                zip(np.ravel(a).tolist(), np.ravel(x).tolist())) - Fraction(b)
    try:
        return float(exact)
    except OverflowError:
        return _INF if exact > 0 else -_INF


def require_nonsingular(Z: np.ndarray) -> np.ndarray:
    """Z as a float array; raises SingularMatrixError when its least
    singular value is at most RCOND_TOL times its largest."""
    Z = np.asarray(Z, float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("expected a square matrix")
    sv = np.linalg.svd(Z, compute_uv=False)
    if sv[0] == _INF:           # scaled, so that no singular value overflows
        sv = np.linalg.svd(Z / np.abs(Z).max(), compute_uv=False)
    if sv[-1] <= RCOND_TOL * sv[0]:
        raise SingularMatrixError("matrix is numerically singular")
    return Z



# ---------------------------------------------------------------------------
# Minimum-norm point over conv(points) + cone(rays)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinNormResult:
    p_star: np.ndarray
    weights: np.ndarray   # simplex weights over the input points
    mu: np.ndarray        # nonnegative coefficient per ray
    certified: bool       # variational inequality verified
    iterations: int       # passive-set least-squares solves
    distance: float       # ||p_star||, free of overflow and underflow


def _vi_margin(M, q, p):
    """Worst violation of <h - q, q> >= 0 over the p points (the first p
    columns of M) and of <r, q> >= 0 over the rays (the others)."""
    hq = q @ M
    hq[:p] -= q @ q
    return float(hq.min())


_CANCELLED = 1e-6       # pivot share of G_jj below which it is recomputed


def _nnls(E, f):
    """Lawson-Hanson active-set solve of min ||E u - f|| over u >= 0, on
    the cross products G = E^T E and h = E^T f (Bro & De Jong's FNNLS).

    Each outer step frees the bound column with the largest positive
    gradient entry h - G u; the inner loop solves G_FF z = h_F on the free
    set F and steps back to the boundary while a free coefficient would
    turn nonpositive.  The least-squares value strictly decreases between
    outer steps, so no free set repeats and the loop is finite; a step
    that fails to decrease it (a gradient entry at rounding level) ends the
    solve at the last iterate that did, with its free set and factor.  G_FF
    is held as a Cholesky factor L in Python floats, and L^-1 h_F beside it:
    both are extended when a column enters and rebuilt after a step back,
    so each inner solve is one back-substitution.  A pivot G_jj - y.y that
    cancels below _CANCELLED * G_jj is recomputed from the part of column j
    off the free columns, so that a near-dependent column keeps an accurate
    pivot.
    A column whose pivot is not positive to working precision lies in the
    span of the free columns, where its gradient entry can only be
    rounding: it does not enter, and the solve ends.  One corrected
    semi-normal step, G_FF d = E_F^T (f - E u), refines the final u, an
    entry it would make negative set to 0.
    Returns (u, number of active-set least-squares solves).
    """
    n = E.shape[1]
    tol = 10.0 * _EPS * sum(E.shape)
    G, h = E.T @ E, E.T @ f
    Gl, hl = G.tolist(), h.tolist()
    u, grad, resid = [0.0] * n, hl, f
    free, L, yh = [], [], []   # free columns in order, rows of the factor of G_FF, L^-1 h_F
    value, solves = float(f @ f), 0
    accepted = (u[:], [], [], [], resid)  # the last iterate that lowered the value

    def enter(j):
        """Extend the factor by column j; False if its pivot is not positive."""
        y = _forward(L, [Gl[j][i] for i in free])
        pivot = Gl[j][j] - _dot(y, y)
        if pivot < _CANCELLED * Gl[j][j]:
            # G_jj - y.y lost most of its digits: take the pivot from the
            # part of column j off the free columns, E_j - E_F G_FF^-1 G_Fj
            v = E[:, j] - E[:, free] @ np.array(_backward(L, y))
            pivot = float(v @ v)
        if not pivot > tol * tol * Gl[j][j]:
            return False
        L.append(y + [math.sqrt(pivot)])
        yh.append((hl[j] - _dot(y, yh)) / L[-1][-1])    # _forward(L, h_F)'s last row
        free.append(j)
        return True

    while True:
        j = None               # the first bound column of largest gradient
        for i in range(n):
            if i not in free and (j is None or grad[i] > grad[j]):
                j = i
        if j is None or grad[j] <= tol or not enter(j):
            break
        while True:
            solves += 1
            z = _backward(L, yh)
            if all(zi > 0.0 for zi in z):
                for i, zi in zip(free, z):
                    u[i] = zi
                break
            # u >= 0 >= z on the blocked set; both zero means ratio 0
            step, i = min((u[i] / max(u[i] - zi, _TINY), i)
                          for i, zi in zip(free, z) if zi <= 0.0)
            for k, zk in zip(free, z):
                u[k] += step * (zk - u[k])
            u[i] = 0.0
            kept = free[:]
            del free[:], L[:], yh[:]
            for k in kept:
                if not (u[k] > 0.0 and enter(k)):
                    u[k] = 0.0
        ua = np.array(u)
        new_resid = f - E @ ua
        new_value = float(new_resid @ new_resid)
        if not new_value < value:
            u, free, L, yh, resid = accepted
            break
        value, grad, resid = new_value, (h - G @ ua).tolist(), new_resid
        accepted = (u[:], free[:], L[:], yh[:], resid)
    if free:
        # one corrected semi-normal step: G_FF d = E_F^T (f - E u)
        g = (E.T @ resid).tolist()
        d = _backward(L, _forward(L, [g[i] for i in free]))
        for i, di in zip(free, d):
            u[i] = max(u[i] + di, 0.0)
    return np.array(u), solves


def _dot(a, b):
    """sum(a_i b_i) added left to right: from Python 3.12 on, sum() of
    floats is compensated and rounds differently."""
    s = 0.0
    for ai, bi in zip(a, b):
        s += ai * bi
    return s


def _forward(L, b):
    """y with L y = b, for L given by the rows of a lower triangle."""
    y = []
    for row, bi in zip(L, b):
        y.append((bi - _dot(row, y)) / row[-1])
    return y


def _backward(L, y):
    """z with L^T z = y, for L given by the rows of a lower triangle."""
    z = y[:]
    for r in range(len(z) - 1, -1, -1):
        s = 0
        for c in range(r + 1, len(z)):
            s += L[c][r] * z[c]
        z[r] = (z[r] - s) / L[r][r]
    return z


def min_norm_point(points, rays) -> MinNormResult:
    """Minimize ||q||^2 over q in conv(points) + cone(rays), the points
    given as the rows of a p x k array or as a sequence of p k-vectors, and
    the rays likewise as the rows of an r x k array (r = 0 for none; one
    k-vector is one ray).

    One nonnegative least-squares solve (Lawson & Hanson) of
    E u ~ e_{k+1} with E = [[P, R], [1^T, 0]]: at its optimum u_P sums to
    t = 1/(1 + d^2), where d is the distance sought, and dividing by t
    gives the simplex weights and the ray coefficients.  A target inside
    the set (d = 0) needs no special case.  The points are divided by their
    largest |entry| and each ray by its length first (a zero ray stays
    zero), which leaves the weights unchanged; dividing keeps subnormal
    data in range where multiplying by the reciprocal would overflow.
    Optimality is certified independently through the variational
    inequality on the columns of that scaled E, with VI_TOL.
    """
    pts = np.asarray(points, float)
    if not pts.size:
        raise ValueError("points must be nonempty")
    p, k = pts.shape
    R = np.asarray(rays, float).reshape(-1, k)
    lens = np.hypot.reduce(R, axis=1)
    lens[lens == 0.0] = 1.0                 # a zero ray stays zero
    big = float(np.abs(pts).max()) or 1.0
    E = np.zeros((k + 1, p + len(R)))
    np.divide(pts.T, big, out=E[:k, :p])
    np.divide(R.T, lens, out=E[:k, p:])
    E[k, :p] = 1.0
    f = np.zeros(k + 1)
    f[k] = 1.0
    u, solves = _nnls(E, f)
    t = u[:p].sum()
    # the nearest point of the scaled set, then of the given one
    qs = E[:k] @ u / t
    cert = _vi_margin(E[:k], qs, p) >= -VI_TOL
    q = qs * big
    return MinNormResult(q, u[:p] / t, u[p:] / lens * (big / t), cert, solves,
                         math.hypot(*q.tolist()))


# ---------------------------------------------------------------------------
# Cone-constrained linear feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeResult:
    feasible: bool
    exact: bool               # always False: the verdict is up to CONE_TOL
    residual: float           # row-scaled equality residual (2-norm)
    x: np.ndarray
    iterations: int           # projected-gradient iterations
    stop_reason: str          # "converged" | "farkas" | "stalled" | "budget"


def _project_blocks(x, blocks, offsets):
    """Project x, a fresh array, onto the blocks in place and return it."""
    for o, (kind, dim) in zip(offsets, blocks):
        seg = x[o:o + dim]
        if kind == "nonneg":
            np.maximum(seg, 0.0, out=seg)
        elif kind == "simplex":
            seg[:] = project_simplex(seg)
        elif kind == "soc":
            y, t = seg[:-1], float(seg[-1])
            ny = math.sqrt(y @ y)
            if ny <= t:
                continue
            if ny <= -t:
                seg[:] = 0.0
            else:
                seg[-1] = beta = 0.5 * (ny + t)
                y *= beta / ny
    return x


def _initial_point(blocks, offsets, D):
    x = np.zeros(D)
    for o, (kind, dim) in zip(offsets, blocks):
        if kind == "simplex":
            x[o:o + dim] = 1.0 / dim
        elif kind == "soc":
            x[o + dim - 1] = 1.0
    return x


def _polish_cone(A, b, x, blocks, offsets):
    """Fix the active pattern at x and solve the reduced least squares."""
    D = A.shape[1]
    cols = []           # (vector in R^D, lower bound 0 or -inf)
    sum_rows = []       # simplex sum-to-one constraints over reduced vars
    for o, (kind, dim) in zip(offsets, blocks):
        seg = x[o:o + dim]
        if kind in ("nonneg", "simplex"):
            idxs = [i for i in range(dim) if seg[i] > 1e-9]
            if kind == "simplex" and not idxs:
                idxs = [int(np.argmax(seg))]
            start = len(cols)
            for i in idxs:
                e = np.zeros(D)
                e[o + i] = 1.0
                cols.append((e, True))
            if kind == "simplex":
                sum_rows.append(list(range(start, len(cols))))
        else:  # soc
            y, t = seg[:-1], float(seg[-1])
            ny = float(np.linalg.norm(y))
            if ny < t - max(1e-9, 1e-7 * abs(t)):
                for i in range(dim):
                    e = np.zeros(D)
                    e[o + i] = 1.0
                    cols.append((e, False))
            else:
                e = np.zeros(D)
                if ny > 1e-12:
                    e[o:o + dim - 1] = y / ny
                e[o + dim - 1] = 1.0
                cols.append((e, True))
    if not cols:
        return None
    Vt = np.array([v for v, _ in cols])     # n_red x D
    signed = np.array([s for _, s in cols])
    Ar = A @ Vt.T
    n_red = len(cols)
    n_eq = len(sum_rows)
    KKT = np.zeros((n_red + n_eq, n_red + n_eq))
    KKT[:n_red, :n_red] = Ar.T @ Ar
    rhs = np.zeros(n_red + n_eq)
    rhs[:n_red] = Ar.T @ b
    for k, members in enumerate(sum_rows):
        for j in members:
            KKT[n_red + k, j] = 1.0
            KKT[j, n_red + k] = 1.0
        rhs[n_red + k] = 1.0
    sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0][:n_red]
    if np.any(sol[signed] < -1e-10):
        return None
    sol = np.where(signed, np.maximum(sol, 0.0), sol)
    return Vt.T @ sol


_FARKAS_STRIDE = 16     # iterations between Farkas certificate checks


def _farkas_bound(A, b, z, blocks, offsets):
    """Lower bound on ||A x' - b|| over all block-feasible x' certified by z.

    When c = A^T z lies in the dual of every block (nonneg: c >= 0; soc:
    ||c_y||_2 <= c_t), every block-feasible x' has
    z.(A x' - b) >= g := sum over simplex blocks of min(c_B) - b.z, so
    ||A x' - b|| >= g / ||z||.  Returns -inf when z certifies nothing
    because c leaves a dual cone.  z must be nonzero.
    """
    c = A.T @ z
    g = -float(b @ z)
    for o, (kind, dim) in zip(offsets, blocks):
        seg = c[o:o + dim]
        if kind == "simplex":
            g += float(seg.min())
        elif kind == "nonneg" and seg.min() < 0.0:
            return -_INF
        elif kind == "soc" and math.sqrt(seg[:-1] @ seg[:-1]) > seg[-1]:
            return -_INF
    return g / math.sqrt(z @ z)


def _pgd_min_residual(A, b, blocks, tol, max_iter):
    """FISTA on 0.5*||Ax - b||^2 with per-block projections.

    Returns (best point, its residual norm, iterations, stop reason).  The
    run stops when the polished best residual is "converged" (at most
    min(tol/100, 1e-10)), tested every 512 iterations and at iterations 1,
    2, 4, ..., 256, whose polish is dropped unless it converges; at
    "farkas", once the best point's residual
    z = A x - b certifies through _farkas_bound that no block-feasible point
    gets within tol (checked every _FARKAS_STRIDE iterations); when the
    improvement between checkpoints has "stalled"; or at max_iter
    ("budget").
    """
    offsets = np.cumsum([0] + [dim for _, dim in blocks])[:-1].tolist()
    sigma = np.linalg.norm(A, 2) if A.size else 0.0
    step = 1.0 / max(sigma * sigma, 1e-12)
    x = _project_blocks(_initial_point(blocks, offsets, A.shape[1]), blocks, offsets)
    z = A @ x - b
    r_x = math.sqrt(z @ z)
    best_x, best_z, best_r = x, z, r_x
    yv, t_acc = x, 1.0
    stall_mark, stalls = best_r, 0
    done, reason, conv = 0, "budget", min(tol * 1e-2, 1e-10)
    for it in range(max_iter):
        done = it + 1
        grad = A.T @ (A @ yv - b)
        x_new = _project_blocks(yv - step * grad, blocks, offsets)
        z_new = A @ x_new - b
        r_new = math.sqrt(z_new @ z_new)
        if r_new < best_r:
            best_x, best_z, best_r = x_new, z_new, r_new
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        yv = x_new + ((t_acc - 1.0) / t_new) * (x_new - x)
        if r_new > r_x:
            yv, t_new = x_new, 1.0      # restart on non-monotone step
        x, r_x, t_acc = x_new, r_new, t_new
        checkpoint = it % 512 == 0 or best_r <= 1e-12
        if checkpoint or not it & (it - 1):     # or it = 1, 2, 4, ..., 256
            cand = _polish_cone(A, b, best_x, blocks, offsets)
            if cand is not None:
                cand = _project_blocks(cand, blocks, offsets)
                z_cand = A @ cand - b
                r_cand = math.sqrt(z_cand @ z_cand)
                if r_cand < best_r and (checkpoint or r_cand <= conv):
                    best_x, best_z, best_r = cand, z_cand, r_cand
            if best_r <= conv:
                reason = "converged"
                break
        if checkpoint:
            # infeasible systems converge to a positive floor; stop once
            # the checkpoint-to-checkpoint improvement dies out
            if stall_mark - best_r <= 1e-13 * max(1.0, best_r):
                stalls += 1
                if stalls >= 4:
                    reason = "stalled"
                    break
            else:
                stalls = 0
            stall_mark = best_r
        # the certified bound never exceeds best_r, so only check above tol
        if (it % _FARKAS_STRIDE == 0 and best_r > tol
                and _farkas_bound(A, b, best_z, blocks, offsets) > tol):
            reason = "farkas"
            break
    return best_x, best_r, done, reason


def solve_cone_system(A, b, blocks) -> ConeResult:
    """Find x with A x = b whose consecutive segments lie in `blocks`, a
    list of (kind, dim) in column order: "nonneg", "simplex", or "soc",
    a segment (y, t) with ||y||_2 <= t and dim = len(y) + 1.

    The row-scaled residual norm is driven down by accelerated projected
    gradient (at most CONE_MAX_ITER iterations), and the verdict is
    feasible only when it lands within CONE_TOL.  Polyhedral systems
    belong to an LP; this solver is for systems with second-order cones.
    """
    A, b = np.asarray(A, float), np.asarray(b, float)
    for kind, dim in blocks:
        if kind not in ("nonneg", "simplex", "soc"):
            raise ValueError(f"unknown block kind {kind!r}")
        if dim < 1:
            raise ValueError("block dimension must be >= 1")
    if A.ndim != 2 or b.shape != A.shape[:1] or A.shape[1] != sum(d for _, d in blocks):
        raise ValueError("A must be k x (sum of block dimensions), b of length k")
    mx = np.abs(A).max(axis=1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.divide(1.0, mx, out=np.ones_like(mx), where=mx > 0)
        # a subnormal maximum's reciprocal overflows: divide that row by it,
        # as unit_rows does (x / 1.0 is x, so every other row keeps its bits)
        over = np.isinf(scale)
        div = np.where(over, mx, 1.0)
        scale[over] = 1.0
        A, b = A * scale[:, None] / div[:, None], b * scale / div
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NumericalBreakdown("solve_cone_system: A or b, row-scaled, is not finite")
    x_best, r_best, its, reason = _pgd_min_residual(A, b, blocks, CONE_TOL, CONE_MAX_ITER)
    return ConeResult(r_best <= CONE_TOL, False, r_best, x_best, its, reason)
