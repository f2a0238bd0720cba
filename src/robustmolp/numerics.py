"""Self-contained dense numerical kernel.

Provides the primitives everything else is built on: a two-phase simplex
LP solver (an infeasible LP's Farkas ray read off the final basis),
Euclidean projection onto the unit simplex, the minimum-norm point of a
polytope-plus-ray set, and a block-structured second-order-cone
feasibility solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

_INF = float("inf")
_TINY = float(np.finfo(float).tiny)

DET_TOL = 1e-12         # scaled determinant below which a matrix is singular
VI_TOL = 1e-8           # minimum-norm variational inequality, on scaled data
CONE_TOL = 1e-7         # row-scaled equality residual of a feasible cone point
CONE_MAX_ITER = 30_000  # projected-gradient iterations per cone system


class NumericalBreakdown(Exception):
    """Simplex pivot budget exhausted (degenerate cycling in floats), or a
    quantity the method needs overflows the float range."""


class SingularMatrixError(Exception):
    """Matrix numerically singular (scaled determinant below threshold)."""


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

MAX_PIVOTS = 100_000    # Bland pivots per LP, phases 1 and 2


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    pivots: int = 0                       # Bland pivots, phases 1 and 2
    # infeasible only: a Farkas ray y, one entry per row of G, with
    # G^T y <= 0 on bounded columns, G^T y = 0 on free ones, y >= 0 on
    # ">=" rows and (h - G lb).y > 0 (each to the phase-1 tolerances on the
    # row-scaled data), so that no x >= lb has G x (>=, ==) h
    ray: np.ndarray | None = None

    @property
    def optimal(self):
        return self.status == "optimal"


_PIV_EPS = 1e-9         # pivots on entries near 1e-10 let phase 1 drift
_RC_EPS = 1e-9


def solve_lp(c, G, h, lower, eq=False) -> LpSolution:
    """min c.x  subject to  G x >= h, with equality on the rows where `eq`
    is set (one bool, or one per row), and x >= lower (-inf: a free
    variable).

    Two-phase dense simplex with Bland's anti-cycling rule.  Infeasible and
    unbounded verdicts are exact (up to the scaled phase-1 threshold), and
    an infeasible LP comes with a Farkas ray, the phase-1 dual that the
    tableau already holds.  An all-zero objective (a feasibility LP) stops
    after phase 1, with the phase-1 point.  More than MAX_PIVOTS pivots in
    phases 1 and 2 raise NumericalBreakdown; the drive-out of artificial
    variables between them is not counted.

    The tableau is stored transposed, one array row per column, so that a
    pivot is a single rank-1 update of the columns where the pivot row is
    nonzero.  Its last column holds the reduced costs and its last row
    the right-hand side.  A basic column is an exact unit vector with a
    zero reduced cost (a pivot never touches it), so Bland's scan for the
    entering column needs no test of basis membership.
    """
    c = np.asarray(c, float)
    d = c.size
    lb = np.broadcast_to(np.asarray(lower, float), (d,))
    finite = np.isfinite(lb)

    # Shift finitely-bounded variables to >= 0; a free variable gets a
    # negated copy in the column right after its own.
    offsets = np.where(finite, lb, 0.0)
    free = ~finite
    first = np.arange(d) + np.cumsum(free) - free
    neg = first[free] + 1
    n_var = d + len(neg)

    G = np.asarray(G, float)
    m = len(G)
    if m == 0:
        if np.any(c < -1e-12) or np.any(c[free] > 1e-12):
            return LpSolution("unbounded")
        return LpSolution("optimal", offsets)
    h = np.asarray(h, float)
    slack_rows = np.flatnonzero(~np.broadcast_to(eq, (m,)))
    n_slack = len(slack_rows)
    N = n_var + n_slack
    c_std = np.zeros(N)
    c_std[first] = c
    c_std[neg] = -c[free]

    # Rows scaled to unit max-norm, then flipped to make b >= 0.
    mx = np.abs(G).max(axis=1, initial=0.0)
    scales = np.ones(m)
    np.divide(1.0, mx, out=scales, where=mx > 0)
    rhs = (h - G @ offsets) * scales
    flips = np.where(rhs < 0, -1.0, 1.0)
    signed_scales = scales * flips
    rows = G * signed_scales[:, None]

    # Phase 1: [A | slacks | artificials | b]^T, reduced costs last.
    T = np.zeros((N + m + 1, m + 1))
    T[first, :m] = rows.T
    T[neg, :m] = -rows[:, free].T
    T[n_var + np.arange(n_slack), slack_rows] = -flips[slack_rows]
    np.fill_diagonal(T[N:N + m], 1.0)
    T[-1, :m] = rhs * flips
    # Phase-1 reduced costs: minus the sum of the rows, added in row order
    # (a cumulative sum is sequential, where sum may pair terms up).  A
    # slack column holds one entry, an artificial one cancels its cost.
    total = np.cumsum(rows, axis=0)[-1]
    T[first, m] = -total
    T[neg, m] = total[free]
    T[n_var + np.arange(n_slack), m] = flips[slack_rows]
    T[-1, m] = -np.cumsum(T[-1, :m])[-1]
    basis = list(range(N, N + m))
    pivots = 0

    def pivot(r, enter):
        nz = T[:, r].nonzero()[0]
        block = T.take(nz, axis=0)
        prow = block[:, r] / T[enter, r]
        # the update also reaches row r (column r of block); reset it
        block -= np.multiply.outer(prow, T[enter])
        block[:, r] = prow
        T[nz] = block
        basis[r] = enter

    def run_simplex(allowed):
        nonlocal pivots
        while True:
            cand = (T[:allowed, -1] < -_RC_EPS).nonzero()[0]
            if not cand.size:
                return "optimal"
            enter = int(cand[0])
            col = T[enter, :-1]
            elig = (col > _PIV_EPS).nonzero()[0]
            if not elig.size:
                return "unbounded"
            best, leave = _INF, -1
            ratios = T[-1].take(elig) / col.take(elig)
            for i, ratio in zip(elig.tolist(), ratios.tolist()):
                if (leave < 0 or ratio < best - 1e-12 or
                        (abs(ratio - best) <= 1e-12 and basis[i] < basis[leave])):
                    best, leave = ratio, i
            pivot(leave, enter)
            pivots += 1
            if pivots > MAX_PIVOTS:
                raise NumericalBreakdown(f"pivot budget {MAX_PIVOTS} exhausted")

    # phase 1 is bounded below by 0: "unbounded" means the tableau drifted,
    # after pivots on entries barely above _PIV_EPS, until a column with a
    # negative reduced cost kept no entry above it
    if run_simplex(N + m) == "unbounded":
        raise NumericalBreakdown("phase-1 unbounded")
    if -T[-1, -1] > 1e-9:
        # The phase-1 dual pi has reduced cost 1 - pi_i on artificial i,
        # and pi.b > 0 is the optimal sum of the artificials; unscaled and
        # unflipped it is the ray (a slack's reduced cost pi_i flips_i >= 0
        # gives y >= 0 on ">=" rows).
        ray = signed_scales * (1.0 - T[N:N + m, m])
        return LpSolution("infeasible", pivots=pivots, ray=ray)

    def unshift(values):
        """x of the input variables from the basic values; an artificial
        still basic (at zero) lands past the standard-form columns."""
        x_std = np.zeros(N + m)
        x_std[basis] = values
        x = offsets + x_std[first]
        x[free] -= x_std[neg]
        return x

    if not c.any():
        # a feasibility LP is solved by the phase-1 point
        return LpSolution("optimal", unshift(T[-1, :m]), pivots)

    # Drive remaining artificials out of the basis; move the rows where
    # none can leave behind the live ones, and drop them.
    mk = m
    r = 0
    while r < mk:
        if basis[r] >= N:
            cand = (np.abs(T[:N, r]) > 1e-9).nonzero()[0]
            if not cand.size:
                last = mk - 1
                T[:, [r, last]] = T[:, [last, r]]
                basis[r], basis[last] = basis[last], basis[r]
                mk -= 1
                continue
            pivot(r, int(cand[0]))
        r += 1
    del basis[mk:]

    # Phase 2 over the kept rows, without the artificial columns: the
    # right-hand side moves up over the first of them, and a view drops
    # the rest and the dropped rows.
    T[N] = T[-1]
    T = T[:N + 1, :mk + 1]
    T[:N, -1] = c_std
    T[-1, -1] = 0.0
    for i in np.flatnonzero(c_std[basis]).tolist():
        T[:, -1] -= c_std[basis[i]] * T[:, i]
    if run_simplex(N) == "unbounded":
        return LpSolution("unbounded", pivots=pivots)
    return LpSolution("optimal", unshift(T[-1, :-1]), pivots)


# ---------------------------------------------------------------------------
# Simplex projection and norms
# ---------------------------------------------------------------------------

def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1} (sort-based, exact)."""
    y = np.asarray(y, float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("expected a nonempty vector")
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, y.size + 1)
    cond = u - (css - 1.0) / idx > 0
    rho = np.nonzero(cond)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
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
    """Z as a float array; raises SingularMatrixError when the determinant
    of the max-abs-scaled matrix falls below DET_TOL."""
    Z = np.asarray(Z, float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.abs(Z).max()
    if scale == 0 or abs(np.linalg.det(Z / scale)) <= DET_TOL:
        raise SingularMatrixError("matrix is numerically singular")
    return Z


def invert_symmetric(Z: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix that passes require_nonsingular."""
    return np.linalg.inv(require_nonsingular(Z))


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def sphere_directions(k: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions in R^k.

    Alternating signs in 1-D, golden-angle points on the circle and the
    Fibonacci spiral on the 2-sphere; higher dimensions use a Kronecker
    sequence pushed through Box-Muller and normalized.
    """
    if k < 1 or count < 1:
        raise ValueError("k and count must be positive")
    if k == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    if k == 2:
        th = _GOLDEN_ANGLE * np.arange(count)
        return np.column_stack([np.cos(th), np.sin(th)])
    if k == 3:
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        th = _GOLDEN_ANGLE * i
        return np.column_stack([r * np.cos(th), r * np.sin(th), z])
    # generalized golden ratio of dimension d: root of x**(d+1) = x + 1
    pairs = (k + 1) // 2
    dim = 2 * pairs
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([phi ** -(j + 1) for j in range(dim)])
    out = np.zeros((count, k))
    for i in range(count):
        u = (0.5 + (i + 1) * alpha) % 1.0
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        g = np.empty(dim)
        for p in range(pairs):
            r = math.sqrt(-2.0 * math.log(u[2 * p]))
            g[2 * p] = r * math.cos(2.0 * math.pi * u[2 * p + 1])
            g[2 * p + 1] = r * math.sin(2.0 * math.pi * u[2 * p + 1])
        v = g[:k]
        nv = np.linalg.norm(v)
        out[i] = v / nv if nv > 1e-12 else np.eye(k)[0]
    return out


# ---------------------------------------------------------------------------
# Minimum-norm point over conv(points) + R+ * ray
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinNormResult:
    p_star: np.ndarray
    weights: np.ndarray   # simplex weights over the input points
    mu: float             # nonnegative ray coefficient
    certified: bool       # variational inequality verified
    iterations: int       # passive-set least-squares solves
    distance: float       # ||p_star||, free of overflow and underflow


def _vi_margin(M, q, p):
    """Worst violation of <h - q, q> >= 0 over generators and the ray."""
    hq = q @ M
    return min(float(hq[:p].min()) - float(q @ q), float(hq[p]))


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
    solve.  G_FF is held as a Cholesky factor in Python floats, extended
    when a column enters and rebuilt after a step back.  A pivot
    G_jj - y.y that cancels below _CANCELLED * G_jj is recomputed from the
    part of column j off the free columns, so that a near-dependent column
    keeps an accurate pivot.  A column whose pivot is not positive to
    working precision lies in the span of the free columns, where its
    gradient entry can only be rounding: it does not enter, and the solve
    ends.  One corrected semi-normal step, G_FF d = E_F^T (f - E u),
    refines the final u, an entry it would make negative set to 0.
    Returns (u, number of active-set least-squares solves).
    """
    n = E.shape[1]
    tol = 10.0 * np.finfo(float).eps * sum(E.shape)
    G, h = E.T @ E, E.T @ f
    Gl, hl = G.tolist(), h.tolist()
    u, grad, resid = [0.0] * n, hl, f
    free, L = [], []       # free columns in order, rows of the factor of G_FF
    value, solves = float(f @ f), 0

    def enter(j):
        """Extend the factor by column j; False if its pivot is not positive."""
        y = _forward(L, [Gl[j][i] for i in free])
        pivot = Gl[j][j] - sum(map(mul, y, y))
        if pivot < _CANCELLED * Gl[j][j]:
            # G_jj - y.y lost most of its digits: take the pivot from the
            # part of column j off the free columns, E_j - E_F G_FF^-1 G_Fj
            v = E[:, j] - E[:, free] @ np.array(_backward(L, y))
            pivot = float(v @ v)
        if not pivot > tol * tol * Gl[j][j]:
            return False
        L.append(y + [math.sqrt(pivot)])
        free.append(j)
        return True

    while True:
        bound = [j for j in range(n) if j not in free]
        j = max(bound, key=grad.__getitem__, default=None)
        if j is None or grad[j] <= tol or not enter(j):
            break
        while True:
            solves += 1
            z = _backward(L, _forward(L, [hl[i] for i in free]))
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
            del free[:], L[:]
            for k in kept:
                if not (u[k] > 0.0 and enter(k)):
                    u[k] = 0.0
        ua = np.array(u)
        resid = f - E @ ua
        new_value = float(resid @ resid)
        if not new_value < value:
            break
        value, grad = new_value, (h - G @ ua).tolist()
    if free:
        # one corrected semi-normal step: G_FF d = E_F^T (f - E u)
        g = (E.T @ resid).tolist()
        d = _backward(L, _forward(L, [g[i] for i in free]))
        for i, di in zip(free, d):
            u[i] = max(u[i] + di, 0.0)
    return np.array(u), solves


def _forward(L, b):
    """y with L y = b, for L given by the rows of a lower triangle."""
    y = []
    for row, bi in zip(L, b):
        y.append((bi - sum(map(mul, row, y))) / row[-1])
    return y


def _backward(L, y):
    """z with L^T z = y, for L given by the rows of a lower triangle."""
    z = y[:]
    for r in range(len(z) - 1, -1, -1):
        z[r] = (z[r] - sum(L[c][r] * z[c] for c in range(r + 1, len(z)))) / L[r][r]
    return z


def min_norm_point(points, ray) -> MinNormResult:
    """Minimize ||q||^2 over q in conv(points) + R+ * ray, the points given
    as the rows of a p x k array or as a sequence of p k-vectors.

    One nonnegative least-squares solve (Lawson & Hanson) of
    E u ~ e_{k+1} with E = [[P, r], [1^T, 0]]: at its optimum u_P sums to
    t = 1/(1 + d^2), where d is the distance sought, and dividing by t
    gives the simplex weights and the ray coefficient.  A target inside
    the set (d = 0) needs no special case.  The points are scaled to unit
    size and the ray to unit length first, which leaves the weights
    unchanged.  Optimality is certified independently through the
    variational inequality on the generators, with VI_TOL applied to the
    data scaled down by a power of two to entries below 1.
    """
    pts = np.asarray(points, float)
    if not pts.size:
        raise ValueError("points must be nonempty")
    r = np.asarray(ray, float)
    p, k = pts.shape
    M = np.empty((k, p + 1))
    M[:, :p], M[:, p] = pts.T, r
    big = float(np.abs(M[:, :p]).max())
    s = 1.0 / big if big > 0 else 1.0
    r_len = float(np.linalg.norm(r))
    c = 1.0 / r_len if r_len > 0 else 0.0
    E = np.zeros((k + 1, p + 1))
    E[:k, :p] = s * M[:, :p]
    E[:k, p] = c * r
    E[k, :p] = 1.0
    f = np.zeros(k + 1)
    f[k] = 1.0
    u, solves = _nnls(E, f)
    t = u[:p].sum()
    w = np.append(u[:p] / t, c * u[p] / (s * t))
    q = M @ w
    # Check at entries below 1: a power of two scales exactly, so data up
    # to the float range cannot overflow q.q.  hypot neither overflows nor
    # underflows, so a q of unit size beside 1e300 points keeps its norm.
    sigma = math.ldexp(1.0, -max(0, math.frexp(max(big, r_len))[1]))
    cert = _vi_margin(sigma * M, sigma * q, p) >= -VI_TOL
    return MinNormResult(q, w[:p], float(w[p]), cert, solves, math.hypot(*q))


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


def _project_soc(y, t):
    ny = float(np.linalg.norm(y))
    if ny <= t:
        return y, t
    if ny <= -t:
        return np.zeros_like(y), 0.0
    beta = 0.5 * (ny + t)
    return y * (beta / ny), beta


def _project_blocks(x, blocks, offsets):
    out = x.copy()
    for o, (kind, dim) in zip(offsets, blocks):
        seg = out[o:o + dim]
        if kind == "nonneg":
            out[o:o + dim] = np.maximum(seg, 0.0)
        elif kind == "simplex":
            out[o:o + dim] = project_simplex(seg)
        elif kind == "soc":
            y, t = _project_soc(seg[:-1], float(seg[-1]))
            out[o:o + dim - 1] = y
            out[o + dim - 1] = t
    return out


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
        elif kind == "nonneg":
            if seg.min() < 0.0:
                return -_INF
        elif np.linalg.norm(seg[:-1]) > seg[-1]:    # soc
            return -_INF
    return g / float(np.linalg.norm(z))


def _pgd_min_residual(A, b, blocks, tol, max_iter):
    """FISTA on 0.5*||Ax - b||^2 with per-block projections.

    Returns (best point, its residual norm, iterations, stop reason).  The
    run stops when the best residual is "converged" (at most
    min(tol/100, 1e-10)); at "farkas", once the best point's residual
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
    r_x = float(np.linalg.norm(z))
    best_x, best_z, best_r = x, z, r_x
    yv, t_acc = x.copy(), 1.0
    stall_mark, stalls = best_r, 0
    done, reason = 0, "budget"
    for it in range(max_iter):
        done = it + 1
        grad = A.T @ (A @ yv - b)
        x_new = _project_blocks(yv - step * grad, blocks, offsets)
        z_new = A @ x_new - b
        r_new = float(np.linalg.norm(z_new))
        if r_new < best_r:
            best_x, best_z, best_r = x_new, z_new, r_new
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        yv = x_new + ((t_acc - 1.0) / t_new) * (x_new - x)
        if r_new > r_x:
            yv, t_new = x_new.copy(), 1.0      # restart on non-monotone step
        x, r_x, t_acc = x_new, r_new, t_new
        if it % 512 == 0 or best_r <= 1e-12:
            cand = _polish_cone(A, b, best_x, blocks, offsets)
            if cand is not None:
                cand = _project_blocks(cand, blocks, offsets)
                z_cand = A @ cand - b
                r_cand = float(np.linalg.norm(z_cand))
                if r_cand < best_r:
                    best_x, best_z, best_r = cand, z_cand, r_cand
            if best_r <= min(tol * 1e-2, 1e-10):
                reason = "converged"
                break
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
    scale = np.divide(1.0, mx, out=np.ones_like(mx), where=mx > 0)
    x_best, r_best, its, reason = _pgd_min_residual(
        A * scale[:, None], b * scale, blocks, CONE_TOL, CONE_MAX_ITER)
    return ConeResult(r_best <= CONE_TOL, False, r_best, x_best, its, reason)
