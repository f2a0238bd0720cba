"""Self-contained dense numerical kernel.

Provides the primitives everything else is built on: a two-phase simplex
LP solver with dual certificates, Euclidean projection onto the unit
simplex, the minimum-norm point of a polytope-plus-ray set, and a
block-structured cone feasibility solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_INF = float("inf")


class NumericalBreakdown(Exception):
    """Simplex pivot budget exhausted (degenerate cycling in floats)."""


class SingularMatrixError(Exception):
    """Matrix numerically singular (scaled determinant below threshold)."""


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  rows (g.x >= h or g.x == h)  and  x >= lower.

    Lower bounds may be -inf for free variables.
    """

    objective: np.ndarray
    rows: tuple  # of (g: array, h: float, sense: ">=" | "==")
    lower_bounds: np.ndarray

    @staticmethod
    def build(objective, rows, lower_bounds=None):
        c = np.asarray(objective, float)
        if lower_bounds is None:
            lower_bounds = np.zeros(c.size)
        lb = np.asarray(lower_bounds, float)
        if lb.size != c.size:
            raise ValueError("lower_bounds length mismatch")
        norm_rows = []
        for g, h, sense in rows:
            g = np.asarray(g, float)
            if g.size != c.size:
                raise ValueError("row dimension mismatch")
            if sense not in (">=", "=="):
                raise ValueError(f"unknown sense {sense!r}")
            norm_rows.append((g, float(h), sense))
        return LinearProgram(c, tuple(norm_rows), lb)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    dual: np.ndarray | None = None        # one multiplier per input row
    dual_value: float | None = None
    pivots: int = 0                       # Bland pivots, phases 1 and 2

    @property
    def optimal(self):
        return self.status == "optimal"


_PIV_EPS = 1e-10
_RC_EPS = 1e-9


def solve_lp(lp: LinearProgram, max_pivots: int = 100_000) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Infeasible/unbounded verdicts are exact (up to the scaled phase-1
    threshold); optimal solutions come with a dual vector per input row,
    recovered from the final basis.  `max_pivots` bounds the pivots of
    phases 1 and 2; the drive-out of artificial variables between them is
    not counted.

    The tableau is stored transposed, one array row per column, so that a
    pivot is a single rank-1 update of the columns where the pivot row is
    nonzero.  Its last column holds the reduced costs and its last row
    the right-hand side.  A basic column is an exact unit vector with a
    zero reduced cost (a pivot never touches it), so Bland's scan for the
    entering column needs no test of basis membership.
    """
    c = np.asarray(lp.objective, float)
    lb = np.asarray(lp.lower_bounds, float)
    d = c.size
    finite = np.isfinite(lb)

    # Shift finitely-bounded variables to >= 0; a free variable gets a
    # negated copy in the column right after its own.
    offsets = np.where(finite, lb, 0.0)
    free = ~finite
    first = np.arange(d) + np.cumsum(free) - free
    neg = first[free] + 1
    n_var = d + len(neg)

    m = len(lp.rows)
    if m == 0:
        if np.any(c < -1e-12) or np.any(c[free] > 1e-12):
            return LpSolution("unbounded")
        x = offsets.copy()
        return LpSolution("optimal", x, float(c @ x),
                          np.zeros(0), float(c @ x))
    gs, heights, senses = zip(*lp.rows)
    G = np.array(gs)
    heights = np.array(heights)
    slack_rows = np.flatnonzero(np.array(senses) == ">=")
    n_slack = len(slack_rows)
    N = n_var + n_slack
    c_std = np.zeros(N)
    c_std[first] = c
    c_std[neg] = -c[free]

    # Rows scaled to unit max-norm, then flipped to make b >= 0.
    mx = np.abs(G).max(axis=1, initial=0.0)
    scales = np.ones(m)
    np.divide(1.0, mx, out=scales, where=mx > 0)
    rhs = (heights - G @ offsets) * scales
    flips = np.where(rhs < 0, -1.0, 1.0)
    signed_scales = scales * flips
    rows = G * signed_scales[:, None]

    def standard_form(out):
        """Write the standard-form matrix [A | slacks], transposed, to out."""
        out[first] = rows.T
        out[neg] = -rows[:, free].T
        out[n_var + np.arange(n_slack), slack_rows] = -flips[slack_rows]
        return out

    # Phase 1: [A | slacks | artificials | b]^T, reduced costs last.
    T = np.zeros((N + m + 1, m + 1))
    standard_form(T[:N, :m])
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
            if pivots > max_pivots:
                raise NumericalBreakdown(f"pivot budget {max_pivots} exhausted")

    if run_simplex(N + m) == "unbounded":  # cannot happen: bounded below
        raise NumericalBreakdown("phase-1 unbounded")
    if -T[-1, -1] > 1e-9:
        return LpSolution("infeasible", pivots=pivots)

    # Drive remaining artificials out of the basis; move the rows where
    # none can leave behind the live ones, and drop them.
    keep = list(range(m))
    mk = m
    r = 0
    while r < mk:
        if basis[r] >= N:
            cand = (np.abs(T[:N, r]) > 1e-9).nonzero()[0]
            if not cand.size:
                last = mk - 1
                T[:, [r, last]] = T[:, [last, r]]
                basis[r], basis[last] = basis[last], basis[r]
                keep[r], keep[last] = keep[last], keep[r]
                mk -= 1
                continue
            pivot(r, int(cand[0]))
        r += 1
    kept_rows = keep[:mk]
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

    basis = np.array(basis, dtype=int)
    x_std = np.zeros(N)
    x_std[basis] = T[-1, :-1]
    del T                        # free the largest array before the dual solve
    x = offsets + x_std[first]
    x[free] -= x_std[neg]
    value = float(c @ x)

    # Dual recovery: solve B^T y = c_B on the kept standard-form rows.
    dual = np.zeros(m)
    if mk:
        Bt = standard_form(np.zeros((N, m)))[basis[:, None], kept_rows]
        try:
            y_hat = np.linalg.solve(Bt, c_std[basis])
        except np.linalg.LinAlgError:
            y_hat = np.linalg.lstsq(Bt, c_std[basis], rcond=None)[0]
        dual[kept_rows] = signed_scales[kept_rows] * y_hat

    w = c - G.T @ dual
    dual_value = float(dual @ heights + w[finite] @ lb[finite])
    return LpSolution("optimal", x, value, dual, dual_value, pivots)


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


def dual_norm_value(x: np.ndarray, s) -> float:
    """Value of the norm conjugate to the s-norm (1 <-> inf, 2 <-> 2)."""
    x = np.asarray(x, float)
    if x.size == 0:
        return 0.0
    if s == 1:
        return float(np.abs(x).max())
    if s == 2:
        return float(np.linalg.norm(x))
    if s == _INF or s == math.inf:
        return float(np.abs(x).sum())
    raise ValueError(f"norm index {s!r} not in {{1, 2, inf}}")


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


def invert_symmetric(Z: np.ndarray, det_tol: float = 1e-12) -> np.ndarray:
    """Inverse of a symmetric matrix; raises SingularMatrixError when the
    determinant of the max-abs-scaled matrix falls below det_tol."""
    Z = np.asarray(Z, float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.abs(Z).max()
    if scale == 0 or abs(np.linalg.det(Z / scale)) <= det_tol:
        raise SingularMatrixError("matrix is numerically singular")
    return np.linalg.inv(Z)


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
    distance: float       # ||p_star||, free of overflow


def _vi_margin(M, q, p):
    """Worst violation of <h - q, q> >= 0 over generators and the ray."""
    nn = float(q @ q)
    worst = min(float(M[:, j] @ q) - nn for j in range(p))
    return min(worst, float(M[:, p] @ q))


def _nnls(E, f):
    """Lawson-Hanson active-set solve of min ||E u - f|| over u >= 0.

    Each outer step frees the bound column with the largest positive
    gradient entry; the inner loop solves least squares on the free set
    and steps back to the boundary while a free coefficient would turn
    nonpositive.  The least-squares value strictly decreases between outer
    steps, so no free set repeats and the loop is finite; a step that
    fails to decrease it (a gradient entry at rounding level) ends the
    solve.  Returns (u, number of least-squares solves).
    """
    n = E.shape[1]
    tol = 10.0 * np.finfo(float).eps * sum(E.shape)
    u = np.zeros(n)
    free = np.zeros(n, bool)
    resid, value, solves = f.copy(), float(f @ f), 0
    while True:
        grad = E.T @ resid
        grad[free] = -_INF
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            break
        free[j] = True
        while True:
            solves += 1
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(E[:, free], f, rcond=None)[0]
            blocked = free & (z <= 0.0)
            if not blocked.any():
                u = z
                break
            # u >= 0 >= z on the blocked set; both zero means ratio 0
            ratios = np.full(n, _INF)
            ratios[blocked] = u[blocked] / np.maximum(u[blocked] - z[blocked],
                                                      np.finfo(float).tiny)
            i = int(np.argmin(ratios))
            u = u + ratios[i] * (z - u)
            u[i] = 0.0
            free &= u > 0.0
            u[~free] = 0.0
        resid = f - E @ u
        new_value = float(resid @ resid)
        if not new_value < value:
            break
        value = new_value
    return u, solves


def min_norm_point(points, ray, vi_tol: float = 1e-8) -> MinNormResult:
    """Minimize ||q||^2 over q in conv(points) + R+ * ray.

    One nonnegative least-squares solve (Lawson & Hanson) of
    E u ~ e_{k+1} with E = [[P, r], [1^T, 0]]: at its optimum u_P sums to
    t = 1/(1 + d^2), where d is the distance sought, and dividing by t
    gives the simplex weights and the ray coefficient.  A target inside
    the set (d = 0) needs no special case.  The points are scaled to unit
    size and the ray to unit length first, which leaves the weights
    unchanged.  Optimality is certified independently through the
    variational inequality on the generators, with `vi_tol` applied to the
    data scaled down by a power of two to entries below 1.
    """
    pts = [np.asarray(q, float) for q in points]
    if not pts:
        raise ValueError("points must be nonempty")
    r = np.asarray(ray, float)
    p = len(pts)
    M = np.column_stack(pts + [r])
    k = M.shape[0]
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
    # Check and measure at entries below 1: a power of two scales exactly,
    # so data up to the float range cannot overflow q.q, and the norm is
    # that of q bit for bit.
    sigma = math.ldexp(1.0, -max(0, math.frexp(max(big, r_len))[1]))
    qs = sigma * q
    cert = _vi_margin(sigma * M, qs, p) >= -vi_tol
    return MinNormResult(q, w[:p], float(w[p]), cert, solves,
                         float(np.linalg.norm(qs)) / sigma)


# ---------------------------------------------------------------------------
# Cone-constrained linear feasibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarBlock:
    """A block of decision variables with its own feasible set.

    kinds: "free", "nonneg", "simplex", and "soc" where the block is
    (y, t) with ||y||_s <= t and dim = len(y) + 1.
    """

    kind: str
    dim: int
    norm_index: float = 2.0

    def __post_init__(self):
        if self.kind not in ("free", "nonneg", "simplex", "soc"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("block dimension must be >= 1")


@dataclass(frozen=True)
class ConeFeasibilitySystem:
    """Affine equalities over block-constrained variables.

    Each equality is (coeffs, rhs) with coeffs a dict mapping block index
    to a (k x block_dim) matrix.
    """

    blocks: tuple
    equalities: tuple

    @staticmethod
    def build(blocks, equalities):
        blocks = tuple(blocks)
        eqs = []
        for coeffs, rhs in equalities:
            rhs = np.atleast_1d(np.asarray(rhs, float))
            k = rhs.size
            cmap = {}
            for bi, Mb in coeffs.items():
                Mb = np.asarray(Mb, float)
                if Mb.ndim == 1:
                    Mb = Mb.reshape(k, -1)
                if Mb.shape != (k, blocks[bi].dim):
                    raise ValueError("equality block shape mismatch")
                cmap[int(bi)] = Mb
            eqs.append((cmap, rhs))
        return ConeFeasibilitySystem(blocks, tuple(eqs))

    @property
    def offsets(self):
        off, cur = [], 0
        for blk in self.blocks:
            off.append(cur)
            cur += blk.dim
        return off, cur

    def stacked(self):
        off, D = self.offsets
        K = sum(rhs.size for _, rhs in self.equalities)
        A = np.zeros((K, D))
        b = np.zeros(K)
        r = 0
        for cmap, rhs in self.equalities:
            k = rhs.size
            for bi, Mb in cmap.items():
                A[r:r + k, off[bi]:off[bi] + self.blocks[bi].dim] = Mb
            b[r:r + k] = rhs
            r += k
        return A, b

    def split(self, x):
        off, _ = self.offsets
        return [np.asarray(x[o:o + blk.dim])
                for o, blk in zip(off, self.blocks)]


@dataclass(frozen=True)
class ConeResult:
    feasible: bool
    exact: bool               # verdict from the LP path (polyhedral blocks)
    residual: float           # row-scaled equality residual (2-norm)
    x: np.ndarray
    iterations: int           # projected-gradient iterations (0 on "lp")
    stop_reason: str          # "lp" | "converged" | "farkas" | "stalled" | "budget"


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
    for o, blk in zip(offsets, blocks):
        seg = out[o:o + blk.dim]
        if blk.kind == "nonneg":
            out[o:o + blk.dim] = np.maximum(seg, 0.0)
        elif blk.kind == "simplex":
            out[o:o + blk.dim] = project_simplex(seg)
        elif blk.kind == "soc":
            y, t = _project_soc(seg[:-1], float(seg[-1]))
            out[o:o + blk.dim - 1] = y
            out[o + blk.dim - 1] = t
    return out


def _initial_point(blocks, offsets, D):
    x = np.zeros(D)
    for o, blk in zip(offsets, blocks):
        if blk.kind == "simplex":
            x[o:o + blk.dim] = 1.0 / blk.dim
        elif blk.kind == "soc":
            x[o + blk.dim - 1] = 1.0
    return x


def _polish_cone(A, b, x, blocks, offsets):
    """Fix the active pattern at x and solve the reduced least squares."""
    D = A.shape[1]
    cols = []           # (vector in R^D, lower bound 0 or -inf)
    sum_rows = []       # simplex sum-to-one constraints over reduced vars
    for o, blk in zip(offsets, blocks):
        seg = x[o:o + blk.dim]
        if blk.kind == "free":
            for i in range(blk.dim):
                e = np.zeros(D)
                e[o + i] = 1.0
                cols.append((e, False))
        elif blk.kind in ("nonneg", "simplex"):
            idxs = [i for i in range(blk.dim) if seg[i] > 1e-9]
            if blk.kind == "simplex" and not idxs:
                idxs = [int(np.argmax(seg))]
            start = len(cols)
            for i in idxs:
                e = np.zeros(D)
                e[o + i] = 1.0
                cols.append((e, True))
            if blk.kind == "simplex":
                sum_rows.append(list(range(start, len(cols))))
        else:  # soc
            y, t = seg[:-1], float(seg[-1])
            ny = float(np.linalg.norm(y))
            if ny < t - max(1e-9, 1e-7 * abs(t)):
                for i in range(blk.dim):
                    e = np.zeros(D)
                    e[o + i] = 1.0
                    cols.append((e, False))
            else:
                e = np.zeros(D)
                if ny > 1e-12:
                    e[o:o + blk.dim - 1] = y / ny
                e[o + blk.dim - 1] = 1.0
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

    When c = A^T z lies in the dual of every block (nonneg: c >= 0; soc of
    index s: ||c_y||_{s*} <= c_t), every block-feasible x' has
    z.(A x' - b) >= g := sum over simplex blocks of min(c_B) - b.z, so
    ||A x' - b|| >= g / ||z||.  Returns -inf when z certifies nothing: c
    leaves a dual cone, or a free block is present.  z must be nonzero.
    """
    c = A.T @ z
    g = -float(b @ z)
    for o, blk in zip(offsets, blocks):
        seg = c[o:o + blk.dim]
        if blk.kind == "simplex":
            g += float(seg.min())
        elif blk.kind == "nonneg":
            if seg.min() < 0.0:
                return -_INF
        elif blk.kind == "soc":
            if dual_norm_value(seg[:-1], blk.norm_index) > seg[-1]:
                return -_INF
        else:
            return -_INF
    return g / float(np.linalg.norm(z))


def _pgd_min_residual(A, b, blocks, offsets, D, tol, max_iter):
    """FISTA on 0.5*||Ax - b||^2 with per-block projections.

    Returns (best point, its residual norm, iterations, stop reason).  The
    run stops when the best residual is "converged" (at most
    min(tol/100, 1e-10)); at "farkas", once the best point's residual
    z = A x - b certifies through _farkas_bound that no block-feasible point
    gets within tol (checked every _FARKAS_STRIDE iterations); when the
    improvement between checkpoints has "stalled"; or at max_iter
    ("budget").
    """
    sigma = np.linalg.norm(A, 2) if A.size else 0.0
    step = 1.0 / max(sigma * sigma, 1e-12)
    x = _project_blocks(_initial_point(blocks, offsets, D), blocks, offsets)
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


def solve_cone_system(sys: ConeFeasibilitySystem, tol: float = 1e-7,
                      max_iter: int = 30_000) -> ConeResult:
    """Find a block-feasible point satisfying the equalities.

    All-polyhedral systems (no Euclidean cone blocks) are decided exactly
    through an LP reformulation; otherwise the scaled residual norm is
    driven down by accelerated projected gradient and the verdict is
    Feasible only when it lands below tol.  When the LP finds no point,
    the projected gradient still runs, only to report the best residual.
    """
    offsets, D = sys.offsets
    A, b = sys.stacked()
    scale = np.ones(A.shape[0])
    for i in range(A.shape[0]):
        mx = np.abs(A[i]).max()
        if mx > 0:
            scale[i] = 1.0 / mx
    As = A * scale[:, None]
    bs = b * scale

    soc2 = any(blk.kind == "soc" and blk.norm_index == 2 and blk.dim > 1
               for blk in sys.blocks)
    if not soc2:
        x_lp = _cone_lp_path(sys, As, bs, offsets, D)
        if x_lp is not None:
            res = float(np.linalg.norm(As @ x_lp - bs))
            return ConeResult(True, True, res, x_lp, 0, "lp")
        x_best, r_best, its, reason = _pgd_min_residual(
            As, bs, sys.blocks, offsets, D, tol, min(max_iter, 10_000))
        return ConeResult(False, True, r_best, x_best, its, reason)

    x_best, r_best, its, reason = _pgd_min_residual(
        As, bs, sys.blocks, offsets, D, tol, max_iter)
    return ConeResult(r_best <= tol, False, r_best, x_best, its, reason)


def _cone_lp_path(sys, As, bs, offsets, D):
    """Exact feasibility via LP for systems whose blocks are polyhedral
    (free/nonneg/simplex and 1- or inf-norm cones)."""
    lb = np.full(D, -_INF)
    rows = []
    aux_cols = 0
    aux_specs = []       # rows referencing aux columns, appended after sizing
    for o, blk in zip(offsets, sys.blocks):
        if blk.kind in ("nonneg", "simplex"):
            lb[o:o + blk.dim] = 0.0
        if blk.kind == "simplex":
            g = np.zeros(D)
            g[o:o + blk.dim] = 1.0
            rows.append((g, 1.0, "=="))
        if blk.kind == "soc":
            dy = blk.dim - 1
            ti = o + dy
            if dy == 0:
                g = np.zeros(D)
                g[ti] = 1.0
                rows.append((g, 0.0, ">="))
            elif blk.norm_index == _INF or blk.norm_index == math.inf:
                for i in range(dy):
                    for sgn in (1.0, -1.0):
                        g = np.zeros(D)
                        g[ti] = 1.0
                        g[o + i] = sgn
                        rows.append((g, 0.0, ">="))
            elif blk.norm_index == 1:
                aux_specs.append((o, dy, ti, aux_cols))
                aux_cols += dy
            else:
                return None
    total = D + aux_cols

    def widen(g):
        gg = np.zeros(total)
        gg[:D] = g
        return gg

    wrows = [(widen(g), h, s) for g, h, s in rows]
    for o, dy, ti, astart in aux_specs:
        for i in range(dy):
            for sgn in (1.0, -1.0):
                g = np.zeros(total)
                g[D + astart + i] = 1.0
                g[o + i] = sgn
                wrows.append((g, 0.0, ">="))
        g = np.zeros(total)
        g[ti] = 1.0
        g[D + astart:D + astart + dy] = -1.0
        wrows.append((g, 0.0, ">="))
    for i in range(As.shape[0]):
        wrows.append((widen(As[i]), float(bs[i]), "=="))
    lbw = np.concatenate([lb, np.full(aux_cols, -_INF)])
    lp = LinearProgram.build(np.zeros(total), wrows, lbw)
    sol = solve_lp(lp)
    if not sol.optimal:
        return None
    return sol.x[:D]
