"""Differential checks of the hand-written kernels against scipy.

scipy is a test-only reference here, never a runtime dependency: the
module is skipped where scipy is not installed.
"""

import numpy as np
import pytest

from conftest import as_geq, highs
from robustmolp.feasibility import is_feasible
from robustmolp.numerics import min_norm_point, solve_lp

optimize = pytest.importorskip("scipy.optimize")

_INF = float("inf")


def _lp(c, rows, x0):
    """The arguments (c, G, h, lower, eq) of conftest.highs for (g, h,
    sense) rows over free variables, and the anchor x0 that meets them;
    _solve hands the rows and x0 to solve_lp."""
    G, h, senses = zip(*rows)
    return (c, np.array(G), np.array(h), -_INF, np.array(senses) == "=="), x0


def _solve(c, G, h, lb, eq, x0):
    """solve_lp on the LP with each equality row written as two ">=" rows."""
    return solve_lp(c, *as_geq(G, h, eq), x0)


def _random_lp(rng):
    """Small LP with free and sign-bound variables, equality rows and
    degenerate ties.

    Rows are tight at an integer anchor point (degenerate vertices) or
    hold there with slack, and are duplicated now and then; one instance
    in four has no box and may be unbounded.
    """
    d = int(rng.integers(1, 6))
    signed = rng.integers(0, 2, d) == 0
    x0 = rng.integers(0, 3, d).astype(float)
    rows = [(e, 0.0, ">=") for e in np.eye(d)[signed]]
    for _ in range(int(rng.integers(1, 7))):
        g = rng.integers(-3, 4, d).astype(float)
        sense = ">=" if rng.integers(0, 3) else "=="
        h = float(g @ x0) - (float(rng.integers(0, 3)) if sense == ">=" else 0.0)
        rows.append((g, h, sense))
        if rng.integers(0, 4) == 0:
            rows.append((g.copy(), h, sense))
    # a box keeps most instances bounded; some are left open on purpose
    if rng.integers(0, 4):
        for j in range(d):
            e = np.zeros(d)
            e[j] = -1.0
            rows.append((e, -5.0, ">="))
            rows.append((-e, -5.0, ">="))
    c = rng.integers(-3, 4, d).astype(float)
    return _lp(c, rows, x0)


def _check_optimum(sol, lp):
    """sol is optimal with HiGHS's value, and meets the rows to 1e-7."""
    c, G, h, _, eq = lp
    ref_status, ref_value = highs(*lp)
    assert sol.status == ref_status == "optimal"
    assert c @ sol.x == pytest.approx(ref_value, abs=1e-7)
    slack = G @ sol.x - h
    assert np.all(slack[~eq] >= -1e-7) and np.all(np.abs(slack[eq]) <= 1e-7)


def test_solve_lp_matches_highs_on_random_degenerate_free_lps():
    rng = np.random.default_rng(20261018)
    seen = {"optimal": 0, "unbounded": 0}
    for _ in range(300):
        lp, x0 = _random_lp(rng)
        sol = _solve(*lp, x0)
        seen[sol.status] += 1
        if sol.optimal:
            _check_optimum(sol, lp)
        else:
            assert highs(*lp)[0] == "unbounded"
    assert all(count >= 10 for count in seen.values()), seen


def _nnls_distance(points, rays):
    """Distance from the origin to conv(points) + cone(rays) through scipy's
    NNLS on [[P, R], [1, 0]] u ~ e: the optimal residual is d^2 / (1 + d^2)."""
    P = np.column_stack([np.asarray(q, float) for q in points] + list(rays))
    E = np.vstack([P, np.append(np.ones(len(points)), np.zeros(len(rays)))])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, _ = optimize.nnls(E, f)
    t = u[:len(points)].sum()
    return float(np.linalg.norm(P @ u / t))


def _point_set(rng, kind, k, p):
    """p integer points in R^k, then made wide-scale (each point times
    10^U(-3, 3)), near-duplicate (each point may get a copy moved by up to
    10^U(-12, -6)) or repeated (each point may come twice)."""
    pts = [rng.integers(-5, 6, k).astype(float) for _ in range(p)]
    if kind == "wide":
        return [q * 10.0 ** rng.uniform(-3, 3) for q in pts]
    if kind == "near":
        return pts + [q + 10.0 ** rng.uniform(-12, -6) * rng.uniform(-1, 1, k)
                      for q in pts if rng.integers(0, 2)]
    if kind == "repeated":
        return pts + [q.copy() for q in pts if rng.integers(0, 2)]
    return pts


def _ray_set(rng, trial, k):
    """A ray matrix by trial % 5: no ray, the radius ray (0, ..., 0, -1),
    two to four integer rays, the same with a zero ray among them, or rays
    in near-parallel pairs (each moved by up to 10^U(-12, -6))."""
    kind = trial % 5
    if kind == 0:
        return np.zeros((0, k))
    if kind == 1:
        return -np.eye(k)[-1:]
    rays = rng.integers(-3, 4, (int(rng.integers(2, 5)), k)).astype(float)
    if kind == 3:
        rays[int(rng.integers(0, len(rays)))] = 0.0
    if kind == 4:
        rays = np.vstack([rays, rays + 10.0 ** rng.uniform(-12, -6) * rng.uniform(-1, 1, rays.shape)])
    return rays


def test_min_norm_point_matches_scipy_nnls():
    rng = np.random.default_rng(20261019)
    for kind in ("integer", "wide", "near", "repeated"):
        for trial in range(300):
            k = int(rng.integers(1, 7))
            pts = _point_set(rng, kind, k, int(rng.integers(1, 3 * k + 3)))
            rays = _ray_set(rng, trial, k)
            res = min_norm_point(pts, rays)
            case = (kind, pts, rays)
            assert res.certified, case
            assert res.iterations <= 3 * (len(pts) + len(rays) + 1), case
            assert res.mu.shape == (len(rays),) and np.all(res.mu >= 0.0), case
            assert not res.mu[~rays.any(axis=1)].any(), case     # a zero ray stays unused
            # near-duplicate points and near-parallel rays make both solves
            # ill-conditioned
            scale = float(np.abs(pts).max())
            tol = 1e-9 if kind == "near" or trial % 5 == 4 else 1e-12
            assert res.distance == pytest.approx(
                _nnls_distance(pts, rays), abs=tol * scale), case
            # the point is the weighted points plus the weighted rays
            q = res.weights @ np.asarray(pts) + res.mu @ rays
            assert np.linalg.norm(q - res.p_star) <= 1e-9 * max(1.0, scale), case


def _large_lp(rng):
    """200 to 260 rows over 4 to 8 variables, half of them sign-bound.

    Most inequality rows are tight at an integer anchor (degenerate ties
    in the ratio test), and every equality row comes twice.
    """
    d = int(rng.integers(4, 9))
    signed = rng.integers(0, 2, d) == 0
    x0 = rng.integers(0, 3, d).astype(float)
    rows = [(e, 0.0, ">=") for e in np.eye(d)[signed]]
    for _ in range(int(rng.integers(200, 251))):
        g = rng.integers(-3, 4, d).astype(float)
        rows.append((g, float(g @ x0) - float(rng.integers(0, 3) // 2), ">="))
    for _ in range(int(rng.integers(2, 5))):
        g = rng.integers(-3, 4, d).astype(float)
        rows += [(g, float(g @ x0), "==")] * 2
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        rows += [(e, -9.0, ">="), (-e, -9.0, ">=")]
    rng.shuffle(rows)
    return _lp(rng.integers(-3, 4, d).astype(float), rows, x0)


def test_solve_lp_matches_highs_on_large_degenerate_lps_with_duplicate_rows():
    rng = np.random.default_rng(20261020)
    for _ in range(24):
        lp, x0 = _large_lp(rng)
        _check_optimum(_solve(*lp, x0), lp)


def test_zero_objective_lps_match_highs():
    # feasibility LPs from both generators, and a hand case with duplicate
    # equality rows, each from its anchor: every reduced cost is zero, so
    # the anchor is the optimum, bit for bit
    rng = np.random.default_rng(20261022)
    dup = _lp(np.zeros(2), [([1.0, 1.0], 2.0, "==")] * 2 + [([1.0, -1.0], 0.0, ">=")],
              np.ones(2))
    lps = [dup] + [_random_lp(rng) if k % 12 else _large_lp(rng) for k in range(240)]
    for (_, G, h, lb, eq), x0 in lps:
        lp = np.zeros(G.shape[1]), G, h, lb, eq
        sol = _solve(*lp, x0)
        _check_optimum(sol, lp)
        assert sol.x.tobytes() == x0.tobytes() and sol.pivots == 0


def _endpoint_system(rng):
    """A polyhedral endpoint system: objective rows C (m x n) and the
    generators of k active rows, integers in [-3, 3]; every third instance
    takes C's first row from -cone(generators), so that both verdicts come
    up often."""
    n, m, k = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 5))
    C = rng.integers(-3, 4, (m, n)).astype(float)
    gens = rng.integers(-3, 4, (k, n)).astype(float)
    if k and rng.integers(0, 3) == 0:
        C[0] = -rng.integers(0, 3, k) @ gens
    return C, gens


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_endpoint_verdicts_match_highs_on_random_polyhedral_systems(scale):
    # HiGHS decides the equality LP C^T lam + gens^T mu = 0, sum(lam) = 1,
    # lam, mu >= 0 on the unscaled data; scaling C scales mu and leaves the
    # verdict alone.  A feasible endpoint's weights must nearly solve it,
    # and a failing one's direction d must have C d < 0 and gens d <= 0.
    from robustmolp.efficiency import ActiveGeometry, _solve_endpoint
    rng = np.random.default_rng(20261023)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(400):
        C, gens = _endpoint_system(rng)
        (m, n), k = C.shape, len(gens)
        G = np.zeros((n + 1, m + k))
        G[:n, :m], G[:n, m:], G[n, :m] = C.T, gens.T, 1.0
        status = highs(np.zeros(m + k), G, np.append(np.zeros(n), 1.0), 0.0, True)[0]
        seen[status] += 1
        geo = ActiveGeometry(tuple(range(k)), gens, tuple((i,) for i in range(k)))
        e = _solve_endpoint(scale * C, None, geo, [], np.zeros(n))
        assert e.feasible == (status == "optimal"), (C, gens)
        if e.feasible:
            mu = np.array([e.mu_of[i] for i in range(k)])
            assert np.all(e.lam >= 0.0) and e.lam.sum() == pytest.approx(1.0, abs=1e-12)
            # the kernel's tolerance, VI_TOL x max|C| with |C| <= 3
            assert np.linalg.norm(scale * C.T @ e.lam + gens.T @ mu) <= 3e-8 * scale
        else:
            d = e.direction
            assert np.all(C @ d < 0.0) and np.all(gens @ d <= 1e-9 * np.linalg.norm(d))
    assert all(count >= 50 for count in seen.values()), seen


def _nominal_system(rng, kind):
    """Rows (A, b) of a.x >= b, integers in [-4, 4]: "plain" random rows;
    "boundary" with one row beside its negation, so that the radius is 0
    and only the marker projection can decide; "scaled", a plain or
    boundary system with each row times 10^k, k in -6..6 (one k for both
    rows of a pair); "far", whose points lie 10^k from the origin, k in
    3..9: the plain system with b times 10^k, or rows anchored at an
    integer point times 10^k; "chain", x_1 >= b_1 in 1..4 and
    x_{i+1} >= 10^k x_i, k in 1..5, whose least-norm point reaches 4e10
    while every |b_j| <= 4, left alone or capped by -x_n >= -c x_n at
    that point, c = 2 (feasible) or 1/2 (infeasible)."""
    if kind == "chain":
        n = int(rng.integers(2, 4))
        A = np.eye(n)
        A[np.arange(1, n), np.arange(n - 1)] = -10.0 ** rng.integers(1, 6, n - 1)
        b = np.zeros(n)
        b[0] = rng.integers(1, 5)
        c = rng.choice([0.0, 0.5, 2.0])
        if c:
            A, b = np.vstack([A, -np.eye(n)[-1:]]), np.append(b, -c * np.linalg.solve(A, b)[-1])
        return A, b
    n, p = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    A = rng.integers(-4, 5, (p, n)).astype(float)
    b = rng.integers(-4, 5, p).astype(float)
    if kind == "far":
        k = int(rng.integers(3, 10))
        if rng.integers(0, 2):
            return A, b * 10.0 ** k
        return A, A @ (rng.integers(-3, 4, n) * 10.0 ** k) - rng.integers(0, 3, p)
    pair = kind == "boundary" or (kind == "scaled" and rng.integers(0, 2))
    if pair:
        A, b = np.vstack([A, -A[:1]]), np.append(b, -b[0])
    if kind == "scaled":
        k = rng.integers(-6, 7, len(A))
        if pair:
            k[-1] = k[0]
        A, b = A * 10.0 ** k[:, None], b * 10.0 ** k
    return A, b


@pytest.mark.parametrize("kind", ["plain", "boundary", "scaled", "far", "chain"])
def test_is_feasible_matches_highs(kind):
    # the marker projection against HiGHS on the same rows; a witness
    # meets every row up to VI_TOL = 1e-8 of its largest |coefficient|
    # times max(1, |x|), the size of the terms of a.x.  The projection's
    # distance is 1/sqrt(1 + |x/s|^2) at the least-norm point x: about
    # 1e-10 on a chain to 1e10, so that only the Farkas replay of its ray
    # coefficients tells a chain from an infeasible system
    rng = np.random.default_rng({"plain": 20261101, "boundary": 20261102, "scaled": 20261103,
                                 "far": 20261104, "chain": 20261105}[kind])
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(500):
        A, b = _nominal_system(rng, kind)
        status = highs(np.zeros(A.shape[1]), A, b, -_INF)[0]
        seen[status] += 1
        res = is_feasible(list(zip(A, b)))
        assert res.feasible == (status == "optimal"), (A, b)
        if res.feasible:
            mx = np.abs(A).max(axis=1)
            slack = (A @ res.x - b) / np.where(mx > 0, mx, 1.0)
            assert np.all(slack >= -1e-8 * max(1.0, np.abs(res.x).max())), (A, b, slack)
    assert all(count >= 50 for count in seen.values()), seen
