"""Problem representation: uncertain multi-objective LPs, per-constraint
uncertainty sets, validation, and worst-case constraint reduction.

A problem instance pairs a nominal objective matrix with a rank-1
perturbation segment {C_bar + rho * u v^T : rho in [0, 1]}, u >= 0, and one
uncertainty set per constraint row.  Reduction rewrites every constraint as
either finitely many linear rows or a single concave worst-case row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (SingularMatrixError, dual_norm_value, invert_symmetric,
                       norm_value)

_INF = float("inf")

BOX_DIMENSION_CAP = 16   # vertex enumeration is 2**n rows


class ValidationError(Exception):
    """A problem invariant is violated; `kind` names the failed check."""

    def __init__(self, kind, message, constraint=None):
        self.kind = kind
        self.constraint = constraint
        where = f" (constraint {constraint})" if constraint is not None else ""
        super().__init__(f"{kind}{where}: {message}")


class BoxTooLargeError(Exception):
    """Box vertex enumeration capped at 2**BOX_DIMENSION_CAP rows."""


def _vec(x):
    return np.atleast_1d(np.asarray(x, float))


def _mat(x):
    return np.atleast_2d(np.asarray(x, float))


@dataclass(frozen=True)
class Singleton:
    a_bar: np.ndarray
    b_bar: float

    kind = "singleton"

    def __post_init__(self):
        object.__setattr__(self, "a_bar", _vec(self.a_bar))
        object.__setattr__(self, "b_bar", float(self.b_bar))


@dataclass(frozen=True)
class Polytope:
    vertices: tuple  # points in R^{n+1}, each a coefficient-rhs pair

    kind = "polytope"

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple(_vec(v) for v in self.vertices))


@dataclass(frozen=True)
class Box:
    a_lo: np.ndarray
    a_hi: np.ndarray
    b_lo: float
    b_hi: float

    kind = "box"

    def __post_init__(self):
        object.__setattr__(self, "a_lo", _vec(self.a_lo))
        object.__setattr__(self, "a_hi", _vec(self.a_hi))
        object.__setattr__(self, "b_lo", float(self.b_lo))
        object.__setattr__(self, "b_hi", float(self.b_hi))


@dataclass(frozen=True)
class NormBall:
    a_bar: np.ndarray
    Z: np.ndarray
    delta: float
    s: float              # norm index: 1, 2, or inf
    b_lo: float
    b_hi: float

    kind = "norm_ball"

    def __post_init__(self):
        object.__setattr__(self, "a_bar", _vec(self.a_bar))
        object.__setattr__(self, "Z", _mat(self.Z))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "b_lo", float(self.b_lo))
        object.__setattr__(self, "b_hi", float(self.b_hi))


@dataclass(frozen=True)
class Ellipsoid:
    a0: np.ndarray
    spans: tuple          # q vectors in R^n (may be empty)
    b_lo: float
    b_hi: float

    kind = "ellipsoid"

    def __post_init__(self):
        object.__setattr__(self, "a0", _vec(self.a0))
        object.__setattr__(self, "spans", tuple(_vec(s) for s in self.spans))
        object.__setattr__(self, "b_lo", float(self.b_lo))
        object.__setattr__(self, "b_hi", float(self.b_hi))


@dataclass(frozen=True)
class Ball:
    """Joint Euclidean ball of radius alpha around (a_bar, b_bar)."""

    a_bar: np.ndarray
    b_bar: float
    alpha: float

    kind = "ball"

    def __post_init__(self):
        object.__setattr__(self, "a_bar", _vec(self.a_bar))
        object.__setattr__(self, "b_bar", float(self.b_bar))
        object.__setattr__(self, "alpha", float(self.alpha))


UNCERTAINTY_KINDS = ("singleton", "polytope", "box", "norm_ball",
                     "ellipsoid", "ball")


@dataclass(frozen=True)
class UncertainMOLP:
    m: int
    n: int
    C_bar: np.ndarray
    u: np.ndarray
    v: np.ndarray
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "C_bar", _mat(self.C_bar))
        object.__setattr__(self, "u", _vec(self.u))
        object.__setattr__(self, "v", _vec(self.v))
        object.__setattr__(self, "constraints", tuple(self.constraints))


@dataclass(frozen=True)
class ValidatedProblem:
    problem: UncertainMOLP


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _check_constraint_dims(c, n, j):
    if isinstance(c, Singleton):
        if c.a_bar.size != n:
            raise ValidationError("DimensionMismatch",
                                  f"a_bar has length {c.a_bar.size}, expected {n}", j)
    elif isinstance(c, Polytope):
        if len(c.vertices) == 0:
            raise ValidationError("EmptyVertexList", "polytope needs vertices", j)
        for v in c.vertices:
            if v.size != n + 1:
                raise ValidationError("DimensionMismatch",
                                      f"vertex has length {v.size}, expected {n + 1}", j)
    elif isinstance(c, Box):
        if c.a_lo.size != n or c.a_hi.size != n:
            raise ValidationError("DimensionMismatch", "box bounds must be in R^n", j)
        if np.any(c.a_lo > c.a_hi) or c.b_lo > c.b_hi:
            raise ValidationError("BadInterval", "lower bound exceeds upper bound", j)
    elif isinstance(c, NormBall):
        if c.a_bar.size != n:
            raise ValidationError("DimensionMismatch", "a_bar must be in R^n", j)
        if c.Z.shape != (n, n):
            raise ValidationError("DimensionMismatch", f"Z must be {n}x{n}", j)
        if np.abs(c.Z - c.Z.T).max() > 1e-9 * max(1.0, np.abs(c.Z).max()):
            raise ValidationError("AsymmetricZ", "Z must be symmetric", j)
        try:
            invert_symmetric(c.Z)
        except SingularMatrixError:
            raise ValidationError("SingularZ", "Z is numerically singular", j)
        if c.delta < 0:
            raise ValidationError("NegativeRadius", "delta must be >= 0", j)
        if c.s not in (1, 2, _INF):
            raise ValidationError("BadInterval", f"norm index {c.s!r} not in {{1,2,inf}}", j)
        if c.b_lo > c.b_hi:
            raise ValidationError("BadInterval", "b_lo exceeds b_hi", j)
    elif isinstance(c, Ellipsoid):
        if c.a0.size != n:
            raise ValidationError("DimensionMismatch", "a0 must be in R^n", j)
        for s in c.spans:
            if s.size != n:
                raise ValidationError("DimensionMismatch", "span vectors must be in R^n", j)
        if c.b_lo > c.b_hi:
            raise ValidationError("BadInterval", "b_lo exceeds b_hi", j)
    elif isinstance(c, Ball):
        if c.a_bar.size != n:
            raise ValidationError("DimensionMismatch", "a_bar must be in R^n", j)
        if c.alpha < 0:
            raise ValidationError("NegativeRadius", "alpha must be >= 0", j)
    else:
        raise ValidationError("DimensionMismatch",
                              f"unknown constraint type {type(c).__name__}", j)


def _check_finite(name, value, j=None):
    if isinstance(value, float):
        ok = math.isfinite(value)
    elif isinstance(value, tuple):      # polytope vertices, ellipsoid spans
        ok = all(np.isfinite(v).all() for v in value)
    else:
        ok = bool(np.isfinite(value).all())
    if not ok:
        raise ValidationError("NonFinite", f"{name} has a NaN or infinite entry", j)


def validate_dimensions(p: UncertainMOLP) -> None:
    """Everything validate_problem checks except the sign condition on u.

    Used by the scenario oracle, which must be able to analyse instances
    whose rank-1 factor has negative components.
    """
    if p.m < 1 or p.n < 1:
        raise ValidationError("DimensionMismatch", "m and n must be positive")
    if p.C_bar.shape != (p.m, p.n):
        raise ValidationError("DimensionMismatch",
                              f"C_bar is {p.C_bar.shape}, expected {(p.m, p.n)}")
    if p.u.size != p.m:
        raise ValidationError("DimensionMismatch", f"u has length {p.u.size}, expected {p.m}")
    if p.v.size != p.n:
        raise ValidationError("DimensionMismatch", f"v has length {p.v.size}, expected {p.n}")
    if len(p.constraints) < 1:
        raise ValidationError("DimensionMismatch", "at least one constraint required")
    for name in ("C_bar", "u", "v"):
        _check_finite(name, getattr(p, name))
    for j, c in enumerate(p.constraints):
        for name, value in vars(c).items():
            if name != "s":         # the norm index may be inf
                _check_finite(name, value, j)
        _check_constraint_dims(c, p.n, j)


def validate_problem(p: UncertainMOLP) -> ValidatedProblem:
    """Full invariant check; the certification theory additionally needs
    u >= 0 componentwise, so negative entries are rejected here."""
    validate_dimensions(p)
    if np.any(p.u < 0):
        bad = int(np.argmin(p.u))
        raise ValidationError(
            "NegativeU",
            f"u[{bad}] = {p.u[bad]} violates the componentwise u >= 0 requirement")
    return ValidatedProblem(p)


# ---------------------------------------------------------------------------
# Worst-case reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearRow:
    a: np.ndarray
    b: float
    source: int           # originating constraint index

    def __post_init__(self):
        object.__setattr__(self, "a", _vec(self.a))
        object.__setattr__(self, "b", float(self.b))

    def slack(self, x):
        return float(self.a @ x - self.b)


@dataclass(frozen=True)
class ConcaveRow:
    """Worst case of an affine norm-ball class {a_bar + P w : ||w||_s <= 1}.

    slack(x) = a_bar.x - b - ||P^T x||_{s*}, the s*-norm being the support
    function of the unit s-ball; scenario_row materializes one extreme
    realization a_bar + P w from a direction scaled to the unit s-sphere.
    """

    a_bar: np.ndarray
    b: float
    source: int
    P: np.ndarray         # n x q
    s: float              # norm index of w: 1, 2, or inf

    def direction_dim(self):
        return self.P.shape[1]

    def slack(self, x):
        x = np.asarray(x, float)
        return float(self.a_bar @ x - self.b - dual_norm_value(self.P.T @ x, self.s))

    def supergradient(self, x):
        y = self.P.T @ np.asarray(x, float)
        return self.a_bar - self.P @ _dual_norm_subgradient(y, self.s)

    def scenario_row(self, direction):
        """One realized (a, b) row from a direction in R^q."""
        d = np.asarray(direction, float)
        return self.a_bar + self.P @ (d / max(1e-30, norm_value(d, self.s))), self.b


def _dual_norm_subgradient(y, s):
    """A unit s-norm d with d.y equal to the conjugate norm of y."""
    if s == 2:
        ny = np.linalg.norm(y)
        return y / ny if ny > 1e-14 else np.zeros_like(y)
    if s == 1:
        # conjugate norm is max-abs: subgradient supported on argmax
        d = np.zeros_like(y)
        i = int(np.argmax(np.abs(y)))
        d[i] = np.sign(y[i])
        return d
    return np.sign(y)


@dataclass(frozen=True)
class BallRow:
    """Worst case of a joint Euclidean ball of radius alpha around (a_bar, b):
    slack(x) = a_bar.x - b - alpha * sqrt(x.x + 1)."""

    a_bar: np.ndarray
    b: float
    source: int
    alpha: float

    def direction_dim(self):
        return self.a_bar.size + 1

    def slack(self, x):
        x = np.asarray(x, float)
        return float(self.a_bar @ x - self.b - self.alpha * math.sqrt(float(x @ x) + 1.0))

    def supergradient(self, x):
        x = np.asarray(x, float)
        return self.a_bar - self.alpha * x / math.sqrt(float(x @ x) + 1.0)

    def scenario_row(self, direction):
        """One realized (a, b) row from a direction in R^{n+1}."""
        d = np.asarray(direction, float)
        u = d / max(1e-30, np.linalg.norm(d))
        n = self.a_bar.size
        return self.a_bar + self.alpha * u[:n], self.b + self.alpha * float(u[n])


@dataclass(frozen=True)
class RobustFeasibleSet:
    """Reduced representation of the robust feasible region."""

    n: int
    rows: tuple           # LinearRow / ConcaveRow / BallRow, constraint order

    @property
    def all_linear(self):
        return all(isinstance(r, LinearRow) for r in self.rows)

    def linear(self):
        return [r for r in self.rows if isinstance(r, LinearRow)]

    def concave(self):
        return [r for r in self.rows if not isinstance(r, LinearRow)]


def box_vertices(a_lo, a_hi):
    """All 2^n corner points, binary-counter order with bit 0 = coordinate 0."""
    a_lo = _vec(a_lo)
    a_hi = _vec(a_hi)
    n = a_lo.size
    if n > BOX_DIMENSION_CAP:
        raise BoxTooLargeError(
            f"box in R^{n} needs 2^{n} rows; cap is n <= {BOX_DIMENSION_CAP}")
    out = np.empty((1 << n, n))
    for l in range(1 << n):
        for i in range(n):
            out[l, i] = a_hi[i] if (l >> i) & 1 else a_lo[i]
    return out


def reduce_constraints(vp: ValidatedProblem) -> RobustFeasibleSet:
    """Rewrite each uncertainty class as its worst case.

    Singletons and polytope/box vertex enumerations become linear rows (the
    right-hand side of interval classes collapses to its upper endpoint);
    a norm ball becomes one ConcaveRow with P = delta Z^-1, an ellipsoid one
    with P = spans^T and s = 2, and a joint ball one BallRow.
    """
    p = vp.problem
    rows = []
    for j, c in enumerate(p.constraints):
        if isinstance(c, Singleton):
            rows.append(LinearRow(c.a_bar, c.b_bar, j))
        elif isinstance(c, Polytope):
            for v in c.vertices:
                rows.append(LinearRow(v[:p.n], float(v[p.n]), j))
        elif isinstance(c, Box):
            for a in box_vertices(c.a_lo, c.a_hi):
                rows.append(LinearRow(a, c.b_hi, j))
        elif isinstance(c, NormBall):
            if c.delta == 0.0:
                # zero perturbation radius: the worst case is exactly linear
                rows.append(LinearRow(c.a_bar, c.b_hi, j))
            else:
                rows.append(ConcaveRow(c.a_bar, c.b_hi, j,
                                       c.delta * invert_symmetric(c.Z), c.s))
        elif isinstance(c, Ellipsoid):
            if not c.spans:
                rows.append(LinearRow(c.a0, c.b_hi, j))
            else:
                rows.append(ConcaveRow(c.a0, c.b_hi, j, np.array(c.spans).T, 2))
        elif isinstance(c, Ball):
            rows.append(BallRow(c.a_bar, c.b_bar, j, c.alpha))
        else:  # pragma: no cover - validation rejects unknown classes
            raise ValidationError("DimensionMismatch", "unknown class", j)
    return RobustFeasibleSet(p.n, tuple(rows))


def endpoint_objectives(vp: ValidatedProblem):
    """The two extreme objective matrices of the rank-1 segment."""
    p = vp.problem if isinstance(vp, ValidatedProblem) else vp
    C0 = p.C_bar.copy()
    return C0, C0 + np.outer(p.u, p.v)


# ---------------------------------------------------------------------------
# Problem files (strict JSON schema)
# ---------------------------------------------------------------------------

class ProblemFormatError(Exception):
    """Problem file violates the documented JSON schema."""


_KIND_KEYS = {
    "singleton": {"kind", "a_bar", "b_bar"},
    "polytope": {"kind", "vertices"},
    "box": {"kind", "a_lo", "a_hi", "b_lo", "b_hi"},
    "norm_ball": {"kind", "a_bar", "Z", "delta", "s", "b_lo", "b_hi"},
    "ellipsoid": {"kind", "a0", "spans", "b_lo", "b_hi"},
    "ball": {"kind", "a_bar", "b_bar", "alpha"},
}


def _parse_norm_index(raw):
    if raw == "inf":
        return _INF
    if raw in (1, 2):
        return raw
    raise ProblemFormatError(f"norm index must be 1, 2 or \"inf\", got {raw!r}")


def _parse_constraint(obj, j):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"constraint {j} must be an object")
    kind = obj.get("kind")
    if kind not in _KIND_KEYS:
        raise ProblemFormatError(f"constraint {j}: unknown kind {kind!r}")
    extra = set(obj) - _KIND_KEYS[kind]
    missing = _KIND_KEYS[kind] - set(obj)
    if extra:
        raise ProblemFormatError(f"constraint {j}: unknown keys {sorted(extra)}")
    if missing:
        raise ProblemFormatError(f"constraint {j}: missing keys {sorted(missing)}")
    try:
        if kind == "singleton":
            return Singleton(obj["a_bar"], obj["b_bar"])
        if kind == "polytope":
            return Polytope(tuple(obj["vertices"]))
        if kind == "box":
            return Box(obj["a_lo"], obj["a_hi"], obj["b_lo"], obj["b_hi"])
        if kind == "norm_ball":
            return NormBall(obj["a_bar"], obj["Z"], obj["delta"],
                            _parse_norm_index(obj["s"]), obj["b_lo"], obj["b_hi"])
        if kind == "ellipsoid":
            return Ellipsoid(obj["a0"], tuple(obj["spans"]), obj["b_lo"], obj["b_hi"])
        return Ball(obj["a_bar"], obj["b_bar"], obj["alpha"])
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"constraint {j}: {exc}") from exc


_TOP_KEYS = {"m", "n", "C_bar", "u", "v", "constraints"}


def parse_problem(doc) -> UncertainMOLP:
    if not isinstance(doc, dict):
        raise ProblemFormatError("top-level value must be an object")
    extra = set(doc) - _TOP_KEYS
    missing = _TOP_KEYS - set(doc)
    if extra:
        raise ProblemFormatError(f"unknown top-level keys {sorted(extra)}")
    if missing:
        raise ProblemFormatError(f"missing top-level keys {sorted(missing)}")
    m, n = doc["m"], doc["n"]
    if not isinstance(m, int) or not isinstance(n, int) or m < 1 or n < 1:
        raise ProblemFormatError("m and n must be positive integers")
    if not isinstance(doc["constraints"], list):
        raise ProblemFormatError("constraints must be an array")
    cons = tuple(_parse_constraint(c, j) for j, c in enumerate(doc["constraints"]))
    try:
        return UncertainMOLP(m, n, doc["C_bar"], doc["u"], doc["v"], cons)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(str(exc)) from exc


def reject_nonfinite_constant(token):
    """`parse_constant` hook for json.load: NaN and Infinity are not JSON
    numbers and would slip past every later check as floats."""
    raise ProblemFormatError(f"non-finite number {token} is not allowed")


def load_problem(path) -> UncertainMOLP:
    """Read and parse a UTF-8 JSON problem file (unknown keys rejected)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject_nonfinite_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return parse_problem(doc)


def problem_to_dict(p: UncertainMOLP) -> dict:
    cons = []
    for c in p.constraints:
        if isinstance(c, Singleton):
            cons.append({"kind": "singleton", "a_bar": c.a_bar.tolist(),
                         "b_bar": c.b_bar})
        elif isinstance(c, Polytope):
            cons.append({"kind": "polytope",
                         "vertices": [v.tolist() for v in c.vertices]})
        elif isinstance(c, Box):
            cons.append({"kind": "box", "a_lo": c.a_lo.tolist(),
                         "a_hi": c.a_hi.tolist(), "b_lo": c.b_lo, "b_hi": c.b_hi})
        elif isinstance(c, NormBall):
            cons.append({"kind": "norm_ball", "a_bar": c.a_bar.tolist(),
                         "Z": c.Z.tolist(), "delta": c.delta,
                         "s": "inf" if c.s == _INF else c.s,
                         "b_lo": c.b_lo, "b_hi": c.b_hi})
        elif isinstance(c, Ellipsoid):
            cons.append({"kind": "ellipsoid", "a0": c.a0.tolist(),
                         "spans": [s.tolist() for s in c.spans],
                         "b_lo": c.b_lo, "b_hi": c.b_hi})
        else:
            cons.append({"kind": "ball", "a_bar": c.a_bar.tolist(),
                         "b_bar": c.b_bar, "alpha": c.alpha})
    return {"m": p.m, "n": p.n, "C_bar": p.C_bar.tolist(),
            "u": p.u.tolist(), "v": p.v.tolist(), "constraints": cons}
