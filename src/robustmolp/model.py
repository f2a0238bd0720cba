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
from fractions import Fraction

import numpy as np

from .numerics import (NumericalBreakdown, SingularMatrixError,
                       invert_symmetric, norm_value, slack_value)

_INF = float("inf")


class ValidationError(Exception):
    """A problem invariant is violated; `kind` names the failed check."""

    def __init__(self, kind, message, constraint=None):
        self.kind = kind
        self.constraint = constraint
        where = f" (constraint {constraint})" if constraint is not None else ""
        super().__init__(f"{kind}{where}: {message}")


def _vec(x):
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == float:
        return x
    return np.atleast_1d(np.asarray(x, float))


def _mat(x):
    return np.atleast_2d(np.asarray(x, float))


def _vecs(x):
    return tuple(map(_vec, x))


# Field types of the uncertainty classes.  Each class annotates its fields
# with these names, which stay strings (postponed annotations, see the
# __future__ import); _FIELD_TYPES gives each name its coercion and the
# shape in a problem over R^n of its value, or of each entry of a tuple.
# A norm index (no coercion) is kept as given and checked by its class.
Vector = Matrix = np.ndarray    # in R^n; n x n
Vectors = Points = tuple        # vectors in R^n; points in R^{n+1}
Scalar = NormIndex = float      # a number; 1, 2 or inf

_FIELD_TYPES = {
    "Vector": (_vec, lambda n: (n,)),
    "Matrix": (_mat, lambda n: (n, n)),
    "Vectors": (_vecs, lambda n: (n,)),
    "Points": (_vecs, lambda n: (n + 1,)),
    "Scalar": (float, None),
    "NormIndex": (None, None),
}
_KINDS = {}                     # JSON kind -> uncertainty class


class _UncertaintySet:
    """Base of the uncertainty classes: a subclass's (name, coerce, shape)
    fields are read once, when it is defined, and coerced on construction."""

    def __init_subclass__(cls, kind):
        cls.kind = kind
        _KINDS[kind] = cls
        cls._fields = tuple((name, *_FIELD_TYPES[ann])
                            for name, ann in cls.__annotations__.items())

    def __post_init__(self):
        for name, coerce, _ in self._fields:
            if coerce is not None:
                object.__setattr__(self, name, coerce(getattr(self, name)))

    def check_rules(self, j):
        """The class's own invariants, on finite fields of their shapes."""


@dataclass(frozen=True)
class Singleton(_UncertaintySet, kind="singleton"):
    a_bar: Vector
    b_bar: Scalar


@dataclass(frozen=True)
class Polytope(_UncertaintySet, kind="polytope"):
    vertices: Points      # each a coefficient-rhs pair

    def check_rules(self, j):
        if not self.vertices:
            raise ValidationError("EmptyVertexList", "polytope needs vertices", j)


@dataclass(frozen=True)
class Box(_UncertaintySet, kind="box"):
    a_lo: Vector
    a_hi: Vector
    b_lo: Scalar
    b_hi: Scalar

    def check_rules(self, j):
        if np.any(self.a_lo > self.a_hi) or self.b_lo > self.b_hi:
            raise ValidationError("BadInterval", "lower bound exceeds upper bound", j)


@dataclass(frozen=True)
class NormBall(_UncertaintySet, kind="norm_ball"):
    a_bar: Vector
    Z: Matrix
    delta: Scalar
    s: NormIndex
    b_lo: Scalar
    b_hi: Scalar

    def check_rules(self, j):
        if np.abs(self.Z - self.Z.T).max() > 1e-9 * max(1.0, np.abs(self.Z).max()):
            raise ValidationError("AsymmetricZ", "Z must be symmetric", j)
        try:
            invert_symmetric(self.Z)
        except SingularMatrixError:
            raise ValidationError("SingularZ", "Z is numerically singular", j)
        if self.delta < 0:
            raise ValidationError("NegativeRadius", "delta must be >= 0", j)
        if self.s not in (1, 2, _INF):
            raise ValidationError("BadInterval", f"norm index {self.s!r} not in {{1,2,inf}}", j)
        if self.b_lo > self.b_hi:
            raise ValidationError("BadInterval", "b_lo exceeds b_hi", j)


@dataclass(frozen=True)
class Ellipsoid(_UncertaintySet, kind="ellipsoid"):
    a0: Vector
    spans: Vectors        # q of them, possibly none
    b_lo: Scalar
    b_hi: Scalar

    def check_rules(self, j):
        if self.b_lo > self.b_hi:
            raise ValidationError("BadInterval", "b_lo exceeds b_hi", j)


@dataclass(frozen=True)
class Ball(_UncertaintySet, kind="ball"):
    """Joint Euclidean ball of radius alpha around (a_bar, b_bar)."""

    a_bar: Vector
    b_bar: Scalar
    alpha: Scalar

    def check_rules(self, j):
        if self.alpha < 0:
            raise ValidationError("NegativeRadius", "alpha must be >= 0", j)


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

def _check_finite(name, value, j=None):
    if not (math.isfinite(value) if type(value) is float else np.isfinite(value).all()):
        raise ValidationError("NonFinite", f"{name} has a NaN or infinite entry", j)


def validate_dimensions(p: UncertainMOLP) -> None:
    """Everything validate_problem checks except the sign condition on u.

    Used by the scenario oracle, which must be able to analyse instances
    whose rank-1 factor has negative components.
    """
    if p.m < 1 or p.n < 1:
        raise ValidationError("DimensionMismatch", "m and n must be positive")
    for name, want in (("C_bar", (p.m, p.n)), ("u", (p.m,)), ("v", (p.n,))):
        if getattr(p, name).shape != want:
            raise ValidationError("DimensionMismatch",
                                  f"{name} has shape {getattr(p, name).shape}, expected {want}")
    if len(p.constraints) < 1:
        raise ValidationError("DimensionMismatch", "at least one constraint required")
    # (j, name, array) of the data: one isfinite call checks all of them
    arrays = [(None, name, getattr(p, name)) for name in ("C_bar", "u", "v")]
    for j, c in enumerate(p.constraints):
        if not isinstance(c, _UncertaintySet):
            raise ValidationError("DimensionMismatch",
                                  f"unknown constraint type {type(c).__name__}", j)
        for name, coerce, shape in c._fields:
            value = getattr(c, name)
            if shape is None:
                if coerce is not None:      # the norm index is a class rule
                    _check_finite(name, value, j)
                continue
            for a in value if type(value) is tuple else (value,):
                if a.shape != shape(p.n):
                    raise ValidationError("DimensionMismatch",
                                          f"{name} has shape {a.shape}, expected {shape(p.n)}", j)
                arrays.append((j, name, a))
    if not np.isfinite(np.concatenate([a for *_, a in arrays], axis=None)).all():
        for j, name, a in arrays:
            _check_finite(name, a, j)
    for j, c in enumerate(p.constraints):
        c.check_rules(j)


def validate_problem(p: UncertainMOLP) -> ValidatedProblem:
    """Full invariant check; certification also needs a finite perturbed
    objective C_bar + u v^T and u >= 0 componentwise, so an overflowing
    endpoint and negative entries of u are rejected here."""
    validate_dimensions(p)
    with np.errstate(over="ignore"):
        _check_finite("C_bar + u v^T", endpoint_objectives(p)[1])
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
        return slack_value(self.a, x, self.b)


@dataclass(frozen=True)
class ConcaveRow:
    """Worst case of an affine norm-ball class {a_bar + P w : ||w||_s <= 1}.

    slack(x) = a_bar.x - b - ||P^T x||_{s*}, the s*-norm being the support
    function of the unit s-ball; scenario_row materializes one extreme
    realization a_bar + P w from a direction scaled to the unit s-sphere.
    A box [a_lo, a_hi] is the s = inf class around its centre with P the
    diagonal of its half widths.
    """

    a_bar: np.ndarray
    b: float
    source: int
    P: np.ndarray         # n x q
    s: float              # norm index of w: 1, 2, or inf

    def direction_dim(self):
        return self.P.shape[1]

    def slack(self, x):
        """Never NaN.  For s = 1/inf this is the slack of the worst row
        a_bar - P w* (supergradient), which slack_value sums exactly when
        the float sum overflows; for s = 2 the closed form is kept while it
        is finite.  A worst row that overflows itself reads as violated.
        """
        x = np.asarray(x, float)
        if self.s == 2:
            with np.errstate(over="ignore", invalid="ignore"):
                v = float(self.a_bar @ x - self.b - np.linalg.norm(self.P.T @ x))
            if math.isfinite(v):
                return v
        a = self.supergradient(x)
        return slack_value(a, x, self.b) if np.isfinite(a).all() else -_INF

    def supergradient(self, x):
        """The worst realization a_bar - P w* at x, w* a unit s-norm vector
        with w*.P^T x = ||P^T x||_{s*}."""
        x = np.asarray(x, float)
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.P.T @ x
            if not np.isfinite(y).all():
                # only the direction of P^T x matters: take it from copies
                # scaled by powers of two, whose product cannot overflow
                y = _unit_scaled(self.P).T @ _unit_scaled(x)
            return self.a_bar - self.P @ _dual_norm_subgradient(y, self.s)

    def scenario_row(self, direction):
        """One realized (a, b) row from a direction in R^q."""
        d = np.asarray(direction, float)
        return self.a_bar + self.P @ (d / max(1e-30, norm_value(d, self.s))), self.b


def dual_norm_bands(P, s, width=None, col=None):
    """Band rows tau >= +-P^T x that bound the norm of P^T x conjugate to
    the s-norm by auxiliary columns tau: one tau bounds the inf-norm
    (s = 1), one tau per column of P the 1-norm (s = inf, the taus summed
    by the caller).  Returns the 2q rows, each >= 0, as a 2q x width array
    with x in the first n columns and the k taus from column col (by
    default width n + k and col n); the rows tau >= -P^T x come first.
    """
    n, q = P.shape
    k = 1 if s == 1 else q
    col = n if col is None else col
    bands = np.zeros((2 * q, n + k if width is None else width))
    bands[:q, :n], bands[q:, :n] = P.T, -P.T
    i = np.arange(2 * q)
    bands[i, col + (0 if k == 1 else i % q)] = 1.0
    return bands


def _carried_tau(row, x):
    """(tau, 2^e): the smallest tau of an s = 1/inf row at x, divided by 2^e.

    e = 0 while |P^T x| is finite.  Beyond the float range e brings the
    largest tau to about 2^1000, and tau is |P^T x| / 2^e summed in exact
    rationals and rounded up, so that every band row holds exactly; a 2^e
    that itself overflows raises NumericalBreakdown.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.abs(row.P.T @ x)
    if not np.isfinite(z).all():
        z = [abs(sum(Fraction(p) * Fraction(v) for p, v in zip(col, x.tolist())))
             for col in row.P.T.tolist()]
        top = max(z)
        e = max(0, top.numerator.bit_length() - top.denominator.bit_length() - 1000)
        if e > 1023:
            raise NumericalBreakdown("the lifted point's tau = |P^T x| overflows "
                                     "the float range even scaled by 2^1023")
        # the least float >= each scaled tau
        z = np.array([f if Fraction(f := float(q)) >= q else math.nextafter(f, _INF)
                      for q in (q / (1 << e) for q in z)])
        unit = math.ldexp(1.0, e)
    else:
        unit = 1.0
    return (z.max(keepdims=True) if row.s == 1 else z), unit


def _unit_scaled(a):
    """a times the power of two that brings its largest entry below 1."""
    return np.ldexp(a, -math.frexp(float(np.abs(a).max(initial=0.0)))[1])


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
    lifted: tuple = ()    # (index of its main row, ConcaveRow) per lifted ball

    def lift(self, x_bar):
        """Rewrite each s = 1/inf ConcaveRow, boxes included, as linear rows
        over (x, tau).

        The worst case a_bar.x - ||P^T x||_{s*} >= b becomes the main row
        a_bar.x - sum(tau) >= b followed by its band rows tau >= +-P^T x
        (dual_norm_bands); every other row gets zero coefficients on the
        taus.  The lifted set projects onto this one, so a point is weakly
        efficient for C here exactly when its lift is for [C 0] there.
        Returns the lifted set and point (x_bar, tau) with the smallest tau:
        |P^T x_bar| for s = inf, max |P^T x_bar| for s = 1.  A ball whose tau
        overflows carries its tau columns at one power of two 2^e
        (_carried_tau): -2^e on its main row and 2^e on its band rows, with
        e = 0 whenever tau is finite.  A set with no such row, or with a
        joint-ball row (no form over extra columns), comes back unchanged
        with x_bar.
        """
        balls = [r for r in self.rows if isinstance(r, ConcaveRow) and r.s != 2]
        if not balls or any(isinstance(r, BallRow) for r in self.rows):
            return self, x_bar
        x_bar = np.asarray(x_bar, float)
        n = self.n
        pad = sum(1 if r.s == 1 else r.P.shape[1] for r in balls)
        # the linear and main rows are views of one matrix, padded at once
        heads = [r.a if isinstance(r, LinearRow) else r.a_bar for r in self.rows
                 if isinstance(r, LinearRow) or r.s != 2]
        A = np.zeros((len(heads), n + pad))
        A[:, :n] = heads
        padded = iter(A)
        rows, lifted, taus, col = [], [], [x_bar], n
        for r in self.rows:
            if isinstance(r, LinearRow):
                rows.append(LinearRow(next(padded), r.b, r.source))
            elif r.s == 2:
                P = np.concatenate([r.P, np.zeros((pad, r.P.shape[1]))])
                rows.append(ConcaveRow(np.concatenate([r.a_bar, np.zeros(pad)]), r.b,
                                       r.source, P, 2))
            else:
                k = 1 if r.s == 1 else r.P.shape[1]
                tau, unit = _carried_tau(r, x_bar)
                main = next(padded)
                main[col:col + k] = -unit
                lifted.append((len(rows), r))
                rows.append(LinearRow(main, r.b, r.source))
                bands = dual_norm_bands(r.P, r.s, n + pad, col)
                bands[:, col:col + k] *= unit
                rows += [LinearRow(g, 0.0, r.source) for g in bands]
                taus.append(tau)
                col += k
        return RobustFeasibleSet(n + pad, tuple(rows), tuple(lifted)), np.concatenate(taus)

    @property
    def all_linear(self):
        return all(isinstance(r, LinearRow) for r in self.rows)

    def linear(self):
        return [r for r in self.rows if isinstance(r, LinearRow)]

    def concave(self):
        return [r for r in self.rows if not isinstance(r, LinearRow)]


def reduce_constraints(vp: ValidatedProblem) -> RobustFeasibleSet:
    """Rewrite each uncertainty class as its worst case.

    Singletons and polytope vertices become linear rows (the right-hand
    side of interval classes collapses to its upper endpoint).  A box is
    the s = inf ball around its centre with P = diag(half widths), the
    columns of zero width dropped; a norm ball becomes one ConcaveRow with
    P = delta Z^-1, an ellipsoid one with P = spans^T and s = 2, and a
    joint ball one BallRow.  A class with no perturbation left (a flat box,
    delta = 0, no spans) is one linear row.
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
            # halves first: a_lo + a_hi may overflow where each half does not
            centre = 0.5 * c.a_lo + 0.5 * c.a_hi
            half = 0.5 * c.a_hi - 0.5 * c.a_lo
            wide = half > 0.0
            if wide.any():
                rows.append(ConcaveRow(centre, c.b_hi, j, np.diag(half)[:, wide], _INF))
            else:
                rows.append(LinearRow(centre, c.b_hi, j))
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


def _json_numbers(raw):
    """True for a JSON number or nested arrays of them (a bool is not one)."""
    if type(raw) is list:
        return all(map(_json_numbers, raw))
    return type(raw) in (int, float)


def _json_value(name, raw, norm_index=False):
    """raw, which must be JSON numbers; a norm index 1, 2 or "inf" (inf)."""
    if norm_index and raw == "inf":
        return _INF
    if not _json_numbers(raw) or norm_index and raw not in (1, 2):
        raise ValueError(f"norm index must be 1, 2 or \"inf\", got {raw!r}" if norm_index
                         else f"{name} must hold JSON numbers only")
    return raw


def _check_keys(obj, keys, where):
    for what, bad in (("unknown", set(obj) - keys), ("missing", keys - set(obj))):
        if bad:
            raise ProblemFormatError(f"{where}{what} keys {sorted(bad)}")


def _parse_constraint(obj, j):
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"constraint {j} must be an object")
    kind = obj.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProblemFormatError(f"constraint {j}: unknown kind {kind!r}")
    _check_keys(obj, {"kind", *(f[0] for f in cls._fields)}, f"constraint {j}: ")
    try:
        return cls(*(_json_value(name, obj[name], norm_index=coerce is None)
                     for name, coerce, _ in cls._fields))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"constraint {j}: {exc}") from exc


_TOP_KEYS = {"m", "n", "C_bar", "u", "v", "constraints"}


def parse_problem(doc) -> UncertainMOLP:
    if not isinstance(doc, dict):
        raise ProblemFormatError("top-level value must be an object")
    _check_keys(doc, _TOP_KEYS, "top level: ")
    m, n = doc["m"], doc["n"]
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise ProblemFormatError("m and n must be positive integers")
    if not isinstance(doc["constraints"], list):
        raise ProblemFormatError("constraints must be an array")
    cons = tuple(_parse_constraint(c, j) for j, c in enumerate(doc["constraints"]))
    try:
        return UncertainMOLP(m, n, *(_json_value(k, doc[k]) for k in ("C_bar", "u", "v")), cons)
    except (TypeError, ValueError, OverflowError) as exc:
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


def _field_to_json(value, coerce, shape):
    if shape is not None:
        return [a.tolist() for a in value] if type(value) is tuple else value.tolist()
    return "inf" if coerce is None and value == _INF else value


def problem_to_dict(p: UncertainMOLP) -> dict:
    cons = [{"kind": c.kind, **{name: _field_to_json(getattr(c, name), *spec)
                                for name, *spec in c._fields}}
            for c in p.constraints]
    return {"m": p.m, "n": p.n, "C_bar": p.C_bar.tolist(),
            "u": p.u.tolist(), "v": p.v.tolist(), "constraints": cons}
