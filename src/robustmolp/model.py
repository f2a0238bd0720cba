"""Problem representation: uncertain multi-objective LPs, per-constraint
uncertainty sets, validation, and worst-case constraint reduction.

A problem instance pairs a nominal objective matrix with a rank-1
perturbation segment {C_bar + rho * u v^T : rho in [0, 1]}, u >= 0, and one
uncertainty set per constraint row.  Reduction rewrites every constraint as
either finitely many linear rows or a single concave worst-case row; the
linear rows of all constraints are one array [A | b], each row tagged with
its constraint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .numerics import NumericalBreakdown, SingularMatrixError, require_nonsingular, slack_value

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
        if (self.a_lo > self.a_hi).any() or self.b_lo > self.b_hi:
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
            require_nonsingular(self.Z)     # reduce_constraints inverts it
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
    if (p.u < 0).any():
        bad = int(p.u.argmin())
        raise ValidationError(
            "NegativeU",
            f"u[{bad}] = {p.u[bad]} violates the componentwise u >= 0 requirement")
    return ValidatedProblem(p)


# ---------------------------------------------------------------------------
# Worst-case reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcaveRow:
    """Worst case of an affine class {[a_bar | b] + P w : ||w||_s <= 1} of
    rows [a | b], in the [A | b] layout of RobustFeasibleSet.rows.

    P has n + 1 rows; its last moves b.  That row is zero for a norm ball,
    a box or an ellipsoid, and a joint ball of radius alpha has
    P = alpha I.  On the homogeneous point (x, -1),
    slack(x) = [a_bar | b].(x, -1) - ||P^T (x, -1)||_{s*}, the s*-norm
    being the support function of the unit s-ball.  A box [a_lo, a_hi] is
    the s = inf class around its centre with P the diagonal of its half
    widths.
    """

    a_bar: np.ndarray
    b: float
    source: int
    P: np.ndarray         # (n + 1) x q, over (a, b)
    s: float              # norm index of w: 1, 2, or inf

    def image(self, x):
        """P^T (x, -1); a zero last row of P leaves P[:n]^T x bit for bit."""
        return self.P[:-1].T @ x - self.P[-1]

    def slack(self, x):
        """Never NaN.  For s = 1/inf this is the slack of the worst row
        (supergradient), which slack_value sums exactly when the float sum
        overflows; for s = 2 the closed form is kept while it is finite.
        A worst row that overflows itself reads as violated.
        """
        x = np.asarray(x, float)
        if self.s == 2:
            with np.errstate(over="ignore", invalid="ignore"):
                v = float(self.a_bar @ x - self.b - np.linalg.norm(self.image(x)))
            if math.isfinite(v):
                return v
        r = self.supergradient(x)
        return slack_value(r[:-1], x, float(r[-1])) if np.isfinite(r).all() else -_INF

    def worst_case(self, x):
        """w*, a unit s-norm vector with w*.P^T (x, -1) = ||P^T (x, -1)||_{s*}."""
        x = np.asarray(x, float)
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.image(x)
            if not np.isfinite(y).all():
                # only the direction of y matters: take it from copies
                # scaled by powers of two, whose product cannot overflow
                y = _unit_scaled(self.P).T @ _unit_scaled(np.append(x, -1.0))
            return _dual_norm_subgradient(y, self.s)

    def supergradient(self, x):
        """The worst realization [a | b] = realize(worst_case(x)) at x."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.realize(self.worst_case(x))

    def realize(self, w):
        """The row [a | b] = [a_bar | b] - P w, one (n + 1)-array."""
        r = np.empty(len(self.P))
        r[:-1] = self.a_bar - self.P[:-1] @ w
        # 0.0 + turns a -0.0 into 0.0: a zero last row leaves b bit for bit
        r[-1] = self.b - (0.0 + self.P[-1] @ w)
        return r


def dual_norm_bands(P, s, width, col):
    """Band rows tau >= +-P^T (x, -1) that bound the norm of P^T (x, -1)
    conjugate to the s-norm by auxiliary columns tau: one tau bounds the
    inf-norm (s = 1), one tau per column of P the 1-norm (s = inf, the
    taus summed on the main row).  Returns the 2q rows as a 2q x width
    array in the [A | b] layout, x in the first n columns, the taus from
    column col and the right-hand side +-P[n] last; the rows
    tau >= -P^T (x, -1) come first.
    """
    n, q = len(P) - 1, P.shape[1]
    bands = np.zeros((2 * q, width))
    bands[:q, :n], bands[q:, :n] = P[:-1].T, -P[:-1].T
    # 0.0 - keeps the right-hand side of a zero last row +0.0
    bands[:q, -1], bands[q:, -1] = P[-1], 0.0 - P[-1]
    i = np.arange(2 * q)
    bands[i, col + (0 if s == 1 else i % q)] = 1.0
    return bands


def _carried_tau(row, x):
    """(tau, 2^e): the smallest tau of an s = 1/inf row at x, divided by 2^e.

    e = 0 while z = |P^T (x, -1)| is finite.  Beyond the float range e
    brings the largest tau to about 2^1000, and tau is z / 2^e summed in
    exact rationals and rounded up, so that every band row holds exactly; a
    2^e that itself overflows raises NumericalBreakdown.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.abs(row.image(x))
    if not np.isfinite(z).all():
        xh = [*x.tolist(), -1.0]
        z = [abs(sum(Fraction(p) * Fraction(v) for p, v in zip(col, xh)))
             for col in row.P.T.tolist()]
        top = max(z)
        e = max(0, top.numerator.bit_length() - top.denominator.bit_length() - 1000)
        if e > 1023:
            raise NumericalBreakdown("the lifted point's tau = |P^T (x, -1)| overflows "
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
        i = int(np.abs(y).argmax())
        d[i] = np.sign(y[i])
        return d
    return np.sign(y)


@dataclass(frozen=True)
class RobustFeasibleSet:
    """Reduced representation of the robust feasible region.

    The linear rows a.x >= b are one k x (n + 1) array [A | b], the layout
    of the hypographical set, with the constraint each row comes from;
    the concave worst-case rows are a tuple.  Both are in constraint
    order, and a constraint has linear rows or one concave row.
    """

    n: int
    rows: np.ndarray      # k x (n + 1): [A | b]
    source: np.ndarray    # k constraint indices, nondecreasing
    concave: tuple = ()   # ConcaveRow
    lifted: tuple = ()    # (index of its main row, ConcaveRow) per lifted ball

    @property
    def A(self):
        return self.rows[:, :-1]

    @property
    def b(self):
        return self.rows[:, -1]

    def slack(self, x):
        """A x - b, never NaN: an entry that is not finite is redone by
        slack_value, so that an overflow keeps its sign."""
        x = np.asarray(x, float)
        with np.errstate(over="ignore", invalid="ignore"):
            s = self.A @ x - self.b
        if not np.isfinite(s).all():
            for i in (~np.isfinite(s)).nonzero()[0]:
                s[i] = slack_value(self.A[i], x, self.b[i])
        return s

    def positions(self, sizes):
        """Row positions in constraint order when concave row i becomes
        sizes[i] rows among the linear rows: those of the linear rows, and
        the first of each concave row's."""
        src = [r.source for r in self.concave]
        ends = np.array([0, *sizes]).cumsum()
        return (np.arange(len(self.rows)) + ends[np.array(src, int).searchsorted(self.source)],
                self.source.searchsorted(src) + ends[:-1])

    def lift(self, x_bar):
        """Rewrite each s = 1/inf ConcaveRow, boxes included, as linear rows
        over (x, tau).

        The worst case a_bar.x - b - ||P^T (x, -1)||_{s*} >= 0 becomes the
        main row a_bar.x - sum(tau) >= b followed by its band rows
        tau >= +-P^T (x, -1) (dual_norm_bands); every other row gets zero
        coefficients on the taus, and a 2-norm row zero rows of P on them.
        The lifted set projects onto this one, so a point is weakly
        efficient for C here exactly when its lift is for [C 0] there.
        Returns the lifted set and point (x_bar, tau) with the smallest tau:
        |P^T (x_bar, -1)| for s = inf, its largest entry for s = 1.  A ball
        whose tau overflows carries its tau columns at one power of two 2^e
        (_carried_tau): -2^e on its main row and 2^e on its band rows, with
        e = 0 whenever tau is finite.  A set with no such row comes back
        unchanged with x_bar.
        """
        balls = [r.s != 2 for r in self.concave]
        if not any(balls):
            return self, x_bar
        x_bar = np.asarray(x_bar, float)
        n = self.n
        # tau columns and lifted rows (main and bands) of each concave row
        widths = [(1 if r.s == 1 else r.P.shape[1]) * ball
                  for r, ball in zip(self.concave, balls)]
        sizes = [(1 + 2 * r.P.shape[1]) * ball for r, ball in zip(self.concave, balls)]
        pad = sum(widths)
        lin, starts = self.positions(sizes)
        M = np.zeros((len(self.rows) + sum(sizes), n + pad + 1))
        M[lin, :n], M[lin, -1] = self.A, self.b
        source = np.empty(len(M), int)
        source[lin] = self.source
        concave, lifted, taus, col = [], [], [x_bar], n
        for r, w, i, size in zip(self.concave, widths, starts, sizes):
            if not size:
                # zero rows on the taus; b's row stays last
                P = np.concatenate([r.P[:-1], np.zeros((pad, r.P.shape[1])), r.P[-1:]])
                concave.append(replace(r, a_bar=np.concatenate([r.a_bar, np.zeros(pad)]), P=P))
                continue
            tau, unit = _carried_tau(r, x_bar)
            end = i + size
            M[i, :n], M[i, col:col + w], M[i, -1] = r.a_bar, -unit, r.b
            M[i + 1:end] = dual_norm_bands(r.P, r.s, n + pad + 1, col)
            M[i + 1:end, col:col + w] *= unit
            source[i:end] = r.source
            lifted.append((int(i), r))
            taus.append(tau)
            col += w
        return (RobustFeasibleSet(n + pad, M, source, tuple(concave), tuple(lifted)),
                np.concatenate(taus))


def reduce_constraints(vp: ValidatedProblem) -> RobustFeasibleSet:
    """Rewrite each uncertainty class as its worst case.

    Singletons and polytope vertices become linear rows (the right-hand
    side of interval classes collapses to its upper endpoint).  A box is
    the s = inf ball around its centre with P = diag(half widths), the
    columns of zero width dropped; a norm ball becomes one ConcaveRow with
    P = delta Z^-1, an ellipsoid one with P = spans^T and s = 2, each P
    with a zero row below for b, and a joint ball one with P = alpha I over
    (a, b) and s = 2.  A class with no perturbation left (a flat box,
    delta = 0, no spans, alpha = 0) is one linear row.
    """
    p = vp.problem
    rows, source, concave = [], [], []
    for j, c in enumerate(p.constraints):
        if isinstance(c, Polytope):
            rows += c.vertices
            source += [j] * len(c.vertices)
            continue
        a, P, s = own_row(c, 0, p.n), None, 2
        b = c.b_bar if isinstance(c, (Singleton, Ball)) else c.b_hi
        if isinstance(c, NormBall) and c.delta != 0.0:
            P, s = c.delta * np.linalg.inv(c.Z), c.s
        elif isinstance(c, Ellipsoid) and c.spans:
            P = np.array(c.spans).T
        if P is not None:
            P = np.concatenate([P, np.zeros((1, P.shape[1]))])
        elif isinstance(c, Box):
            # diag(half widths) over a zero row for b, zero widths dropped
            keep = (half := 0.5 * c.a_hi - 0.5 * c.a_lo) > 0.0
            P, s = np.eye(p.n + 1, p.n)[:, keep] * half[keep], _INF
        elif isinstance(c, Ball) and c.alpha != 0.0:
            P = c.alpha * np.eye(p.n + 1)
        if P is None or not P.size:
            rows.append([*a.tolist(), b])
            source.append(j)
        else:
            concave.append(ConcaveRow(a, b, j, P, s))
    return RobustFeasibleSet(p.n, np.array(rows, float).reshape(-1, p.n + 1),
                             np.array(source, int), tuple(concave))


def own_row(c, i, n):
    """Row i's coefficients, or a concave row's a_bar, as constraint c's own
    array (a view of a polytope vertex), which a certificate record can hold
    without keeping the reduced set alive; a box's centre is computed."""
    if isinstance(c, Polytope):
        return c.vertices[i][:n]
    if isinstance(c, Box):      # halves first: a_lo + a_hi may overflow where they do not
        return 0.5 * c.a_lo + 0.5 * c.a_hi
    return c.a0 if isinstance(c, Ellipsoid) else c.a_bar


def endpoint_objectives(vp: ValidatedProblem):
    """The two extreme objective matrices of the rank-1 segment."""
    p = vp.problem if isinstance(vp, ValidatedProblem) else vp
    C0 = p.C_bar.copy()
    return C0, C0 + p.u[:, None] * p.v


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
