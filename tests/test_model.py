import json
import math
import warnings

import numpy as np
import pytest

from conftest import box_vertices
from robustmolp.model import (Ball, BallRow, Box, ConcaveRow, Ellipsoid,
                              LinearRow, NormBall, Polytope,
                              ProblemFormatError, Singleton, UncertainMOLP,
                              ValidationError,
                              endpoint_objectives, load_problem, parse_problem,
                              problem_to_dict, reduce_constraints,
                              validate_dimensions, validate_problem)
from robustmolp.numerics import sphere_directions

_INF = float("inf")

V1 = Polytope(((-2, -1, -2, -6), (-1, -2, -2, -6)))
V2 = Polytope(((-1, 0, 0, -3), (0, -1, 0, -3), (0, 0, -1, -3)))
C2 = [[-3, -1, -2], [0, -1, -2]]


def example2_problem(u=(-1, 1)):
    return UncertainMOLP(2, 3, C2, u, (0, -3, 0), (V1, V2))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_negative_u_rejected():
    with pytest.raises(ValidationError) as exc:
        validate_problem(example2_problem())
    assert exc.value.kind == "NegativeU"


def test_zero_u_accepted():
    vp = validate_problem(example2_problem(u=(0, 0)))
    C0, C1 = endpoint_objectives(vp)
    assert np.array_equal(C0, C1)


def test_bad_interval_rejected():
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (Box([1.0], [2.0], 2.0, 1.0),))
    with pytest.raises(ValidationError) as exc:
        validate_problem(p)
    assert exc.value.kind == "BadInterval"
    assert exc.value.constraint == 0


def test_dimension_mismatch_rejected():
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                      (Singleton([1.0], 0.0),))
    with pytest.raises(ValidationError) as exc:
        validate_problem(p)
    assert exc.value.kind == "DimensionMismatch"


def test_singular_z_rejected():
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                      (NormBall([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]],
                                0.5, 2, 0.0, 0.0),))
    with pytest.raises(ValidationError) as exc:
        validate_problem(p)
    assert exc.value.kind == "SingularZ"


def test_empty_vertex_list_rejected():
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Polytope(()),))
    with pytest.raises(ValidationError) as exc:
        validate_problem(p)
    assert exc.value.kind == "EmptyVertexList"


def test_non_finite_data_rejected():
    nan = float("nan")
    cases = [
        (UncertainMOLP(1, 2, [[nan, 0.0]], [0.0], [0.0, 0.0],
                       (Singleton([1.0, 0.0], 0.0),)), None),
        (UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                       (Singleton([_INF, 1.0], 0.0),)), 0),
        (UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                       (Singleton([1.0], 0.0), Polytope(((1.0, 0.0), (2.0, nan))))), 1),
        (UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                       (NormBall([1.0], [[nan]], 0.5, 2, 0.0, 0.0),)), 0),
    ]
    for p, where in cases:
        with pytest.raises(ValidationError) as exc:
            validate_dimensions(p)
        assert exc.value.kind == "NonFinite"
        assert exc.value.constraint == where
    # an infinite norm index is a valid choice, not non-finite data
    ok = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                       (NormBall([1.0], [[1.0]], 0.5, _INF, 0.0, 0.0),))
    validate_dimensions(ok)


def test_non_finite_json_constants_rejected(tmp_path):
    for text in ('[Infinity, 1]', '[NaN, 1]', '[-Infinity, 1]'):
        path = tmp_path / "p.json"
        path.write_text('{"m": 1, "n": 2, "C_bar": [[0, 0]], "u": [0], "v": [0, 0], '
                        '"constraints": [{"kind": "singleton", "a_bar": %s, '
                        '"b_bar": 0}]}' % text, encoding="utf-8")
        with pytest.raises(ProblemFormatError, match="non-finite"):
            load_problem(path)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduction_of_two_polytopes_gives_five_rows():
    vp = validate_problem(example2_problem(u=(1, 0)))
    X = reduce_constraints(vp)
    assert X.all_linear and len(X.rows) == 5
    expected = [((-2, -1, -2), -6), ((-1, -2, -2), -6),
                ((-1, 0, 0), -3), ((0, -1, 0), -3), ((0, 0, -1), -3)]
    for row, (a, b), src in zip(X.rows, expected, (0, 0, 1, 1, 1)):
        assert row.a == pytest.approx(np.asarray(a, float))
        assert row.b == b
        assert row.source == src


def test_box_reduction_one_dimensional():
    # a in [1, 2] is the s = inf ball of radius 1/2 around 3/2
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (Box([1.0], [2.0], 0.0, 1.0),))
    X = reduce_constraints(validate_problem(p))
    (row,) = X.rows
    assert isinstance(row, ConcaveRow) and row.s == _INF and row.b == 1.0
    assert row.a_bar.tolist() == [1.5] and row.P.tolist() == [[0.5]]
    # lifted: 1.5 x - tau >= 1 with bands tau >= -x/2 and tau >= x/2
    XL, xl = X.lift(np.array([4.0]))
    assert [r.a.tolist() for r in XL.rows] == [[1.5, -1.0], [0.5, 1.0], [-0.5, 1.0]]
    assert xl.tolist() == [4.0, 2.0] and XL.lifted == ((0, row),)


def test_box_vertex_enumeration_property(rng):
    # the one reduced row has the worst case of the 2^n vertex rows
    for _ in range(25):
        n = int(rng.integers(1, 5))
        lo = rng.integers(-4, 1, n).astype(float)
        hi = lo + rng.integers(0, 4, n)
        p = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n),
                          (Box(lo, hi, 0.0, 1.0),))
        (row,) = reduce_constraints(validate_problem(p)).rows
        if np.array_equal(lo, hi):
            assert isinstance(row, LinearRow) and np.array_equal(row.a, lo)
            continue
        assert row.P.shape == (n, int(np.count_nonzero(hi > lo)))
        for x in rng.normal(size=(5, n)):
            want = min(float(a @ x) - 1.0 for a in box_vertices(lo, hi))
            assert row.slack(x) == pytest.approx(want, abs=1e-12)


def test_polytope_reduction_idempotent(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        verts = tuple(np.concatenate([rng.integers(-5, 6, n), rng.integers(-5, 6, 1)]).astype(float)
                      for _ in range(int(rng.integers(1, 5))))
        p = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n),
                          (Polytope(verts),))
        X1 = reduce_constraints(validate_problem(p))
        singles = tuple(Singleton(r.a, r.b) for r in X1.rows)
        p2 = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n), singles)
        X2 = reduce_constraints(validate_problem(p2))
        rows1 = sorted((tuple(r.a), r.b) for r in X1.rows)
        rows2 = sorted((tuple(r.a), r.b) for r in X2.rows)
        assert rows1 == rows2


def test_zero_radius_ball_matches_linear_row():
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0], (Ball([1.0], 0.0, 0.0),))
    X = reduce_constraints(validate_problem(p))
    row = X.rows[0]
    assert isinstance(row, BallRow)
    for x in (-2.0, 0.0, 0.5, 3.0):
        assert row.slack(np.array([x])) == pytest.approx(x, abs=1e-15)


def test_ball_concave_value_lower_bounds_sampled_scenarios(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a = rng.integers(-5, 6, n).astype(float)
        b = float(rng.integers(-5, 6))
        alpha = float(rng.uniform(0.1, 2.0))
        p = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n),
                          (Ball(a, b, alpha),))
        row = reduce_constraints(validate_problem(p)).rows[0]
        x = rng.normal(0, 2, n)
        val = row.slack(x)
        sampled = []
        for d in sphere_directions(n + 1, 64):
            ar, br = row.scenario_row(d)
            sampled.append(float(ar @ x - br))
        # one-sided bound: the worst case is below every sampled scenario
        assert val <= min(sampled) + 1e-12
        assert val == pytest.approx(a @ x - b - alpha * math.sqrt(x @ x + 1.0))


def test_norm_ball_concave_row_lower_bounds_scenarios(rng):
    for s in (1, 2, _INF):
        n = 3
        a = rng.integers(-5, 6, n).astype(float)
        Z = np.diag(rng.integers(1, 4, n).astype(float))
        delta = 0.7
        p = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n),
                          (NormBall(a, Z, delta, s, -1.0, 2.0),))
        row = reduce_constraints(validate_problem(p)).rows[0]
        x = rng.normal(0, 2, n)
        val = row.slack(x)
        for d in sphere_directions(n, 64):
            ar, br = row.scenario_row(d)
            assert val <= float(ar @ x - br) + 1e-12
        assert br == 2.0          # worst case uses the upper b endpoint


def test_norm_ball_and_ellipsoid_share_one_row(rng):
    # a 2-norm ball with radius delta and shape Z is the ellipsoid spanned
    # by the rows of delta * Z^-1: both reduce to the same affine-norm-ball row
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a = rng.integers(-5, 6, n).astype(float)
        B = rng.normal(0, 1, (n, n))
        Z = B @ B.T + n * np.eye(n)
        delta = float(rng.uniform(0.1, 2.0))
        p_nb = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n),
                             (NormBall(a, Z, delta, 2, -1.0, 2.0),))
        p_el = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n),
                             (Ellipsoid(a, tuple(delta * np.linalg.inv(Z)), -1.0, 2.0),))
        nb = reduce_constraints(validate_problem(p_nb)).rows[0]
        el = reduce_constraints(validate_problem(p_el)).rows[0]
        assert isinstance(nb, ConcaveRow) and isinstance(el, ConcaveRow)
        assert nb.s == el.s == 2 and nb.direction_dim() == el.direction_dim() == n
        for _ in range(5):
            x = rng.normal(0, 2, n)
            d = rng.normal(0, 1, n)
            assert nb.slack(x) == pytest.approx(el.slack(x), rel=0, abs=1e-12)
            assert nb.supergradient(x) == pytest.approx(el.supergradient(x), rel=0, abs=1e-12)
            (a_nb, b_nb), (a_el, b_el) = nb.scenario_row(d), el.scenario_row(d)
            assert a_nb == pytest.approx(a_el, rel=0, abs=1e-12)
            assert b_nb == b_el == 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_row_slack_overflow_is_signed_never_nan():
    # the float dot product of the first row is inf - inf; scaling the
    # operands by a power of two would flush the 1 * 1 term to zero
    assert LinearRow([1e300, -1e300, 1.0], 0.5, 0).slack(np.array([1e300, 1e300, 1.0])) == 0.5
    assert LinearRow([1e300, -1e300], 1.0, 0).slack(np.array([1e300, 1e300])) == -1.0
    assert LinearRow([0.0, 1e300], 1.0, 0).slack(np.array([0.0, 1e300])) == _INF
    assert LinearRow([0.0, -1e300], 1.0, 0).slack(np.array([0.0, 1e300])) == -_INF
    assert LinearRow([2.0, 3.0], 1.0, 0).slack(np.array([1.0, -1.0])) == -2.0


@pytest.mark.parametrize("s", [1, _INF])
def test_lift_rewrites_polyhedral_balls_as_linear_rows(rng, s):
    n = 3
    Z = np.diag([1.0, 2.0, 4.0])
    p = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n), (
        Singleton([1.0, 0.0, 0.0], -5.0),
        NormBall([1.0, 1.0, 1.0], Z, 0.5, s, -2.0, -1.0),
        NormBall([0.0, 1.0, 0.0], np.eye(n), 0.5, 2, -9.0, -9.0)))
    X = reduce_constraints(validate_problem(p))
    x = np.array([1.0, 0.0, -2.0])
    XL, xl = X.lift(x)
    k = 1 if s == 1 else n                    # taus: one for s = 1, q for s = inf
    assert XL.n == n + k and xl.size == n + k
    assert [type(r).__name__ for r in XL.rows] == (
        ["LinearRow"] * (2 + 2 * n) + ["ConcaveRow"])
    assert XL.lifted == ((1, X.rows[1]),)
    assert xl[:n] == pytest.approx(x, abs=0)
    ball = X.rows[1]
    z = np.abs(ball.P.T @ x)
    assert xl[n:] == pytest.approx(z if s == _INF else [z.max()], abs=0)
    # at the smallest tau the main row's slack is the ball's worst case,
    # every band row holds, and the other rows keep their slack
    assert XL.rows[1].slack(xl) == pytest.approx(ball.slack(x), abs=1e-12)
    assert min(r.slack(xl) for r in XL.rows[2:2 + 2 * n]) == pytest.approx(0.0, abs=1e-12)
    assert XL.rows[0].slack(xl) == X.rows[0].slack(x)
    assert XL.rows[-1].slack(xl) == pytest.approx(X.rows[-1].slack(x), abs=1e-12)
    # the lift projects onto the set: any tau makes the main row no looser
    for _ in range(20):
        y = rng.normal(0, 2, n)
        tau = np.abs(ball.P.T @ y) + rng.uniform(0, 1, n)
        t = np.concatenate([y, tau if s == _INF else [tau.max()]])
        if min(r.slack(t) for r in XL.rows[2:2 + 2 * n]) >= 0:
            assert XL.rows[1].slack(t) <= ball.slack(y) + 1e-12


def test_lift_leaves_sets_without_polyhedral_balls_alone():
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0], (
        Singleton([1.0, 0.0], -5.0),
        NormBall([0.0, 1.0], np.eye(2), 0.5, 2, -9.0, -9.0)))
    X = reduce_constraints(validate_problem(p))
    x = np.zeros(2)
    XL, xl = X.lift(x)
    assert XL is X and xl is x


def test_zero_delta_norm_ball_reduces_to_linear():
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                      (NormBall([1.0, 2.0], np.eye(2), 0.0, 2, -1.0, 5.0),))
    X = reduce_constraints(validate_problem(p))
    assert X.all_linear and isinstance(X.rows[0], LinearRow)
    assert X.rows[0].a == pytest.approx([1.0, 2.0])
    assert X.rows[0].b == 5.0


def test_zero_span_ellipsoid_reduces_to_linear():
    p = UncertainMOLP(1, 2, [[1.0, 0.0]], [0.0], [0.0, 0.0],
                      (Ellipsoid([1.0, 2.0], (), -1.0, 5.0),))
    X = reduce_constraints(validate_problem(p))
    assert isinstance(X.rows[0], LinearRow)
    assert X.rows[0].b == 5.0


def test_endpoint_objectives_outer_product():
    p = UncertainMOLP(2, 2, np.zeros((2, 2)), [1.0, 0.0], [1.0, 0.0],
                      (Singleton([1.0, 0.0], 0.0),))
    C0, C1 = endpoint_objectives(validate_problem(p))
    assert np.array_equal(C0, np.zeros((2, 2)))
    assert np.array_equal(C1, np.array([[1.0, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

GOOD_DOC = {
    "m": 1, "n": 2, "C_bar": [[1.0, 0.0]], "u": [0.0], "v": [0.0, 0.0],
    "constraints": [
        {"kind": "singleton", "a_bar": [1.0, 0.0], "b_bar": 0.0},
        {"kind": "norm_ball", "a_bar": [0.0, 1.0], "Z": [[1.0, 0.0], [0.0, 1.0]],
         "delta": 0.5, "s": "inf", "b_lo": -1.0, "b_hi": 0.0},
        {"kind": "ball", "a_bar": [1.0, 1.0], "b_bar": 0.0, "alpha": 0.25},
        {"kind": "polytope", "vertices": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]},
        {"kind": "box", "a_lo": [0.0, -1.0], "a_hi": [1.0, 1.0], "b_lo": -3.0, "b_hi": -2.0},
        {"kind": "ellipsoid", "a0": [1.0, 2.0], "spans": [], "b_lo": -1.0, "b_hi": 0.0},
        {"kind": "ellipsoid", "a0": [0.0, 1.0], "spans": [[0.5, 0.0], [0.0, 0.25]],
         "b_lo": -2.0, "b_hi": -1.0},
        {"kind": "norm_ball", "a_bar": [2.0, 0.0], "Z": [[2.0, 1.0], [1.0, 2.0]],
         "delta": 0.5, "s": 2, "b_lo": -4.0, "b_hi": -4.0},
        {"kind": "norm_ball", "a_bar": [0.0, 2.0], "Z": [[1.0, 0.0], [0.0, 4.0]],
         "delta": 1.0, "s": 1, "b_lo": -5.0, "b_hi": -5.0},
    ],
}
KINDS = sorted({c["kind"] for c in GOOD_DOC["constraints"]})


def test_parse_and_roundtrip(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(GOOD_DOC), encoding="utf-8")
    p = load_problem(path)
    assert [c.kind for c in p.constraints] == [c["kind"] for c in GOOD_DOC["constraints"]]
    assert p.constraints[1].s == _INF and p.constraints[7].s == 2
    assert p.constraints[5].spans == ()
    validate_problem(p)
    assert problem_to_dict(p) == GOOD_DOC
    # the norm index is written as given: 2 stays an integer, inf a string
    text = json.dumps(problem_to_dict(p))
    assert '"s": 2,' in text and '"s": "inf",' in text
    assert problem_to_dict(parse_problem(json.loads(text))) == GOOD_DOC


def _first_of(kind):
    doc = json.loads(json.dumps(GOOD_DOC))
    return doc, next(c for c in doc["constraints"] if c["kind"] == kind)


def test_unknown_keys_rejected():
    doc = dict(GOOD_DOC)
    doc["extra"] = 1
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
    for kind in KINDS:
        doc, con = _first_of(kind)
        con["bogus"] = 2
        with pytest.raises(ProblemFormatError, match="unknown keys"):
            parse_problem(doc)


def test_missing_keys_and_bad_norm_index_rejected():
    doc = json.loads(json.dumps(GOOD_DOC))
    del doc["u"]
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
    for kind in KINDS:
        for key in list(_first_of(kind)[1]):
            doc, con = _first_of(kind)
            del con[key]
            # without its kind a constraint is of no known kind
            with pytest.raises(ProblemFormatError,
                               match="unknown kind" if key == "kind" else "missing keys"):
                parse_problem(doc)
    doc = json.loads(json.dumps(GOOD_DOC))
    doc["constraints"][1]["s"] = 3
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(m=True),
    lambda d: d.update(n=True),
    lambda d: d["constraints"][1].update(s=True),
    lambda d: d["constraints"][1].update(s="2"),
    lambda d: d["constraints"][0].update(b_bar=" 2 "),
    lambda d: d["constraints"][0].update(a_bar=["1e0", 0.0]),
    lambda d: d["constraints"][0].update(a_bar=[1.0, None]),
    lambda d: d["constraints"][4].update(b_hi=False),
    lambda d: d["constraints"][3].update(vertices=[[1.0, "0", -1.0]]),
    lambda d: d["constraints"][6].update(spans=[[0.5, {}]]),
    lambda d: d.update(C_bar=[[True, 0.0]]),
    lambda d: d.update(u=["0"]),
    lambda d: d.update(v="00"),
    lambda d: d["constraints"][0].update(a_bar=[10 ** 400, 0.0]),
    lambda d: d["constraints"][0].update(kind=["singleton"]),
], ids=["m-true", "n-true", "s-true", "s-string", "b_bar-string", "a_bar-string",
        "a_bar-null", "b_hi-false", "vertex-string", "span-object", "C_bar-true",
        "u-string", "v-string", "a_bar-huge-int", "kind-list"])
def test_values_that_are_not_json_numbers_rejected(edit):
    # bools and numeric strings used to be read as numbers, and "m": true
    # was written back as true
    doc = json.loads(json.dumps(GOOD_DOC))
    edit(doc)
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)


def test_overflowing_perturbed_objective_rejected():
    # C_bar + u v^T = [[-3e300], [-inf]]: every entry of the data is finite
    p = UncertainMOLP(2, 1, [[-1e300], [0.0]], [2.0, 1e300], [-1e300],
                      (Singleton([0.0], -1e300),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        validate_dimensions(p)          # radius analysis never forms it
        with pytest.raises(ValidationError) as exc:
            validate_problem(p)
    assert exc.value.kind == "NonFinite" and exc.value.constraint is None
