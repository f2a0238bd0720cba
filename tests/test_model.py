import json
import math

import numpy as np
import pytest

from robustmolp.model import (Ball, BallRow, Box, BoxTooLargeError,
                              ConcaveRow, Ellipsoid, LinearRow, NormBall,
                              Polytope, ProblemFormatError, Singleton,
                              UncertainMOLP, ValidationError, box_vertices,
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
    p = UncertainMOLP(1, 1, [[1.0]], [0.0], [0.0],
                      (Box([1.0], [2.0], 0.0, 1.0),))
    X = reduce_constraints(validate_problem(p))
    got = sorted((float(r.a[0]), r.b) for r in X.rows)
    assert got == [(1.0, 1.0), (2.0, 1.0)]


def test_box_vertex_enumeration_property(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        lo = rng.integers(-4, 1, n).astype(float)
        hi = lo + rng.integers(0, 4, n)
        p = UncertainMOLP(1, n, np.zeros((1, n)), [0.0], np.zeros(n),
                          (Box(lo, hi, 0.0, 1.0),))
        X = reduce_constraints(validate_problem(p))
        assert len(X.rows) == 2 ** n
        for row in X.rows:
            for i in range(n):
                assert row.a[i] in (lo[i], hi[i])
        # binary-counter order: bit 0 toggles coordinate 0 fastest
        assert np.array_equal(np.asarray(X.rows[0].a), lo)
        if n >= 1 and hi[0] != lo[0]:
            assert X.rows[1].a[0] == hi[0]


def test_box_dimension_cap():
    with pytest.raises(BoxTooLargeError):
        box_vertices(np.zeros(17), np.ones(17))


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
    ],
}


def test_parse_and_roundtrip(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(GOOD_DOC), encoding="utf-8")
    p = load_problem(path)
    assert p.constraints[1].s == _INF
    doc2 = problem_to_dict(p)
    assert parse_problem(doc2).constraints[2].alpha == 0.25


def test_unknown_keys_rejected():
    doc = dict(GOOD_DOC)
    doc["extra"] = 1
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
    doc = json.loads(json.dumps(GOOD_DOC))
    doc["constraints"][0]["bogus"] = 2
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)


def test_missing_keys_and_bad_norm_index_rejected():
    doc = json.loads(json.dumps(GOOD_DOC))
    del doc["u"]
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
    doc = json.loads(json.dumps(GOOD_DOC))
    doc["constraints"][1]["s"] = 3
    with pytest.raises(ProblemFormatError):
        parse_problem(doc)
