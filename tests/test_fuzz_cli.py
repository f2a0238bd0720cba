"""Property test of the CLI over schema-shaped problem documents.

Documents follow the JSON schema's shape but draw wrong-length vectors,
huge and tiny magnitudes and an unsupported norm index (s = 3).  Every run
of `radius`, `feasible` and `certify` must end in a documented exit code
(0-6) instead of raising, and none may reach it by the CLI's exit 2 for an
error that no table names, which prints a traceback.  So must `verify` on certificate documents with
record lists cut or padded, records that are not objects, wrong-length
vectors and payload wrappers of the wrong type, and it must never accept
a certificate whose record count differs from the constraint count.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from robustmolp.cli import main  # noqa: E402

NUMBERS = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300, 1e-300, 0.0]),
)


def vectors(n):
    """Length n most of the time, any length up to 4 otherwise."""
    length = st.sampled_from([n] * 12 + [0, 1, 2, 3, 4])
    return length.flatmap(lambda k: st.lists(NUMBERS, min_size=k, max_size=k))


def constraints(n):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("singleton"), "a_bar": vectors(n),
                               "b_bar": NUMBERS}),
        st.fixed_dictionaries({"kind": st.just("polytope"),
                               "vertices": st.lists(vectors(n + 1), min_size=1, max_size=3)}),
        st.fixed_dictionaries({"kind": st.just("box"), "a_lo": vectors(n), "a_hi": vectors(n),
                               "b_lo": NUMBERS, "b_hi": NUMBERS}),
        st.fixed_dictionaries({"kind": st.just("norm_ball"), "a_bar": vectors(n),
                               "Z": st.lists(vectors(n), min_size=n, max_size=n),
                               "delta": NUMBERS, "s": st.sampled_from([1, 2, "inf", 3]),
                               "b_lo": NUMBERS, "b_hi": NUMBERS}),
        st.fixed_dictionaries({"kind": st.just("ellipsoid"), "a0": vectors(n),
                               "spans": st.lists(vectors(n), max_size=2),
                               "b_lo": NUMBERS, "b_hi": NUMBERS}),
        st.fixed_dictionaries({"kind": st.just("ball"), "a_bar": vectors(n),
                               "b_bar": NUMBERS, "alpha": NUMBERS}),
    )


@st.composite
def documents(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    doc = {
        "m": m, "n": n,
        "C_bar": draw(st.lists(vectors(n), min_size=m, max_size=m)),
        "u": draw(vectors(m)), "v": draw(vectors(n)),
        "constraints": draw(st.lists(constraints(n), min_size=1, max_size=3)),
    }
    point = draw(vectors(n))
    return doc, ",".join(repr(t) for t in point) or "0", draw(NUMBERS)


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(documents())
def test_cli_exit_codes_on_fuzzed_documents(tmp_path, case):
    doc, point, alpha = case
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # "--point=" keeps a leading minus sign from reading as an option
    for argv in (["radius", str(path), "--json"],
                 ["feasible", str(path), f"--alpha={abs(alpha)!r}", "--json"],
                 ["certify", str(path), f"--point={point}", "--json"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(7), (argv, doc)
        assert "Traceback" not in err.getvalue(), (argv, doc)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

SMALL = st.integers(-3, 3).map(float)


def records(n):
    """A certificate record: schema-shaped with a vector of length n most
    of the time, or a number or list where an object belongs."""
    rec = st.fixed_dictionaries(
        {"mu": NUMBERS, "scenario_a": vectors(n), "scenario_b": NUMBERS},
        optional={"witness": st.one_of(st.none(), vectors(n)), "witness_norm": NUMBERS})
    return st.one_of(rec, rec, rec, st.integers(-1, 1), st.lists(NUMBERS, max_size=2))


@st.composite
def verify_problems(draw):
    """A valid problem of k singleton rows a.x >= 0 under a fixed objective,
    and a point: the origin, on every row, most of the time."""
    n, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    exact = st.lists(SMALL, min_size=n, max_size=n)
    problem = {"m": m, "n": n, "C_bar": draw(st.lists(exact, min_size=m, max_size=m)),
               "u": [0.0] * m, "v": [0.0] * n,
               "constraints": [{"kind": "singleton", "a_bar": a, "b_bar": 0.0}
                               for a in draw(st.lists(exact, min_size=k, max_size=k))]}
    point = draw(st.sampled_from([0.0] * 3 + [1.0]))
    return problem, ",".join([repr(point)] * n)


def record_lists(draw, n, k):
    """A list of drawn records, one per constraint most of the time."""
    size = draw(st.sampled_from([k] * 3 + [0, k - 1, k + 1]))
    return [draw(records(n)) for _ in range(size)]


def mutated(draw, cert, n, k):
    """cert with each record list kept, cut, padded with a drawn record or
    drawn anew, and now and then a lambda of the wrong length."""
    for key in ("nominal", "perturbed"):
        recs = list(cert[key])
        action = draw(st.sampled_from(["keep"] * 3 + ["cut", "pad", "redraw"]))
        if action == "cut" and recs:
            del recs[draw(st.integers(0, len(recs) - 1))]
        elif action == "pad":
            recs.insert(draw(st.integers(0, len(recs))), draw(records(n)))
        elif action == "redraw":
            recs = record_lists(draw, n, k)
        cert[key] = recs
    if draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(["lambda", "lambda_tilde"]))
        cert[key] = [0.5] * draw(st.integers(0, 3))
    return cert


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(verify_problems(), st.data())
def test_verify_exit_codes_on_fuzzed_certificates(tmp_path, case, data):
    # the certificate certify issues, when it issues one, or one drawn
    # whole, then mutated; never valid with a record count that differs
    # from the constraint count
    (problem, point), draw = case, data.draw
    n, m, k = problem["n"], problem["m"], len(problem["constraints"])
    path, cert_path = tmp_path / "problem.json", tmp_path / "cert.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        issued = main(["certify", str(path), f"--point={point}", "--json"]) == 0
    if issued:
        cert = json.loads(out.getvalue())["payload"]["certificate"]
    else:
        cert = {"lambda": draw(vectors(m)), "lambda_tilde": draw(vectors(m)),
                "nominal": record_lists(draw, n, k), "perturbed": record_lists(draw, n, k)}
    cert = mutated(draw, cert, n, k)
    doc = draw(st.sampled_from([cert, {"payload": {"certificate": cert}},
                                {"payload": [cert]}, {"payload": 5}]))
    cert_path.write_text(json.dumps(doc), encoding="utf-8")
    for fmt in ("--json", "--text"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", str(path), f"--point={point}",
                         "--cert", str(cert_path), fmt])
        assert code in range(7), (problem, doc)
        assert "Traceback" not in err.getvalue(), (problem, doc)
        if len(cert["nominal"]) != k or len(cert["perturbed"]) != k:
            assert code != 0, (problem, doc)
