"""Property test of the CLI over schema-shaped problem documents.

Documents follow the JSON schema's shape but draw wrong-length vectors,
huge and tiny magnitudes and an unsupported norm index (s = 3).  Every run
of `radius`, `feasible` and `certify` must end in a documented exit code
(0-6) instead of raising.
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
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in range(7), (argv, doc)
