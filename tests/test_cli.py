import json
import math
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import forbid_lp
from robustmolp.cli import main

EX1 = {
    "m": 1, "n": 3, "C_bar": [[0.0, 0.0, 0.0]], "u": [0.0], "v": [0.0, 0.0, 0.0],
    "constraints": [
        {"kind": "singleton", "a_bar": [-2.0, -1.0, -2.0], "b_bar": -6.0},
        {"kind": "singleton", "a_bar": [-1.0, -2.0, -2.0], "b_bar": -6.0},
        {"kind": "singleton", "a_bar": [-1.0, 0.0, 0.0], "b_bar": -3.0},
        {"kind": "singleton", "a_bar": [0.0, -1.0, 0.0], "b_bar": -3.0},
        {"kind": "singleton", "a_bar": [0.0, 0.0, -1.0], "b_bar": -3.0},
    ],
}

EX2 = {
    "m": 2, "n": 3, "C_bar": [[-3.0, -1.0, -2.0], [0.0, -1.0, -2.0]],
    "u": [1.0, 0.0], "v": [0.0, -3.0, 0.0],
    "constraints": [
        {"kind": "polytope", "vertices": [[-2.0, -1.0, -2.0, -6.0],
                                          [-1.0, -2.0, -2.0, -6.0]]},
        {"kind": "polytope", "vertices": [[-1.0, 0.0, 0.0, -3.0],
                                          [0.0, -1.0, 0.0, -3.0],
                                          [0.0, 0.0, -1.0, -3.0]]},
    ],
}


def _write(tmp_path, doc, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv + ["--json"])
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# radius / feasible
# ---------------------------------------------------------------------------

def test_radius_reports_known_value(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    code, rep = _run_json(capsys, ["radius", path])
    assert code == 0
    assert rep["verdict"] == "ok"
    assert rep["payload"]["radius"] == pytest.approx(math.sqrt(28 / 3), abs=1e-9)
    assert rep["payload"]["minimizer"] == pytest.approx(
        [-1 / 3, -1 / 3, -1 / 3, -3.0], abs=1e-8)
    assert len(rep["input_digest"]) == 64


def test_radius_single_constraint(tmp_path, capsys):
    doc = {"m": 1, "n": 1, "C_bar": [[0.0]], "u": [0.0], "v": [0.0],
           "constraints": [{"kind": "singleton", "a_bar": [1.0], "b_bar": 0.0}]}
    code, rep = _run_json(capsys, ["radius", _write(tmp_path, doc)])
    assert code == 0
    assert rep["payload"]["radius"] == pytest.approx(1.0, abs=1e-9)


def test_radius_of_rows_near_the_float_limit(tmp_path, capsys):
    # the VI check once formed q.q at this size: overflow, NaN margin, exit 2
    doc = {"m": 1, "n": 2, "C_bar": [[0.0, 0.0]], "u": [0.0], "v": [0.0, 0.0],
           "constraints": [
               {"kind": "singleton", "a_bar": [1e300, 0.0], "b_bar": -1e300},
               {"kind": "singleton", "a_bar": [0.0, 1e300], "b_bar": -1e300},
               {"kind": "singleton", "a_bar": [-1e300, -1e300], "b_bar": -3e300}]}
    path = _write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rep = _run_json(capsys, ["radius", path])
    assert code == 0
    # the radius of the same rows at unit scale
    assert rep["payload"]["radius"] == pytest.approx(1e300 * 1.2247448713915889,
                                                     rel=1e-12)


def test_radius_of_a_unit_row_beside_a_row_near_the_float_limit(capsys):
    # the nearest point is the unit row's (1, 0, 0, -5); its norm, taken at
    # the scale of the 1e300 row, once underflowed to a radius of 0; the CI
    # workflow runs the installed script on the same file
    path = str(Path(__file__).with_name("float_limit_radius_problem.json"))
    code, rep = _run_json(capsys, ["radius", path])
    assert code == 0
    assert rep["payload"]["radius"] == pytest.approx(math.sqrt(26.0), abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_feasible_alpha_zero_on_a_row_beyond_the_float_range_exit_2(tmp_path, capsys):
    # 1e-300 x >= 3e300 needs x >= 3e600: the row's scaled right-hand side
    # overflows, which breaks the check down (exit 2); a Phase-I LP once
    # answered feasible at x = [inf], and the report refused the inf
    # (exit 3) after two RuntimeWarnings
    doc = {"m": 1, "n": 1, "C_bar": [[1.0]], "u": [0.0], "v": [0.0],
           "constraints": [{"kind": "singleton", "a_bar": [1e-300], "b_bar": 3e300}]}
    path = _write(tmp_path, doc)
    for argv in (["feasible", path, "--alpha", "0"], ["radius", path]):
        code, rep = _run_json(capsys, argv)
        assert (code, rep) == (2, None), argv


def test_radius_and_alpha_zero_of_a_boundary_pair_exit_0(capsys, monkeypatch):
    # x >= 1/3 and -x >= -1/3: the radius is 0, so the marker projection
    # decides, with no LP; the CI workflow runs the installed script on the
    # same file.  The min-norm solve reports 1.1e-16 for that 0, a known
    # rounding defect on ROADMAP.md, hence the bound of 1e-15
    forbid_lp(monkeypatch)
    path = str(Path(__file__).with_name("boundary_third_problem.json"))
    code, rep = _run_json(capsys, ["radius", path])
    assert code == 0 and 0.0 <= rep["payload"]["radius"] <= 1e-15
    code, rep = _run_json(capsys, ["feasible", path, "--alpha", "0"])
    assert (code, rep["verdict"]) == (0, "feasible")
    assert rep["payload"]["witness"] == pytest.approx([1 / 3], rel=1e-15)
    assert rep["residuals"]["nominal_min_slack"] >= -1e-16


def test_radius_and_alpha_zero_of_a_feasible_system_near_the_float_limit(capsys):
    # the radius report's residual, a norm whose sum of squares overflowed,
    # once exited 3; feasible --alpha 0 once took a Phase-I LP's wrong
    # "infeasible" (exit 4); the CI workflow runs the installed script on it
    path = str(Path(__file__).with_name("float_limit_feasible_problem.json"))
    code, rep = _run_json(capsys, ["radius", path])
    assert code == 0
    rho = rep["payload"]["radius"]
    assert rho == pytest.approx(4.4232586846e299, rel=1e-9)
    assert 0.0 <= rep["residuals"]["reconstruction"] <= 1e-15 * rho
    code, rep = _run_json(capsys, ["feasible", path, "--alpha", "0"])
    assert (code, rep["verdict"], rep["payload"]["radius"]) == (0, "feasible", None)
    assert rep["residuals"]["nominal_min_slack"] >= 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_feasible_alpha_zero_reports_a_slack_past_the_float_range_exactly(tmp_path, capsys):
    # (1e300, -1e300 | 0) and (0, 1 | 1e10): at the witness (1e10, 1e10) the
    # first row's products overflow, and a float residual once read -inf
    # (exit 3 with --json, "non-finite float in report"); both slacks are 0
    path = str(Path(__file__).with_name("overflow_slack_problem.json"))
    code, rep = _run_json(capsys, ["feasible", path, "--alpha", "0"])
    assert (code, rep["verdict"]) == (0, "feasible")
    assert rep["payload"]["witness"] == [1e10, 1e10]
    assert rep["residuals"]["nominal_min_slack"] == 0.0
    # 1e150 x >= -1e-10 at x = 1e160: the slack 1e310 is past the float
    # range, once +inf (exit 3), now the largest float
    doc = {"m": 1, "n": 1, "C_bar": [[0.0]], "u": [0.0], "v": [0.0],
           "constraints": [{"kind": "singleton", "a_bar": [1e150], "b_bar": -1e-10}]}
    code, rep = _run_json(capsys, ["feasible", _write(tmp_path, doc), "--alpha", "0"])
    assert (code, rep["verdict"], rep["payload"]["witness"]) == (0, "feasible", [1e160])
    assert rep["residuals"]["nominal_min_slack"] == sys.float_info.max


def test_feasible_on_both_sides_of_a_radius_beside_a_1e300_row(capsys):
    # rho = sqrt(26): a band set by the 3e300 row once answered exit 2 for
    # every alpha up to about 3e294; the CI workflow runs the installed
    # script on the same file
    path = str(Path(__file__).with_name("float_limit_radius_problem.json"))
    for alpha, expected in (("0.1", (0, "feasible")), ("5.2", (1, "infeasible")),
                            ("1e10", (1, "infeasible"))):
        code, rep = _run_json(capsys, ["feasible", path, "--alpha", alpha])
        assert (code, rep["verdict"]) == expected, alpha


def test_feasible_on_the_golden_system_in_tiny_units(capsys):
    # the golden system scaled by 1e-8: an absolute band of 1e-6 once held
    # every alpha near its radius inside it (exit 2); the CI workflow runs
    # the installed script on it
    path = str(Path(__file__).with_name("tiny_scale_problem.json"))
    code, rep = _run_json(capsys, ["radius", path])
    rho = rep["payload"]["radius"]
    assert code == 0 and rho == pytest.approx(1e-8 * math.sqrt(28 / 3), rel=1e-12)
    for frac, expected in ((0.5, (0, "feasible")), (0.9, (0, "feasible")),
                           (1.1, (1, "infeasible"))):
        code, rep = _run_json(capsys, ["feasible", path, "--alpha", repr(frac * rho)])
        assert (code, rep["verdict"]) == expected, frac


# rho = 0 and an infeasible nominal system: radius runs that need the
# nominal LP; the CI workflow runs the installed script on both
ZERO_RADIUS_PROBLEM = str(Path(__file__).with_name("zero_radius_problem.json"))
INFEASIBLE_NOMINAL_PROBLEM = str(Path(__file__).with_name("infeasible_nominal_problem.json"))


def test_radius_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["radius", str(bad)]) == 3
    capsys.readouterr()
    infeasible = {"m": 1, "n": 1, "C_bar": [[0.0]], "u": [0.0], "v": [0.0],
                  "constraints": [
                      {"kind": "singleton", "a_bar": [1.0], "b_bar": 0.0},
                      {"kind": "singleton", "a_bar": [-1.0], "b_bar": 1.0}]}
    assert main(["radius", _write(tmp_path, infeasible, "i.json")]) == 4
    assert main(["radius", INFEASIBLE_NOMINAL_PROBLEM]) == 4
    capsys.readouterr()
    code, rep = _run_json(capsys, ["radius", ZERO_RADIUS_PROBLEM])
    assert code == 0 and rep["payload"]["radius"] == 0
    wrong_class = {"m": 1, "n": 1, "C_bar": [[0.0]], "u": [0.0], "v": [0.0],
                   "constraints": [{"kind": "ball", "a_bar": [1.0],
                                    "b_bar": 0.0, "alpha": 0.1}]}
    assert main(["radius", _write(tmp_path, wrong_class, "w.json")]) == 5
    capsys.readouterr()


def test_unsupported_class_error_is_the_feasibility_precondition(tmp_path, capsys):
    import robustmolp
    import robustmolp.cli as cli
    import robustmolp.efficiency as efficiency
    from robustmolp.model import load_problem

    assert not hasattr(efficiency, "UnsupportedClassError")
    path = _write(tmp_path, EX2)       # polytope constraints
    with pytest.raises(robustmolp.UnsupportedClassError):
        cli._nominal_rows(load_problem(path))
    assert main(["radius", path]) == 5
    capsys.readouterr()


def test_feasible_bracketing_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    code, rep = _run_json(capsys, ["feasible", path, "--alpha", "2.9"])
    assert code == 0 and rep["verdict"] == "feasible"
    assert "witness" in rep["payload"]
    code, rep = _run_json(capsys, ["feasible", path, "--alpha", "3.2"])
    assert code == 1 and rep["verdict"] == "infeasible"
    rho = math.sqrt(28 / 3)
    code, rep = _run_json(capsys, ["feasible", path, "--alpha", repr(rho)])
    assert code == 2 and rep["verdict"] == "inconclusive"
    code, rep = _run_json(capsys, ["feasible", path, "--alpha", "0"])
    assert code == 0


# ---------------------------------------------------------------------------
# certify / verify
# ---------------------------------------------------------------------------

def test_certify_derived_instance(tmp_path, capsys):
    path = _write(tmp_path, EX2)
    code, rep = _run_json(capsys, ["certify", path, "--point", "1,1,1.5"])
    assert code == 0
    assert rep["verdict"] == "certified"
    cert = rep["payload"]["certificate"]
    assert cert["lambda"] == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
    # the active rows are the first polytope's vertices: its record's mu
    # sits on the first of them at the nominal endpoint, the second at the perturbed
    vertices = EX2["constraints"][0]["vertices"]
    for key, vertex in (("nominal", 0), ("perturbed", 1)):
        assert [r["mu"] for r in cert[key]] == pytest.approx([1.0, 0.0], abs=1e-9)
        rec = cert[key][0]
        assert rec["scenario_a"] + [rec["scenario_b"]] == vertices[vertex]


def test_certify_with_oracle_cross_check(tmp_path, capsys):
    path = _write(tmp_path, EX2)
    code, rep = _run_json(capsys, ["certify", path, "--point", "1,1,1.5",
                                   "--oracle", "5"])
    assert code == 0
    assert rep["payload"]["oracle"]["outcome"] == "confirmed"


def test_a_row_past_the_float_range_once_scaled_exit_2_naming_unit_rows(tmp_path, capsys):
    # 1e-300 x >= 1e300 is met by x = 1e600 but by no float; which answer is
    # right is open (ROADMAP), and the message names the scaled rows, not an LP
    doc = {"m": 1, "n": 1, "C_bar": [[1.0]], "u": [0.0], "v": [0.0],
           "constraints": [{"kind": "singleton", "a_bar": [1e-300], "b_bar": 1e300}]}
    path = _write(tmp_path, doc)
    for argv in (["radius", path], ["feasible", path, "--alpha", "0"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: unit_rows: a row divided by its largest |coefficient| is not finite\n")


def test_certify_negative_u_exit_5(tmp_path, capsys):
    doc = json.loads(json.dumps(EX2))
    doc["u"] = [-1.0, 1.0]
    code = main(["certify", _write(tmp_path, doc), "--point", "1,1,1.5"])
    err = capsys.readouterr().err
    assert code == 5
    assert "u >= 0" in err


def test_certify_point_outside_exit_4(tmp_path, capsys):
    path = _write(tmp_path, EX2)
    assert main(["certify", path, "--point", "50,50,-90"]) == 4
    capsys.readouterr()


def test_certify_refuted_exit_1(tmp_path, capsys):
    doc = {"m": 2, "n": 2, "C_bar": [[1.0, 0.0], [0.0, 1.0]],
           "u": [0.0, 0.0], "v": [0.0, 0.0],
           "constraints": [
               {"kind": "singleton", "a_bar": [1.0, 0.0], "b_bar": -5.0},
               {"kind": "singleton", "a_bar": [0.0, 1.0], "b_bar": -5.0}]}
    code, rep = _run_json(capsys, ["certify", _write(tmp_path, doc),
                                   "--point", "0,0"])
    assert code == 1 and rep["verdict"] == "refuted"
    assert rep["payload"]["refutation"]["x"] is not None


def test_certify_refuted_with_every_two_norm_row_inactive_exit_1(tmp_path, capsys):
    # both balls have slack at the origin, so both endpoints are decided by
    # the exact LP; it leaves no residual, where an infinite one once broke
    # the canonical JSON
    ball = {"kind": "norm_ball", "Z": [[1.0, 0.0], [0.0, 1.0]], "delta": 0.5,
            "s": 2, "b_lo": -6.0, "b_hi": -5.0}
    doc = {"m": 2, "n": 2, "C_bar": [[1.0, 0.0], [0.0, 1.0]],
           "u": [1.0, 0.0], "v": [0.0, 1.0],
           "constraints": [dict(ball, a_bar=[1.0, 0.0]),
                           dict(ball, a_bar=[0.0, 1.0])]}
    code, rep = _run_json(capsys, ["certify", _write(tmp_path, doc), "--point=0,0"])
    assert code == 1 and rep["verdict"] == "refuted"
    assert rep["residuals"] == {}
    assert rep["payload"]["refutation"]["x"] is not None


def test_certify_reports_a_reason_for_unknown_only(tmp_path, capsys, monkeypatch):
    from robustmolp import efficiency
    from robustmolp.numerics import ConeResult
    doc = {"m": 1, "n": 1, "C_bar": [[1.0]], "u": [0.0], "v": [0.0],
           "constraints": [{"kind": "norm_ball", "a_bar": [1.0], "Z": [[1.0]],
                            "delta": 0.5, "s": 2, "b_lo": 0.0, "b_hi": 0.0}]}
    path = _write(tmp_path, doc)
    code, rep = _run_json(capsys, ["certify", path, "--point=0"])
    assert code == 0 and "reason" not in rep["payload"]
    # a cone solve that gives up is decided by its tangent column, which
    # certifies the point; the reason belongs to an unknown alone
    monkeypatch.setattr(efficiency, "solve_cone_system", lambda A, b, blocks: ConeResult(
        False, False, 0.25, np.zeros(A.shape[1]), 7, "budget"))
    code, rep = _run_json(capsys, ["certify", path, "--point=0"])
    assert code == 0 and rep["verdict"] == "certified" and "reason" not in rep["payload"]
    monkeypatch.setattr(efficiency, "RESIDUAL_TOL", -1.0)
    code, rep = _run_json(capsys, ["certify", path, "--point=0"])
    assert code == 2 and rep["verdict"] == "unknown"
    assert "refutation" not in rep["payload"] and "certificate" not in rep["payload"]
    assert rep["payload"]["reason"].startswith("certificate residual above RESIDUAL_TOL (")


def test_certify_cone_refutation_names_its_endpoint(tmp_path, capsys):
    # the unit disc tight at (1, 0), minimizing x2
    doc = {"m": 1, "n": 2, "C_bar": [[0.0, 1.0]], "u": [0.0], "v": [0.0, 0.0],
           "constraints": [{"kind": "norm_ball", "a_bar": [0.0, 0.0],
                            "Z": [[1.0, 0.0], [0.0, 1.0]], "delta": 1.0, "s": 2,
                            "b_lo": -2.0, "b_hi": -1.0}]}
    code, rep = _run_json(capsys, ["certify", _write(tmp_path, doc), "--point=1,0"])
    assert code == 1 and rep["verdict"] == "refuted"
    ref = rep["payload"]["refutation"]
    assert (ref["endpoint"], ref["rho"]) == ("nominal", 0.0)
    assert math.hypot(*ref["x"]) <= 1.0 and ref["gap"][0] > 0.0
    assert "reason" not in rep["payload"]


def test_certify_without_slater_point_exit_0(tmp_path, capsys):
    # x - 2|x| >= 0 leaves X = {0}, which has no Slater point; its one
    # point is weakly efficient, and the certificate replays without one
    doc = {"m": 1, "n": 1, "C_bar": [[-1.0]], "u": [0.0], "v": [0.0],
           "constraints": [{"kind": "norm_ball", "a_bar": [1.0], "Z": [[1.0]],
                            "delta": 2.0, "s": 2, "b_lo": 0.0, "b_hi": 0.0}]}
    path = _write(tmp_path, doc)
    code, out = _run(capsys, ["certify", path, "--point", "0", "--json"])
    assert code == 0 and json.loads(out)["verdict"] == "certified"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out, encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", path, "--point", "0", "--cert", str(cert_file)])
    assert code == 0 and rep["verdict"] == "valid"


def test_certify_a_unit_disc_in_rows_scaled_by_1e_9_exit_1(capsys):
    # the unit disc tight at (1, 0), its row scaled by 1e-9, under an
    # objective along its tangent: the Slater point that tilts the
    # refutation is found on rows of unit scale, where a simplex phase 1
    # once raised "unbounded" (exit 2); the CI workflow runs the installed
    # script on the same file
    path = str(Path(__file__).with_name("scaled_disc_problem.json"))
    code, rep = _run_json(capsys, ["certify", path, "--point=1,0"])
    assert (code, rep["verdict"]) == (1, "refuted")


# two joint balls x_i - 0.1 sqrt(x.x + 1) >= -0.1, both tight at (0, 0), with
# C = I, u = e_1 and v = e_2; the CI workflow runs the installed script on it
JOINT_BALL_PROBLEM = str(Path(__file__).with_name("joint_ball_problem.json"))


def test_certify_joint_balls_and_verify_round_trip_exit_0(tmp_path, capsys):
    # the oracle relaxes each ball to a cross-polytope, so it cannot
    # confirm, and it must not refute what certify certified
    code, out = _run(capsys, ["certify", JOINT_BALL_PROBLEM, "--point=0,0", "--oracle", "3",
                              "--json"])
    rep = json.loads(out)
    assert code == 0 and rep["verdict"] == "certified"
    assert rep["payload"]["oracle"]["outcome"] == "inconclusive"
    cert = tmp_path / "cert.json"
    cert.write_text(out, encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", JOINT_BALL_PROBLEM, "--point=0,0",
                                   "--cert", str(cert)])
    assert code == 0 and rep["verdict"] == "valid"


def test_certify_chain_of_rows_1e5_apart_with_oracle_exit_1(capsys):
    # x1 >= 1, x2 >= 1e5 x1, x3 >= 1e5 x2 and an ellipsoid row, all tight at
    # x_bar but the third: certify refutes by tilting toward the Slater
    # point x0 = (1, 1e5, 1e10) and the oracle refutes too, neither calling
    # x_bar infeasible (exit 4).  The CI workflow runs the installed script
    # on the same file
    path = str(Path(__file__).with_name("chain_ellipsoid_problem.json"))
    code, rep = _run_json(capsys, ["certify", path, "--point=1,100000,20000000000",
                                   "--oracle", "3"])
    assert (code, rep["verdict"]) == (1, "refuted")
    assert rep["payload"]["oracle"]["outcome"] == "refuted"


def test_certify_whose_cone_systems_stop_early_and_verify_exit_0(tmp_path, capsys):
    # a certify-cone catalogue instance whose endpoint cone systems converge
    # at early convergence tests (129 and 17 steps; the CI workflow runs
    # the installed script on the same file)
    path = str(Path(__file__).with_name("early_polish_problem.json"))
    code, out = _run(capsys, ["certify", path, "--point=-3,1,1.5", "--json"])
    assert code == 0 and json.loads(out)["verdict"] == "certified"
    cert = tmp_path / "cert.json"
    cert.write_text(out, encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", path, "--point=-3,1,1.5", "--cert", str(cert)])
    assert code == 0 and rep["verdict"] == "valid"


POLYTOPE_BOX_PROBLEM = str(Path(__file__).with_name("polytope_box_problem.json"))


def test_certify_with_oracle_takes_a_point_5e_9_outside_a_row_as_in_the_set(tmp_path, capsys):
    # within the 1e-8 that certify and the oracle allow: the oracle's
    # scenario LPs start at the point and take the row it misses as met
    doc = {"m": 2, "n": 2, "C_bar": [[-1.0, 0.0], [0.0, -1.0]], "u": [0.0, 0.0],
           "v": [0.0, 0.0],
           "constraints": [{"kind": "singleton", "a_bar": a, "b_bar": b}
                           for a, b in (([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0),
                                        ([-1.0, 0.0], -1.0), ([0.0, -1.0], -1.0))]}
    code, rep = _run_json(capsys, ["certify", _write(tmp_path, doc), f"--point={1 + 5e-9!r},1",
                                   "--oracle", "3"])
    assert code == 0 and rep["verdict"] == "certified"
    assert rep["payload"]["oracle"]["outcome"] == "confirmed"
    assert rep["payload"]["oracle"]["checks_run"] == 3


def test_certify_on_objectives_scaled_by_1e8_is_not_refuted(capsys):
    # a point certified at scale 1 once came back refuted (exit 1), with a
    # witness that left an active row by 0.033 (the CI workflow runs the
    # installed script on the same file)
    path = str(Path(__file__).with_name("scaled_objective_problem.json"))
    code, rep = _run_json(capsys, ["certify", path, "--point=0,-1,-3,1,-1"])
    assert code in (0, 2) and rep["verdict"] in ("certified", "unknown")


def test_radius_of_a_subnormal_row_exit_0(capsys):
    path = str(Path(__file__).with_name("subnormal_radius_problem.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rep = _run_json(capsys, ["radius", path])
    assert code == 0 and rep["payload"]["certified"] is True
    assert math.isclose(rep["payload"]["radius"], math.sqrt(2) * 1e-310, rel_tol=1e-12)


def test_certify_polytope_box_and_verify_round_trip_exit_0(tmp_path, capsys):
    # a singleton, a polytope and a box, all tight at (1, 1), the box's
    # worst row carrying the multiplier mass; the certificate is parsed
    # back from its JSON, so verify's stacked checks run on parsed numbers
    # (the CI workflow runs the installed script on the same file)
    code, out = _run(capsys, ["certify", POLYTOPE_BOX_PROBLEM, "--point=1,1", "--json"])
    rep = json.loads(out)
    assert code == 0 and rep["verdict"] == "certified"
    assert [r["mu"] for r in rep["payload"]["certificate"]["perturbed"]] == [0, 0, 3]
    cert = tmp_path / "cert.json"
    cert.write_text(out, encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", POLYTOPE_BOX_PROBLEM, "--point=1,1",
                                   "--cert", str(cert)])
    assert code == 0 and rep["verdict"] == "valid"
    assert all(c["residual"] == 0 for c in rep["payload"]["checks"])


def test_each_command_validates_its_problem_once(tmp_path, capsys, monkeypatch):
    import robustmolp.cli as cli
    import robustmolp.model as model
    import robustmolp.oracle as oracle

    calls = []
    check = model.validate_dimensions

    def counted(p):
        calls.append(p)
        return check(p)

    # validate_problem reaches it through model's globals, the CLI and the
    # oracle through their own
    for module in (model, cli, oracle):
        monkeypatch.setattr(module, "validate_dimensions", counted)
    path = _write(tmp_path, EX1)
    code, out = _run(capsys, ["certify", path, "--point", "0,0,0", "--json"])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out, encoding="utf-8")
    for argv in (["radius", path], ["feasible", path, "--alpha", "0.1"],
                 ["certify", path, "--point", "0,0,0"],
                 ["certify", path, "--point", "0,0,0", "--oracle=3"],
                 ["verify", path, "--point", "0,0,0", "--cert", str(cert_file)]):
        calls.clear()
        assert main(argv) == 0, argv
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_certify_overflowing_perturbed_objective_exit_3(tmp_path, capsys):
    # C_bar + u v^T overflows; the certificate's perturbed residual was NaN
    doc = {"m": 2, "n": 1, "C_bar": [[-1e300], [0.0]], "u": [2.0, 1e300],
           "v": [-1e300],
           "constraints": [{"kind": "singleton", "a_bar": [0.0], "b_bar": -1e300}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["certify", _write(tmp_path, doc), "--point", "1e-300", "--json"])
    assert code == 3
    assert "NonFinite" in capsys.readouterr().err


def test_certify_whose_endpoint_row_overflows_exit_2(tmp_path, capsys):
    # C_bar = 1e308 (1, 1) at x_bar = (1, 1), a 2-norm ball tight there:
    # the endpoint row C x_bar overflows.  The cone solver once took its
    # inf, scaled the row to NaN and leaked numpy's LinAlgError, a
    # ValueError, so the run exited 3 as if the file did not parse (and
    # with RuntimeWarnings as errors it was a traceback, exit 1).  The
    # CI workflow runs the installed script on the same file.
    path = str(Path(__file__).with_name("overflow_cone_problem.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["certify", path, "--point=1,1", "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not finite" in captured.err
    # the same objective at a scale that stays finite is refuted
    doc = json.loads(Path(path).read_text())
    doc["C_bar"] = [[1e18, 1e18]]
    code, rep = _run_json(capsys, ["certify", _write(tmp_path, doc), "--point=1,1"])
    assert (code, rep["verdict"]) == (1, "refuted")


@pytest.mark.parametrize("rows, point, exit_code", [
    # a.x overflows to inf - inf in floats; its true value 0 misses b = 1
    ([[1e300, -1e300]], "1e300,1e300", 4),
    # a.x = 1e600 is +inf: the point is feasible and x1 improves downward
    ([[0.0, 1e300]], "0,1e300", 1),
    # the same row, inactive beside x1 >= 0: its zero record stays finite
    ([[0.0, 1e300], [1.0, 0.0]], "0,1e300", 0),
])
def test_certify_row_products_overflowing_the_float_range(tmp_path, capsys,
                                                          rows, point, exit_code):
    doc = {"m": 1, "n": 2, "C_bar": [[1.0, 0.0]], "u": [0.0], "v": [0.0, 0.0],
           "constraints": [{"kind": "singleton", "a_bar": a, "b_bar": float(k == 0)}
                           for k, a in enumerate(rows)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["certify", _write(tmp_path, doc), f"--point={point}", "--json"])
    out = capsys.readouterr().out
    assert code == exit_code
    if exit_code < 2:
        assert json.loads(out)["verdict"] == ("certified", "refuted")[exit_code]


def test_verify_round_trip_and_tamper(tmp_path, capsys):
    path = _write(tmp_path, EX2)
    code, out = _run(capsys, ["certify", path, "--point", "1,1,1.5", "--json"])
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out, encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", path, "--point", "1,1,1.5",
                                   "--cert", str(cert_file)])
    assert code == 0 and rep["verdict"] == "valid"

    doc = json.loads(out)
    doc["payload"]["certificate"]["lambda"] = [0.7, 0.3]
    cert_file.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", path, "--point", "1,1,1.5",
                                   "--cert", str(cert_file)])
    assert code == 1 and rep["verdict"] == "invalid"
    assert rep["payload"]["first_failing"] == "endpoint_equality_nominal"


def test_verify_tight_tolerance_fails_on_float_noise(tmp_path, capsys):
    # a certificate from the projected-subgradient path carries residuals
    # above 1e-15 even when valid at 1e-7
    doc = {"m": 2, "n": 2, "C_bar": [[-4.0, 4.0], [4.0, -2.0]],
           "u": [0.0, 0.0], "v": [0.0, 0.0],
           "constraints": [
               {"kind": "norm_ball", "a_bar": [2.0, 4.0], "Z": [[1.0, 0.0], [0.0, 1.0]],
                "delta": 1.0, "s": 2, "b_lo": -11.0, "b_hi": -11.0},
               {"kind": "norm_ball", "a_bar": [1.0, 2.0], "Z": [[1.0, 0.0], [0.0, 3.0]],
                "delta": 1.0, "s": 2, "b_lo": -14 / 3, "b_hi": -14 / 3}]}
    path = _write(tmp_path, doc)
    code, out = _run(capsys, ["certify", path, "--point", "0,-2", "--json"])
    assert code == 0
    cert_file = tmp_path / "c.json"
    cert_file.write_text(out, encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", path, "--point", "0,-2",
                                   "--cert", str(cert_file)])
    assert code == 0
    code, rep = _run_json(capsys, ["verify", path, "--point", "0,-2",
                                   "--cert", str(cert_file), "--tol", "1e-15"])
    assert code == 1


def test_usage_errors_exit_3_and_help_exits_0(tmp_path, capsys):
    # "-1,0" as its own argument reads as an option to argparse; the usage
    # error must not leave main() as SystemExit(2), which means inconclusive
    path = _write(tmp_path, EX2)
    assert main(["certify", path, "--point", "-1,0"]) == 3
    assert "expected one argument" in capsys.readouterr().err
    assert main(["certify", path]) == 3
    assert "--point" in capsys.readouterr().err
    assert main([]) == 3
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_verify_parse_error_exit_3(tmp_path, capsys):
    path = _write(tmp_path, EX2)
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    assert main(["verify", path, "--point", "1,1,1.5", "--cert", str(bad)]) == 3
    capsys.readouterr()


# x1 >= 0, x2 >= 0 with C_bar = I and u = v = 0: certify refutes (1, 1)
ORTHANT = {"m": 2, "n": 2, "C_bar": [[1.0, 0.0], [0.0, 1.0]], "u": [0.0, 0.0],
           "v": [0.0, 0.0],
           "constraints": [{"kind": "singleton", "a_bar": [1.0, 0.0], "b_bar": 0.0},
                           {"kind": "singleton", "a_bar": [0.0, 1.0], "b_bar": 0.0}]}


def _orthant_certificate(records):
    """A forged certificate of (1, 1): two mu = 0 records per constraint,
    then `records`, in both lists."""
    recs = [{"mu": 0.0, "scenario_a": [1.0, 0.0], "scenario_b": 0.0},
            {"mu": 0.0, "scenario_a": [0.0, 1.0], "scenario_b": 0.0}] + records
    return {"lambda": [0.5, 0.5], "lambda_tilde": [0.5, 0.5],
            "nominal": recs, "perturbed": recs}


def test_verify_rejects_a_forged_record_past_the_last_constraint(tmp_path, capsys):
    # the third record carries the whole endpoint equality, and pairing
    # records with constraints used to leave it out of every membership check
    path = _write(tmp_path, ORTHANT)
    assert main(["certify", path, "--point=1,1"]) == 1
    forged = _orthant_certificate([{"mu": 1.0, "scenario_a": [0.5, 0.5], "scenario_b": 1.0}])
    cert = _write(tmp_path, forged, "forged.json")
    capsys.readouterr()
    for fmt in ("--json", "--text"):
        assert main(["verify", path, "--point=1,1", "--cert", cert, fmt]) == 3
        assert "3 nominal records for 2 constraints" in capsys.readouterr().err
    # the same certificate less its third record is checked, and fails
    code, rep = _run_json(capsys, ["verify", path, "--point=1,1", "--cert",
                                   _write(tmp_path, _orthant_certificate([]), "c.json")])
    assert code == 1 and rep["payload"]["first_failing"] == "endpoint_equality_nominal"


@pytest.mark.parametrize("edit", [
    lambda d: d.update(nominal=d["nominal"][:1]),           # too few records
    lambda d: d.update(perturbed=d["perturbed"] * 2),       # too many
    lambda d: d.update(nominal=[1, 2]),                     # not objects
    lambda d: d["perturbed"].__setitem__(0, [0.0]),
    lambda d: d.update({"lambda": []}),                     # wrong lengths
    lambda d: d.update(lambda_tilde=[1.0]),
    lambda d: d["nominal"][1].update(scenario_a=[0.0, 1.0, 0.0]),
    lambda d: d["nominal"][1].update(scenario_a=[[0.0, 1.0]]),
    lambda d: d.clear() or d.update(payload=[1]),          # payload not an object
    lambda d: d.clear() or d.update(payload={"certificate": 5}),
], ids=["few-records", "many-records", "int-records", "list-record", "empty-lambda",
        "short-lambda-tilde", "long-scenario-a", "matrix-scenario-a", "list-payload",
        "int-certificate"])
def test_verify_exits_3_on_a_certificate_shaped_unlike_the_problem(tmp_path, capsys, edit):
    doc = _orthant_certificate([])
    doc["perturbed"] = [dict(r) for r in doc["perturbed"]]
    edit(doc)
    path, cert = _write(tmp_path, ORTHANT), _write(tmp_path, doc, "c.json")
    for fmt in ("--json", "--text"):
        assert main(["verify", path, "--point=1,1", "--cert", cert, fmt]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_verify_overflowing_certificate_sums_answer_invalid(tmp_path, capsys):
    # mu * scenario_a = 1e600 overflowed the endpoint sum: --text printed
    # inf with a RuntimeWarning and --json exited 3 on a non-finite report
    path = _write(tmp_path, ORTHANT)
    huge = [{"mu": 1e300, "scenario_a": [1e300, 0.0], "scenario_b": 0.0},
            {"mu": 0.0, "scenario_a": [0.0, 1.0], "scenario_b": 0.0}]
    cert = _write(tmp_path, {"lambda": [0.5, 0.5], "lambda_tilde": [0.5, 0.5],
                             "nominal": huge, "perturbed": huge}, "c.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = _run_json(capsys, ["verify", path, "--point=0,0", "--cert", cert])
        assert code == 1 and rep["verdict"] == "invalid"
        res = rep["residuals"]
        assert res["endpoint_equality_nominal"] == res["endpoint_equality_perturbed"] \
            == np.finfo(float).max
        assert res["complementarity"] == 0.0
        code, out = _run(capsys, ["verify", path, "--point=0,0", "--cert", cert, "--text"])
        assert code == 1 and "verdict:  invalid" in out and "inf" not in out


@pytest.mark.parametrize("fmt", ["--text", "--json"])
@pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400], ids=["1e999", "10^400"])
def test_verify_number_beyond_the_float_range_exits_3(tmp_path, capsys, fmt, literal):
    # json.load reads 1e999 as inf: --text answered invalid (exit 1) and
    # --json exited 3 on a non-finite report; 10^400 raised a traceback
    path = _write(tmp_path, ORTHANT)
    text = json.dumps(_orthant_certificate([])).replace("[1.0, 0.0]", f"[{literal}, 0.0]")
    cert = tmp_path / "c.json"
    cert.write_text(text, encoding="utf-8")
    assert main(["verify", path, "--point=0,0", "--cert", str(cert), fmt]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err



def test_verify_ignores_a_number_beyond_the_float_range_in_a_key_it_does_not_read(
        tmp_path, capsys):
    # the finiteness check ran over the whole document: an ignored key
    # holding 1e999 exited 3
    path = _write(tmp_path, ORTHANT)
    code, rep = _run_json(capsys, ["certify", path, "--point=0,0"])
    certificate = json.dumps(rep["payload"]["certificate"])
    reports = []
    for text in (certificate, certificate[:-1] + ', "residuals": {"x": 1e999}}'):
        cert = tmp_path / "c.json"
        cert.write_text(text, encoding="utf-8")
        code, rep = _run_json(capsys, ["verify", path, "--point=0,0", "--cert", str(cert)])
        del rep["wall_time_ms"]
        reports.append((code, rep))
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_verify_residuals_hold_no_negative_zero(tmp_path, capsys):
    # lambda = (0, 1) has least weight 0.0, whose negation -0.0 printed as
    # "-0" for lambda_simplex and lambda_tilde_simplex, in the checks and in
    # the residuals
    path = _write(tmp_path, ORTHANT)
    code, rep = _run_json(capsys, ["certify", path, "--point=0,0"])
    assert code == 0 and rep["payload"]["certificate"]["lambda"] == [0, 1]
    code, out = _run(capsys, ["verify", path, "--point=0,0", "--cert",
                              _write(tmp_path, rep, "c.json"), "--json"])
    assert code == 0 and '"lambda_simplex":0,' in out
    # json.loads would read -0 as the integer 0: look at the text
    assert not re.findall(r"[:,\[]-0(?![\d.eE])", out)

# a 2-norm ball tight at the origin beside x2 >= 0, certified at (0, 0)
TIGHT_BALL = {"m": 2, "n": 2, "C_bar": [[1.0, 0.0], [0.0, 1.0]], "u": [1.0, 0.0],
              "v": [0.0, 1.0],
              "constraints": [{"kind": "norm_ball", "a_bar": [1.0, 0.0],
                               "Z": [[1.0, 0.0], [0.0, 1.0]], "delta": 0.5, "s": 2,
                               "b_lo": -1.0, "b_hi": 0.0},
                              {"kind": "singleton", "a_bar": [0.0, 1.0], "b_bar": 0.0}]}

# certify's certificate of TIGHT_BALL at (0, 0) as written before it was cut
# to what verify replays: it also carried the lifted set's active rows and
# row multipliers, a copy of the report residuals, and per record the
# witness norm and mu times the slack
DERIVED_KEYS_CERTIFICATE = json.loads("""{
 "active_rows": [], "lambda": [0.72222222222222221, 0.27777777777777779],
 "lambda_tilde": [0.64285714285714235, 0.35714285714285771],
 "nominal": [
  {"complementarity": 0, "mu": 0.77777777777777779,
   "scenario_a": [0.9285714285714286, 0.071428571428571425], "scenario_b": 0,
   "witness": [0.14285714285714285, -0.14285714285714285], "witness_norm": 0.20203050891044214},
  {"complementarity": 0, "mu": 0.22222222222222221, "scenario_a": [0, 1], "scenario_b": 0,
   "witness": null, "witness_norm": 0}],
 "perturbed": [
  {"complementarity": 0, "mu": 0.71428571428571441,
   "scenario_a": [0.90000000000000002, 0.28000000000025105], "scenario_b": 0,
   "witness": [0.19999999999999987, -0.5600000000005021], "witness_norm": 0.59464274989321297},
  {"complementarity": 0, "mu": 0.80000000000071747, "scenario_a": [0, 1], "scenario_b": 0,
   "witness": null, "witness_norm": 0}],
 "residuals": {"complementarity_nominal": 0, "complementarity_perturbed": 0,
               "endpoint_equality_nominal": 0,
               "endpoint_equality_perturbed": 8.9683840668031348e-13,
               "system_nominal": 2.7755575615628914e-17,
               "system_perturbed": 8.969495182756765e-13},
 "row_mu": null, "row_mu_tilde": null}""")


def test_certificate_with_the_derived_keys_verifies_with_the_same_report(tmp_path, capsys):
    # the stored certificate is valid with and without the keys certify no
    # longer writes, with the same report; a fresh certificate carries
    # exactly the kept keys and is valid too, whichever multipliers the
    # cone solver returns
    path = _write(tmp_path, TIGHT_BALL)
    code, rep = _run_json(capsys, ["certify", path, "--point=0,0"])
    assert code == 0
    fresh = rep["payload"]["certificate"]
    old = DERIVED_KEYS_CERTIFICATE
    kept = {k: old[k] for k in ("lambda", "lambda_tilde")}
    for k in ("nominal", "perturbed"):
        kept[k] = [{f: v for f, v in r.items() if f not in ("complementarity", "witness_norm")}
                   for r in old[k]]
    assert sorted(fresh) == sorted(kept)
    for k in ("nominal", "perturbed"):
        assert [sorted(r) for r in fresh[k]] == [sorted(r) for r in kept[k]]
    reports = []
    for doc in (old, kept, fresh):
        code, rep = _run_json(capsys, ["verify", path, "--point=0,0", "--cert",
                                       _write(tmp_path, doc, "c.json")])
        assert code == 0 and rep["verdict"] == "valid"
        del rep["wall_time_ms"]
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["residuals"]["endpoint_equality_perturbed"] == 8.9683840668031348e-13


@pytest.mark.parametrize("edit", [
    lambda c: c["nominal"][0].update(scenario_a=["inf", 0.0]),
    lambda c: c["nominal"][0].update(mu="inf"),
    lambda c: c.update({"lambda": ["1", 0]}),
    lambda c: c["nominal"][0].update(mu=True),
    lambda c: c["perturbed"][1].update(witness=[False, 0.0]),
], ids=["scenario_a-string", "mu-string", "lambda-string", "mu-true", "witness-false"])
def test_verify_certificate_values_that_are_not_json_numbers_exit_3(tmp_path, capsys, edit):
    # as in the problem schema, a string or a bool is not a number: "inf"
    # in scenario_a exited 3 under --json only, on a non-finite report, and
    # 1 under --text; "mu": "inf" answered invalid; a string lambda entry
    # and "mu": true answered valid
    path = _write(tmp_path, ORTHANT)
    code, rep = _run_json(capsys, ["certify", path, "--point=0,0"])
    assert code == 0
    edit(rep["payload"]["certificate"])
    cert = _write(tmp_path, rep, "c.json")
    for fmt in ("--json", "--text"):
        assert main(["verify", path, "--point=0,0", "--cert", cert, fmt]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON numbers" in err


def test_verify_endpoint_sum_cancelling_beyond_the_float_range(tmp_path, capsys):
    # mu_j a_j = +-1e600 cancel exactly: the residual is |C^T lambda| alone
    path = _write(tmp_path, ORTHANT)
    recs = [{"mu": 1e300, "scenario_a": [1e300, 0.0], "scenario_b": 0.0},
            {"mu": 1e300, "scenario_a": [-1e300, 0.0], "scenario_b": 0.0}]
    cert = _write(tmp_path, {"lambda": [0.5, 0.5], "lambda_tilde": [0.5, 0.5],
                             "nominal": recs, "perturbed": recs}, "c.json")
    code, rep = _run_json(capsys, ["verify", path, "--point=1,1", "--cert", cert])
    assert code == 1
    assert rep["residuals"]["endpoint_equality_nominal"] == pytest.approx(math.sqrt(0.5))
    assert rep["residuals"]["complementarity"] == np.finfo(float).max


@pytest.mark.parametrize("edit", [
    lambda d: d.update(m=True),
    lambda d: d["constraints"][0].update(b_bar=" 2 "),
    lambda d: d["constraints"][0].update(a_bar=["1e0", 0.0]),
    lambda d: d.update(C_bar=[[True, 0.0], [0.0, 1.0]]),
    lambda d: d["constraints"][0].update(a_bar=[10 ** 400, 0.0]),
], ids=["m-true", "b_bar-string", "a_bar-string", "C_bar-true", "a_bar-huge-int"])
def test_values_that_are_not_json_numbers_exit_3(tmp_path, capsys, edit):
    doc = json.loads(json.dumps(ORTHANT))
    edit(doc)
    path = _write(tmp_path, doc)
    for argv in (["radius", path], ["certify", path, "--point=1,1"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    doc = json.loads(json.dumps(ORTHANT))
    doc["constraints"] = [{"kind": "norm_ball", "a_bar": [1.0, 0.0],
                           "Z": [[1.0, 0.0], [0.0, 1.0]], "delta": 0.5, "s": True,
                           "b_lo": -1.0, "b_hi": -1.0}]
    assert main(["certify", _write(tmp_path, doc, "s.json"), "--point=1,1"]) == 3
    assert "norm index" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _strip_timing(rep):
    rep = dict(rep)
    rep.pop("wall_time_ms", None)
    return rep


def test_json_reports_deterministic(tmp_path, capsys):
    for doc, argv in ((EX1, ["radius"]), (EX1, ["feasible", "--alpha", "2.9"]),
                      (EX2, ["certify", "--point", "1,1,1.5"])):
        path = _write(tmp_path, doc, f"d{argv[0]}.json")
        cmd = [argv[0], path] + argv[1:]
        _, rep1 = _run_json(capsys, cmd)
        _, rep2 = _run_json(capsys, cmd)
        assert _strip_timing(rep1) == _strip_timing(rep2)


def test_oracle_disagreement_exit_6(tmp_path, capsys, monkeypatch):
    # the two layers agree on every real instance, so fake an oracle
    # refutation to exercise the disagreement wiring
    import robustmolp.cli as cli_mod
    from robustmolp.oracle import OracleVerdict, Witness

    def fake_refute(vp, x_bar, k):
        return OracleVerdict("refuted",
                             Witness(0.5, np.zeros(vp.problem.n),
                                     np.ones(vp.problem.m)), k)

    monkeypatch.setattr(cli_mod.oracle, "refute_robust_weak_efficiency",
                        fake_refute)
    path = _write(tmp_path, EX2)
    code, rep = _run_json(capsys, ["certify", path, "--point", "1,1,1.5",
                                   "--oracle", "3"])
    assert code == 6
    assert rep["verdict"] == "disagreement"


TINY_OBJECTIVE_PROBLEM = str(Path(__file__).with_name("tiny_objective_problem.json"))


def test_certify_a_tiny_objective_with_oracle_exit_1(capsys):
    # C_bar = -1e-10 I over x1 <= 1, x2 <= 1: certify refutes (0, 0) with
    # (1, 1), and the oracle, whose absolute improvement test once read
    # gaps of 1e-10 as none, refutes it too instead of a disagreement (6)
    code, rep = _run_json(capsys, ["certify", TINY_OBJECTIVE_PROBLEM, "--point=0,0",
                                   "--oracle", "3"])
    assert (code, rep["verdict"]) == (1, "refuted")
    assert rep["payload"]["oracle"]["outcome"] == "refuted"


def test_certify_oracle_whose_scenario_lp_breaks_down_exit_2(capsys, monkeypatch):
    # an "unbounded" scenario LP once left a witness-less check, whose
    # subscript raised a TypeError: a traceback and exit 1 ("refuted")
    import robustmolp.efficiency as eff
    from robustmolp.numerics import LpSolution
    monkeypatch.setattr(eff, "solve_lp", lambda *args: LpSolution("unbounded"))
    code = main(["certify", TINY_OBJECTIVE_PROBLEM, "--point=0,0", "--oracle", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_error_no_table_names_exits_2_with_its_traceback(tmp_path, capsys, monkeypatch):
    # Python's own exit 1 would read as a negative verdict
    import robustmolp.cli as cli_mod

    def failing(rows):
        raise RuntimeError("no table names this")

    monkeypatch.setattr(cli_mod, "radius_of_robust_feasibility", failing)
    assert main(["radius", _write(tmp_path, EX1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: no table names this\n")


def test_text_mode_smoke(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    code, out = _run(capsys, ["radius", path])
    assert code == 0
    assert "verdict:  ok" in out and "radius:" in out


def test_canonical_float_formatting(tmp_path, capsys):
    path = _write(tmp_path, EX1)
    _, out = _run(capsys, ["radius", path, "--json"])
    # round-trip exactness of the 17-significant-digit payload
    rep = json.loads(out)
    assert rep["payload"]["radius"] == math.sqrt(28 / 3)


# ---------------------------------------------------------------------------
# non-finite input and library failures
# ---------------------------------------------------------------------------

NONFINITE_A = ('{"m": 1, "n": 2, "C_bar": [[1.0, 1.0]], "u": [0.0], "v": [0.0, 0.0], '
               '"constraints": [{"kind": "singleton", "a_bar": [Infinity, 1], '
               '"b_bar": 0.0}]}')


def test_non_finite_problem_file_exit_3(tmp_path, capsys):
    # json.load accepts Infinity: radius crashed with IndexError and
    # certify answered refuted
    path = tmp_path / "inf.json"
    path.write_text(NONFINITE_A, encoding="utf-8")
    assert main(["radius", str(path)]) == 3
    assert main(["certify", str(path), "--point", "0,0"]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "non-finite" in err


def test_verify_with_a_negative_tolerance_exit_3(tmp_path, capsys):
    # --tol -1 once called a valid certificate invalid (exit 1), every
    # residual 0.0: a negative verdict from a meaningless option
    path = str(Path(__file__).with_name("polytope_box_problem.json"))
    code, out = _run(capsys, ["certify", path, "--point=1,1", "--json"])
    assert code == 0
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out, encoding="utf-8")
    argv = ["verify", path, "--point=1,1", "--cert", str(cert_file)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--tol", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--tol must be >= 0" in err


def test_non_finite_options_exit_3(tmp_path, capsys):
    path = _write(tmp_path, EX2)
    assert main(["certify", path, "--point", "nan,0,0"]) == 3
    assert main(["certify", path, "--point", "1,inf,1.5"]) == 3
    assert capsys.readouterr().err.count("error:") == 2
    code, out = _run(capsys, ["certify", path, "--point", "1,1,1.5", "--json"])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out, encoding="utf-8")
    assert main(["verify", path, "--point", "1,1,1.5", "--cert", str(cert_file),
                 "--tol", "nan"]) == 3
    radius_path = _write(tmp_path, EX1, "r.json")
    for alpha in ("nan", "inf"):
        assert main(["feasible", radius_path, "--alpha", alpha]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "must be finite" in err


def test_24_dimensional_box_certifies_replays_and_is_confirmed(tmp_path, capsys):
    # one lifted row with 24 taus, where vertex rows would number 2^24
    n = 24
    rng = np.random.default_rng(24)
    x = rng.choice([-2.0, -1.0, 1.0, 2.0], n)
    lo = rng.integers(-3, 1, n).astype(float)
    hi = lo + rng.integers(1, 3, n)
    a_min = np.where(x >= 0, lo, hi)        # the worst vertex at x: tight
    doc = {"m": 2, "n": n, "C_bar": [a_min.tolist(), (2 * a_min).tolist()],
           "u": [1.0, 0.5], "v": a_min.tolist(),
           "constraints": [{"kind": "box", "a_lo": lo.tolist(), "a_hi": hi.tolist(),
                            "b_lo": -100.0, "b_hi": float(a_min @ x)},
                           {"kind": "singleton", "a_bar": [1.0] * n, "b_bar": -100.0}]}
    path, point = _write(tmp_path, doc), ",".join(map(str, x))
    t0 = time.process_time()
    code, out = _run(capsys, ["certify", path, f"--point={point}", "--oracle", "3", "--json"])
    assert time.process_time() - t0 < 1.0
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "certified"
    assert rep["payload"]["oracle"]["outcome"] == "confirmed"
    rec = rep["payload"]["certificate"]["nominal"][0]
    # the witness scales the box's half widths: a vertex has |w_i| = 1
    assert rec["mu"] > 0 and max(map(abs, rec["witness"])) == pytest.approx(1.0)
    assert rec["scenario_a"] == pytest.approx(a_min.tolist(), abs=1e-12)
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out, encoding="utf-8")
    code, rep = _run_json(capsys, ["verify", path, f"--point={point}", "--cert", str(cert_file)])
    assert code == 0 and rep["verdict"] == "valid"


@pytest.mark.parametrize("a_lo, a_hi, point, exit_code", [
    # every scenario product overflows; the worst row's true slack is -5e599
    ([5e299, -1e300], [1e300, -5e299], "1e300,1e300", 4),
    # feasible, and x1 improves downward: the lifted tau = |P^T x| = 2.5e599
    # has no float and is carried at a power of two
    ([0.0, 5e299], [0.0, 1e300], "0,1e300", 1),
])
def test_certify_box_products_overflowing_the_float_range(tmp_path, capsys, a_lo,
                                                          a_hi, point, exit_code):
    doc = {"m": 1, "n": 2, "C_bar": [[1.0, 0.0]], "u": [0.0], "v": [0.0, 0.0],
           "constraints": [{"kind": "box", "a_lo": a_lo, "a_hi": a_hi,
                            "b_lo": 0.0, "b_hi": 1.0}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["certify", _write(tmp_path, doc), f"--point={point}", "--json",
                     "--oracle", "3"])
    out, err = capsys.readouterr()
    assert code == exit_code
    if exit_code == 1:
        rep = json.loads(out)
        assert rep["verdict"] == rep["payload"]["oracle"]["outcome"] == "refuted"
    else:
        assert err.startswith("error:") and "nan" not in err


def test_certify_overflowing_box_beside_a_tight_row_exit_0(tmp_path, capsys):
    # the overflowing box above beside x1 >= 0, tight at the point
    doc = {"m": 1, "n": 2, "C_bar": [[1.0, 0.0]], "u": [0.0], "v": [0.0, 0.0],
           "constraints": [{"kind": "box", "a_lo": [0.0, 5e299], "a_hi": [0.0, 1e300],
                            "b_lo": 0.0, "b_hi": 1.0},
                           {"kind": "singleton", "a_bar": [1.0, 0.0], "b_bar": 0.0}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rep = _run_json(capsys, ["certify", _write(tmp_path, doc), "--point=0,1e300",
                                       "--oracle", "3"])
    assert code == 0 and rep["verdict"] == "certified"
    assert rep["payload"]["oracle"]["outcome"] == "confirmed"


@pytest.mark.parametrize("exc_name", ["NonCertifiedError", "NumericalBreakdown",
                                      "SingularMatrixError"])
def test_numerical_failure_exit_2(tmp_path, capsys, monkeypatch, exc_name):
    import robustmolp
    import robustmolp.cli as cli_mod

    def failing(rows):
        raise getattr(robustmolp, exc_name)("numerical failure")

    monkeypatch.setattr(cli_mod, "radius_of_robust_feasibility", failing)
    assert main(["radius", _write(tmp_path, EX1)]) == 2
    assert capsys.readouterr().err == "error: numerical failure\n"
