"""Command-line surface: radius, feasible, certify, verify.

Reports are JSON objects with sorted keys and 17-significant-digit float
formatting so that reruns on identical inputs produce identical output
(the wall_time_ms field is the one measured, hence non-reproducible,
entry).  Exit codes: 0 success/positive verdict, 1 negative verdict,
2 inconclusive/unknown (including a numerical failure), 3 parse or
schema error, 4 infeasibility of the nominal system or candidate point,
5 precondition violation (radius or feasible on a constraint that is not
a singleton, negative u), 6 certifier/oracle disagreement.  certify and
verify take every uncertainty class, the joint ball included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import oracle
from .efficiency import (RESIDUAL_TOL, EfficiencyCertificate, ConstraintMultiplier,
                         NotFeasiblePointError, certify_weak_efficiency)
from .feasibility import (NominalInfeasibleError, NonCertifiedError,
                          UnsupportedClassError, ball_robust_feasible,
                          hypographical_set, radius_of_robust_feasibility)
from .model import (ProblemFormatError, Singleton, ValidationError, _json_numbers,
                    load_problem, reject_nonfinite_constant,
                    validate_dimensions, validate_problem)
from .numerics import NumericalBreakdown, SingularMatrixError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_PRECONDITION = 5
EXIT_DISAGREEMENT = 6


def _canonical(obj, out):
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("non-finite float in report")
        out.append(format(v, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        items = list(obj)
        for i, it in enumerate(items):
            if i:
                out.append(",")
            _canonical(it, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _canonical(obj[k], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out = []
    _canonical(obj, out)
    return "".join(out)


def _digest(path) -> str:
    # imported here: hashlib loads OpenSSL's libcrypto into the process
    import hashlib
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(report, as_json):
    if as_json:
        print(canonical_json(report))
        return
    print(f"command:  {report['command']}")
    print(f"verdict:  {report['verdict']}")
    for key, val in sorted(report.get("payload", {}).items()):
        print(f"{key}: {val}")
    if report.get("residuals"):
        print(f"residuals: {report['residuals']}")
    print(f"wall_time_ms: {report['wall_time_ms']}")


def _report(command, digest, verdict, payload, residuals, t0):
    return {
        "command": command,
        "input_digest": digest,
        "verdict": verdict,
        "payload": payload,
        "residuals": residuals,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
    }


def _nominal_rows(problem):
    if not all(isinstance(c, Singleton) for c in problem.constraints):
        raise UnsupportedClassError(
            "this command needs all-singleton constraints (nominal system)")
    return [(c.a_bar, c.b_bar) for c in problem.constraints]


def cmd_radius(args) -> int:
    t0 = time.monotonic()
    problem = load_problem(args.problem_file)
    validate_dimensions(problem)
    rows = _nominal_rows(problem)
    res = radius_of_robust_feasibility(rows)
    payload = {
        "radius": res.rho,
        "minimizer": res.p_star.tolist(),
        "weights": res.weights.tolist(),
        "ray_coefficient": res.mu,
        "certified": res.certified,
    }
    recon = res.weights @ hypographical_set(rows).points
    recon[-1] -= res.mu
    # hypot: the norm's sum of squares overflows past entries of 1e154
    residuals = {"reconstruction": math.hypot(*(recon - res.p_star))}
    _emit(_report("radius", _digest(args.problem_file), "ok",
                  payload, residuals, t0), args.json)
    return EXIT_OK


def _finite_option(name, value):
    if not math.isfinite(value):
        raise ProblemFormatError(f"{name} must be finite, got {value}")


def cmd_feasible(args) -> int:
    t0 = time.monotonic()
    _finite_option("--alpha", args.alpha)
    problem = load_problem(args.problem_file)
    validate_dimensions(problem)
    rows = _nominal_rows(problem)
    res = ball_robust_feasible(rows, args.alpha)
    payload = {"alpha": args.alpha, "radius": res.rho}
    residuals = {}
    if res.x is not None:
        payload["witness"] = res.x.tolist()
        slacks = [float(a @ res.x - b) for a, b in rows]
        residuals["nominal_min_slack"] = min(slacks)
    _emit(_report("feasible", _digest(args.problem_file), res.status,
                  payload, residuals, t0), args.json)
    return {"feasible": EXIT_OK, "infeasible": EXIT_NEGATIVE,
            "inconclusive": EXIT_INCONCLUSIVE}[res.status]


def _multiplier_to_dict(rec: ConstraintMultiplier):
    return {
        "mu": rec.mu,
        "scenario_a": np.asarray(rec.scenario_a).tolist(),
        "scenario_b": rec.scenario_b,
        "witness": None if rec.witness is None else np.asarray(rec.witness).tolist(),
    }


def certificate_to_dict(cert: EfficiencyCertificate) -> dict:
    return {
        "lambda": cert.lambda_nominal.tolist(),
        "lambda_tilde": cert.lambda_perturbed.tolist(),
        "nominal": [_multiplier_to_dict(r) for r in cert.nominal],
        "perturbed": [_multiplier_to_dict(r) for r in cert.perturbed],
    }


def _numbers(d, key):
    """d[key], which must hold finite JSON numbers as the problem schema's
    do: a string or a bool is not one, nor 1e999, which json.load reads as
    inf."""
    if not _json_numbers(d[key]):
        raise ProblemFormatError(f"certificate {key} must hold JSON numbers only")
    if not np.isfinite(d[key]).all():
        raise ProblemFormatError(f"certificate {key} must be finite")
    return d[key]


def _multiplier_from_dict(d) -> ConstraintMultiplier:
    if not isinstance(d, dict):
        raise TypeError("a certificate record is not an object")
    wit = d.get("witness")
    return ConstraintMultiplier(
        float(_numbers(d, "mu")), np.asarray(_numbers(d, "scenario_a"), float),
        float(_numbers(d, "scenario_b")),
        None if wit is None else np.asarray(_numbers(d, "witness"), float))


def certificate_from_dict(d) -> EfficiencyCertificate:
    """The certificate of certificate_to_dict's form.  Keys it does not
    read are ignored, so a certificate that still carries the derived
    fields of the earlier form replays with the same report."""
    return EfficiencyCertificate(
        np.asarray(_numbers(d, "lambda"), float),
        np.asarray(_numbers(d, "lambda_tilde"), float),
        tuple(_multiplier_from_dict(r) for r in d["nominal"]),
        tuple(_multiplier_from_dict(r) for r in d["perturbed"]))


def _parse_point(text, n):
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ProblemFormatError(f"bad point: {exc}") from exc
    if len(vals) != n:
        raise ProblemFormatError(f"point has {len(vals)} coordinates, expected {n}")
    if not all(math.isfinite(v) for v in vals):
        raise ProblemFormatError("point coordinates must be finite")
    return np.array(vals)


def cmd_certify(args) -> int:
    t0 = time.monotonic()
    problem = load_problem(args.problem_file)
    vp = validate_problem(problem)
    x_bar = _parse_point(args.point, problem.n)
    outcome = certify_weak_efficiency(vp, x_bar)
    payload = {"point": x_bar.tolist()}
    if outcome.certificate is not None:
        payload["certificate"] = certificate_to_dict(outcome.certificate)
    if outcome.refutation is not None:
        ref = outcome.refutation
        payload["refutation"] = {"reason": ref.reason, "endpoint": ref.endpoint, "rho": ref.rho,
                                 "x": ref.x.tolist(), "gap": ref.gap.tolist()}
    if outcome.status == "unknown":
        payload["reason"] = outcome.reason
    residuals = dict(outcome.residuals)
    verdict = outcome.status

    exit_code = {"certified": EXIT_OK, "refuted": EXIT_NEGATIVE,
                 "unknown": EXIT_INCONCLUSIVE}[outcome.status]
    if args.oracle:
        ov = oracle.refute_robust_weak_efficiency(vp, x_bar, k=args.oracle)
        payload["oracle"] = {
            "outcome": ov.outcome,
            "checks_run": ov.checks_run,
            "witness": None if ov.witness is None else {
                "rho": ov.witness.rho,
                "x": ov.witness.x.tolist(),
                "gap": ov.witness.gap.tolist(),
            },
        }
        disagree = ((outcome.status == "certified" and ov.outcome == "refuted")
                    or (outcome.status == "refuted" and ov.outcome == "confirmed"))
        if disagree:
            verdict = "disagreement"
            exit_code = EXIT_DISAGREEMENT
    _emit(_report("certify", _digest(args.problem_file), verdict,
                  payload, residuals, t0), args.json)
    return exit_code


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    _finite_option("--tol", args.tol)
    problem = load_problem(args.problem_file)
    vp = validate_problem(problem)
    x_bar = _parse_point(args.point, problem.n)
    try:
        with open(args.cert, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject_nonfinite_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFormatError(f"bad certificate file: {exc}") from exc
    if isinstance(doc, dict) and "payload" in doc:
        payload = doc["payload"]
        doc = payload.get("certificate") if isinstance(payload, dict) else None
    if not isinstance(doc, dict):
        raise ProblemFormatError("certificate payload missing")
    try:
        cert = certificate_from_dict(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"bad certificate: {exc}") from exc
    report = oracle.verify_certificate(vp, x_bar, cert, tol=args.tol)
    payload = {
        "tol": args.tol,
        "checks": [{"name": c.name, "residual": c.residual, "passed": c.passed}
                   for c in report.checks],
        "first_failing": report.first_failing,
    }
    residuals = {c.name: c.residual for c in report.checks}
    _emit(_report("verify", _digest(args.problem_file),
                  "valid" if report.ok else "invalid",
                  payload, residuals, t0), args.json)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="robustmolp",
        description="Robust feasibility radius and weak-efficiency "
                    "certification for uncertain multi-objective LPs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("problem_file")
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--json", action="store_true", help="machine-readable report")
        g.add_argument("--text", dest="json", action="store_false",
                       help="human-readable report (default)")
        sp.set_defaults(json=False)

    sp = sub.add_parser("radius", help="radius of robust feasibility")
    common(sp)
    sp.set_defaults(func=cmd_radius)

    sp = sub.add_parser("feasible", help="ball-robust feasibility at a given alpha")
    common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.set_defaults(func=cmd_feasible)

    sp = sub.add_parser("certify", help="certify robust weak efficiency of a point")
    common(sp)
    sp.add_argument("--point", required=True, help="comma-separated coordinates")
    sp.add_argument("--oracle", type=int, default=0, metavar="K",
                    help="cross-check against a K-point scenario grid")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("verify", help="replay a certificate")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--cert", required=True, help="certificate (or certify report) file")
    sp.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (code 0) or a usage error on stderr;
        # its own code 2 would read as "inconclusive"
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        return args.func(args)
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.kind == "NegativeU":
            return EXIT_PRECONDITION
        return EXIT_PARSE
    except (NominalInfeasibleError, NotFeasiblePointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except UnsupportedClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NonCertifiedError, NumericalBreakdown, SingularMatrixError) as exc:
        # the library could not decide; exit 1 would read as a negative verdict
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
