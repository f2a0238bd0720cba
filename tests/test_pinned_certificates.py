"""Canonical certificates pinned to 1e-12.

`pinned_certificates.json` holds `certificate_to_dict` of each instance
below as produced before norm balls and ellipsoids shared one
affine-norm-ball row (a = a_bar + P w, ||w||_s <= 1).  The s = 1 and
s = inf entries were re-recorded when those balls were lifted into linear
rows and decided by the endpoint LP: the same multipliers and witnesses
to rounding.  The box entry was re-recorded when boxes became one lifted
s = inf row: the same multipliers and scenario rows, now with a witness
w; `box_vertex_rows` keeps its earlier record, whose scenario row is a
vertex with no witness, and must still replay.  A certificate now holds
only what verify replays (lambda, lambda_tilde and per constraint mu,
scenario_a, scenario_b and witness), so the lifted set's active rows and
row multipliers, the residuals and each record's witness_norm and
complementarity were deleted from every entry, with no other value
re-recorded; a change to the lift alone no longer shows here.  Any change
to the reduction, the endpoint systems or the certificate records that
moves a multiplier, scenario row or witness does.  The `ellipsoid` and
`polytope_and_norm_ball` entries were re-recorded when the cone solver
began to test for convergence at iterations 1, 2, 4, ..., 256: it stops
sooner, at another point of the same multiplier set, and both new
certificates replay.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from robustmolp.cli import certificate_from_dict, certificate_to_dict
from robustmolp.efficiency import certify_weak_efficiency
from robustmolp.model import (Box, Ellipsoid, NormBall, Polytope, Singleton,
                              UncertainMOLP, validate_problem)
from robustmolp.oracle import verify_certificate

PINNED = Path(__file__).with_name("pinned_certificates.json")

X = np.array([1.0, -0.5])
Z = np.array([[2.0, 1.0], [1.0, 3.0]])
A_BAR = np.array([3.0, 1.0])
_DUAL = {1: lambda y: np.abs(y).max(), 2: np.linalg.norm,
         math.inf: lambda y: np.abs(y).sum()}


def _tight_norm_ball(s, delta=0.5):
    """Norm ball whose worst-case row is tight at X; returns it with its
    supergradient there."""
    y = np.linalg.solve(Z, X)
    con = NormBall(A_BAR, Z, delta, s, -10.0, float(A_BAR @ X - delta * _DUAL[s](y)))
    if s == 2:
        d = y / np.linalg.norm(y)
    elif s == 1:
        d = np.zeros(2)
        i = int(np.argmax(np.abs(y)))
        d[i] = np.sign(y[i])
    else:
        d = np.sign(y)
    return con, A_BAR - delta * np.linalg.solve(Z, d)


def _problem(cons, normals):
    """Objective rows in the cone of the tight normals, so X is certified."""
    G = np.array(normals)
    C = np.array([[1.0] * len(normals), [2.0] + [0.0] * (len(normals) - 1)]) @ G
    v = np.ones(len(normals)) @ G
    return UncertainMOLP(2, 2, C, [1.0, 0.5], v,
                         tuple(cons) + (Singleton([1.0, 1.0], -10.0),))


def _instances():
    out = {}
    for s, name in ((1, "norm_ball_s1"), (2, "norm_ball_s2"), (math.inf, "norm_ball_sinf")):
        con, g = _tight_norm_ball(s)
        out[name] = _problem([con], [g])
    spans = (np.array([1.0, 0.5]), np.array([0.0, 1.0]))
    w = np.array([t @ X for t in spans])
    ell = Ellipsoid(A_BAR, spans, -10.0, float(A_BAR @ X - np.linalg.norm(w)))
    g = A_BAR - np.array(spans).T @ (w / np.linalg.norm(w))
    out["ellipsoid"] = _problem([ell], [g])
    con, g = _tight_norm_ball(2)
    a_poly = np.array([-1.0, 2.0])
    poly = Polytope((np.concatenate([a_poly, [a_poly @ X]]),
                     np.array([1.0, 1.0, -5.0])))
    out["polytope_and_norm_ball"] = _problem([poly, con], [a_poly, g])
    lo, hi = np.array([1.0, -1.0]), np.array([2.0, 3.0])
    a_min = np.where(X >= 0, lo, hi)
    box = Box(lo, hi, -10.0, float(a_min @ X))
    out["box"] = _problem([box], [a_min])
    return out


def _close(got, want, path=""):
    assert type(got) is type(want) or {type(got), type(want)} <= {int, float}, path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            _close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=0, abs=1e-12), path
    else:
        assert got == want, path


@pytest.mark.parametrize("name", sorted(_instances()))
def test_canonical_certificate_pinned(name):
    p = _instances()[name]
    out = certify_weak_efficiency(validate_problem(p), X)
    assert out.status == "certified"
    got = json.loads(json.dumps(certificate_to_dict(out.certificate)))
    _close(got, json.loads(PINNED.read_text())[name], name)


def test_vertex_row_box_certificate_still_verifies():
    # recorded while boxes were 2^n vertex rows: scenario_a a vertex, no witness
    doc = json.loads(PINNED.read_text())["box_vertex_rows"]
    assert all(r["witness"] is None for r in doc["nominal"] + doc["perturbed"])
    vp = validate_problem(_instances()["box"])
    assert verify_certificate(vp, X, certificate_from_dict(doc)).ok
