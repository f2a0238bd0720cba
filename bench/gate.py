"""Correctness gate, run after the timed loop at the library's default
tolerances.

Each check recomputes what it needs in benchmark code from the original
constraint classes; the only library calls are the ones the gate is
defined by: ``verify_certificate`` replays a certified answer whose
timed replay did not run, and ``refute_robust_weak_efficiency`` (exact on
all-linear sets) cross-checks polyhedral verdicts.

``judge`` returns ``(failed, wrong, reason)`` for one operation.  An
operation fails when it raised, answered unknown/inconclusive, or is
wrong; it is wrong when its answer fails a check below.
"""

from __future__ import annotations

import numpy as np

from workloads import BALL_FRACTIONS, GOLDEN_RHO, dual_norm

VI_TOL = 1e-8            # radius variational inequality
SLACK_TOL = 1e-8         # ball-probe witness worst-case slack
MEMBER_TOL = 1e-9        # refutation witness feasibility (the oracle's own)
ORACLE_GRID = 3          # both endpoint scenarios and the midpoint


# ---------------------------------------------------------------------------
# Worst-case slack of each uncertainty class, independent of the library
# ---------------------------------------------------------------------------

def worst_slack(con, x):
    if con.kind == "singleton":
        return float(con.a_bar @ x - con.b_bar)
    if con.kind == "polytope":
        return min(float(v[:-1] @ x - v[-1]) for v in con.vertices)
    if con.kind == "box":
        return float(np.minimum(con.a_lo * x, con.a_hi * x).sum() - con.b_hi)
    if con.kind == "norm_ball":
        pen = con.delta * dual_norm(np.linalg.solve(con.Z, x), con.s)
        return float(con.a_bar @ x - con.b_hi - pen)
    if con.kind == "ellipsoid":
        pen = float(np.linalg.norm(np.array(con.spans) @ x)) if con.spans else 0.0
        return float(con.a0 @ x - con.b_hi - pen)
    raise ValueError(f"no worst-case slack for class {con.kind}")


def check_radius(rows, rho, p_star, weights, mu):
    """None when (rho, p*) is the certified minimum-norm point of the
    hypographical set conv{(a_j, b_j)} + R+ (0,...,0,-1), else a reason."""
    H = np.array([np.concatenate([a, [b]]) for a, b in rows])
    p_star = np.asarray(p_star, float)
    weights = np.asarray(weights, float)
    ray = np.zeros(H.shape[1])
    ray[-1] = -1.0
    if abs(float(np.linalg.norm(p_star)) - rho) > 1e-12 * max(1.0, rho):
        return "norm(p*) != rho"
    if weights.min() < -1e-12 or abs(weights.sum() - 1.0) > 1e-9 or mu < -1e-12:
        return "weights not a simplex/ray combination"
    recon = weights @ H + mu * ray - p_star
    if float(np.linalg.norm(recon)) > 1e-8 * max(1.0, float(np.abs(H).max())):
        return "p* not in the hypographical set"
    vi = min(float(((H - p_star) @ p_star).min()), float(ray @ p_star))
    if vi < -VI_TOL:
        return f"variational inequality violated by {-vi:.3e}"
    return None


def ball_witness_slack(rows, alpha, x):
    x = np.asarray(x, float)
    pen = alpha * np.sqrt(float(x @ x) + 1.0)
    return min(float(a @ x - b) for a, b in rows) - pen


def check_ball(rows, frac, alpha, status, x):
    if frac > 1.0:
        return "feasible above the radius" if status == "feasible" else None
    if status == "infeasible":
        return "infeasible below the radius"
    if status == "feasible":
        s = ball_witness_slack(rows, alpha, x)
        if s < -SLACK_TOL:
            return f"witness worst-case slack {s:.3e}"
    return None


def check_refutation(problem, x_bar, rho, x):
    """A refutation witness must be feasible for every original class and
    strictly dominate x_bar under the scenario C_bar + rho u v^T."""
    if x is None:
        return None
    x = np.asarray(x, float)
    worst = min(worst_slack(c, x) for c in problem.constraints)
    if worst < -MEMBER_TOL:
        return f"witness infeasible by {-worst:.3e}"
    if rho is None:
        return "witness without a scenario"
    C = problem.C_bar + rho * np.outer(problem.u, problem.v)
    gap = C @ x_bar - C @ x
    if not np.all(gap > 0.0):
        return f"witness does not dominate (min gap {gap.min():.3e})"
    return None


def all_linear(problem):
    return all(c.kind in ("singleton", "polytope", "box")
               for c in problem.constraints)


class Gate:
    """Judges each timed operation; holds the per-instance cross-checks."""

    def __init__(self, api):
        self.api = api
        self.oracle_cache = {}

    def oracle_verdict(self, key, problem, x_bar):
        if key not in self.oracle_cache:
            self.oracle_cache[key] = self.api.refute_robust_weak_efficiency(
                problem, x_bar, k=ORACLE_GRID).outcome
        return self.oracle_cache[key]

    def certify_reason(self, key, inst, status, rho, x, replay_ok):
        """Checks shared by the library and CLI certify operations."""
        if status == "refuted":
            if inst.by_construction:
                return "refuted an anchor certified by construction"
            reason = check_refutation(inst.problem, inst.x_bar, rho, x)
            if reason:
                return reason
        if status == "certified" and replay_ok is False:
            return "certificate fails verify_certificate replay"
        if status in ("certified", "refuted") and all_linear(inst.problem):
            want = {"certified": "confirmed", "refuted": "refuted"}[status]
            got = self.oracle_verdict(key, inst.problem, inst.x_bar)
            if got != want:
                return f"{status} but the exact oracle says {got}"
        return None

    def replay(self, inst, certificate):
        vp = self.api.validate_problem(inst.problem)
        return self.api.verify_certificate(vp, inst.x_bar, certificate).ok

    def judge(self, rec, inst, replay_ok):
        """rec: the op record; replay_ok: the certify op's replay result
        (None when the op is not a certified certify)."""
        kind, out = rec.kind, rec.outcome
        if rec.skipped:
            return True, False, "depends on a failed operation"
        if out.error is not None:
            return True, False, f"raised {type(out.error).__name__}"
        v = out.value
        reason, failed = None, False
        if kind == "radius":
            reason = check_radius(inst.rows, v.rho, v.p_star, v.weights, v.mu)
            if reason is None and inst.golden and abs(v.rho - GOLDEN_RHO) > 1e-12 * GOLDEN_RHO:
                reason = f"golden radius {v.rho!r}"
        elif kind == "ball":
            failed = v.status == "inconclusive"
            reason = check_ball(inst.rows, rec.meta["frac"], rec.meta["alpha"],
                                v.status, v.x)
        elif kind == "certify":
            failed = v.status == "unknown"
            ref = v.refutation
            reason = self.certify_reason(
                ("lib", rec.instance), inst, v.status,
                None if ref is None else ref.rho, None if ref is None else ref.x,
                replay_ok)
        elif kind == "verify":
            pass                   # its answer is judged on the certify op
        else:
            code, report, _ = v
            if code != 6 and (code >= 3 or report is None):
                return True, False, f"exit code {code}"
            failed, reason = self.judge_cli(rec, inst, replay_ok)
        return failed or reason is not None, reason is not None, reason

    def judge_cli(self, rec, inst, replay_ok):
        code, report, _ = rec.outcome.value
        kind = rec.kind
        if code == 6:
            return True, "certifier and oracle disagree"
        payload = report["payload"]
        if kind == "cli-radius":
            return False, check_radius(inst.radius_rows, payload["radius"],
                                       payload["minimizer"], payload["weights"],
                                       payload["ray_coefficient"])
        if kind == "cli-feasible":
            status = report["verdict"]
            return status == "inconclusive", check_ball(
                inst.radius_rows, BALL_FRACTIONS[0], rec.meta["alpha"], status,
                payload.get("witness"))
        if kind in ("cli-certify", "cli-certify-oracle"):
            status = report["verdict"]
            ref = payload.get("refutation") or {}
            reason = self.certify_reason(
                ("cli", rec.instance), inst.certify, status, ref.get("rho"),
                ref.get("x"), replay_ok if kind == "cli-certify" else None)
            return status == "unknown", reason
        return False, None         # cli-verify: judged on the certify op
