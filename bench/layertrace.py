"""Outside-in layer trace: wrappers around the public function at each
layer boundary, installed in every namespace that binds the function.

Modules such as ``efficiency`` import ``solve_lp`` by name and
``numerics`` calls ``solve_lp`` and ``project_simplex`` through its own
globals, so the wrapper replaces every module attribute that *is* the
original function object, and ``uninstall`` restores each one.  Spans are
kept in memory with their parent ids; self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("main", "canonical_json"),
    "model": ("load_problem", "validate_problem", "reduce_constraints"),
    "feasibility": ("is_feasible", "radius_of_robust_feasibility",
                    "ball_robust_feasible", "maximize_min_slack"),
    "efficiency": ("certify_weak_efficiency", "check_slater",
                   "active_geometry", "weakly_efficient_for_scenario"),
    "numerics": ("solve_lp", "min_norm_point", "solve_cone_system"),
    "oracle": ("refute_robust_weak_efficiency", "verify_certificate"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# span record fields
ID, PARENT, OP, NAME, START, END, CHILD, ERROR, OUTCOME, STEPS = range(10)


def _outcome(name, result):
    """The part of a result the per-layer outcome counts need."""
    if name == "numerics.solve_lp":
        return result.status
    if name == "numerics.min_norm_point":
        return bool(result.certified)
    if name == "numerics.solve_cone_system":
        return (bool(result.feasible), bool(result.exact))
    if name == "model.reduce_constraints":
        return len(result.rows)
    if name == "efficiency.certify_weak_efficiency":
        return result.status
    if name == "oracle.refute_robust_weak_efficiency":
        return result.checks_run
    if name == "oracle.verify_certificate":
        return bool(result.ok)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1               # id of the operation in flight
        self.simplex_calls = 0     # numerics.project_simplex, one per projected step
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1][ID] if stack else -1, self.op, name,
                   0.0, 0.0, 0.0, False, None, self.simplex_calls]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += end - rec[START]
                rec[STEPS] = self.simplex_calls - rec[STEPS]
            rec[OUTCOME] = _outcome(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_simplex(self, fn):
        def counted(*args, **kwargs):
            self.simplex_calls += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def install(self, package):
        """Wrap every traced function of `package` (the imported robustmolp)."""
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        pkg_modules = {name: sys.modules[f"{prefix}.{name}"] for name in LAYERS}
        targets = []
        for mod, fns in LAYERS.items():
            for fn in fns:
                original = getattr(pkg_modules[mod], fn)
                targets.append((original, self._wrap(f"{mod}.{fn}", original)))
        psx = pkg_modules["numerics"].project_simplex
        targets.append((psx, self._count_simplex(psx)))
        for original, wrapper in targets:
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapper)
                        self._saved.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    # -- summary ------------------------------------------------------------

    def summary(self):
        """Per-layer metrics named <module>.<function>.<measure>."""
        agg = {name: defaultdict(float) for name in SPAN_NAMES}
        for s in self.spans:
            a = agg[s[NAME]]
            dur = s[END] - s[START]
            self_s = dur - s[CHILD]
            a["calls"] += 1
            a["total_s"] += dur
            a["self_s"] += self_s
            a["errors"] += s[ERROR]
            out = s[OUTCOME]
            name = s[NAME]
            if name == "numerics.solve_lp":
                a["infeasible"] += out == "infeasible"
                if s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == "feasibility.maximize_min_slack":
                    agg["feasibility.maximize_min_slack"]["lp_calls"] += 1
            elif name == "numerics.min_norm_point":
                a["certified"] += out is True
                a["steps"] += s[STEPS]
            elif name == "numerics.solve_cone_system":
                a["steps"] += s[STEPS]
                if out is not None:
                    a["feasible"] += out[0]
                    a["exact"] += out[1]
                    a["feasible_self_s" if out[0] else "infeasible_self_s"] += self_s
            elif name == "model.reduce_constraints":
                a["rows"] += out or 0
            elif name == "efficiency.certify_weak_efficiency":
                a["unknown"] += out == "unknown"
            elif name == "oracle.refute_robust_weak_efficiency":
                a["checks_run"] += out or 0
            elif name == "oracle.verify_certificate":
                a["passed"] += out is True

        def ratio(name, key):
            calls = agg[name]["calls"]
            return agg[name][key] / calls if calls else 0.0

        out = {}
        for name in SPAN_NAMES:
            for measure in ("calls", "total_s", "self_s", "errors"):
                out[f"{name}.{measure}"] = agg[name][measure]
        out["numerics.solve_lp.infeasible_ratio"] = ratio("numerics.solve_lp", "infeasible")
        out["numerics.min_norm_point.certified_ratio"] = ratio("numerics.min_norm_point", "certified")
        out["numerics.min_norm_point.steps"] = agg["numerics.min_norm_point"]["steps"]
        cone = "numerics.solve_cone_system"
        out[f"{cone}.feasible_ratio"] = ratio(cone, "feasible")
        out[f"{cone}.exact_ratio"] = ratio(cone, "exact")
        out[f"{cone}.steps"] = agg[cone]["steps"]
        out[f"{cone}.feasible_self_s"] = agg[cone]["feasible_self_s"]
        out[f"{cone}.infeasible_self_s"] = agg[cone]["infeasible_self_s"]
        out["feasibility.maximize_min_slack.lp_calls"] = agg["feasibility.maximize_min_slack"]["lp_calls"]
        out["model.reduce_constraints.rows"] = agg["model.reduce_constraints"]["rows"]
        out["efficiency.certify_weak_efficiency.unknown_ratio"] = ratio(
            "efficiency.certify_weak_efficiency", "unknown")
        out["oracle.refute_robust_weak_efficiency.checks_run"] = agg[
            "oracle.refute_robust_weak_efficiency"]["checks_run"]
        out["oracle.verify_certificate.pass_ratio"] = ratio("oracle.verify_certificate", "passed")
        return out

    def self_time_total(self):
        return sum(s[END] - s[START] - s[CHILD] for s in self.spans)

    def dump(self):
        """Spans as plain lists, for writing out when the run ends."""
        fields = ("id", "parent", "op", "name", "start", "end", "child_s",
                  "error", "outcome", "steps")
        return {"fields": fields, "spans": self.spans}
