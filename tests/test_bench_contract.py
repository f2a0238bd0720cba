"""The layer tracer in bench/layertrace.py wraps library functions by name
and reads fields of their results.

A rename or deletion of a traced function, or of a result field the tracer
reads, would only show as a crash of ``bench/run.py --trace 1``; these
tests fail first.  The tracer module imports the standard library only and
is executed from its source, so no bytecode is written next to it.
"""

import importlib
import runpy
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def test_every_traced_name_resolves():
    layers = runpy.run_path(str(LAYERTRACE))["LAYERS"]
    names = [(mod, fn) for mod, fns in layers.items() for fn in fns]
    names.append(("numerics", "project_simplex"))   # counted per projected step
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"robustmolp.{mod}"),
                                       fn, None))]
    assert not missing


def _real_results():
    """One real result of each traced function whose result the tracer reads."""
    import numpy as np

    from robustmolp import (NormBall, Singleton, UncertainMOLP,
                            certify_weak_efficiency, min_norm_point,
                            reduce_constraints, refute_robust_weak_efficiency,
                            solve_cone_system, solve_lp, validate_problem,
                            verify_certificate)

    p = UncertainMOLP(1, 2, [[1.0, 1.0]], [1.0], [0.0, 1.0],
                      (Singleton([1.0, 0.0], 0.0),
                       NormBall([0.0, 1.0], np.eye(2), 0.5, 2, 0.0, 0.0)))
    vp = validate_problem(p)
    x = np.zeros(2)
    outcome = certify_weak_efficiency(vp, x)
    return {
        "numerics.solve_lp": solve_lp([1.0], [[1.0]], [1.0], [1.0]),
        "numerics.min_norm_point": min_norm_point([np.ones(2)], np.zeros(2)),
        "numerics.solve_cone_system": solve_cone_system([[1.0, 0.0, 1.0]], [2.0], [("soc", 3)]),
        "model.reduce_constraints": reduce_constraints(vp),
        "efficiency.certify_weak_efficiency": outcome,
        "oracle.refute_robust_weak_efficiency": refute_robust_weak_efficiency(p, x, k=3),
        "oracle.verify_certificate": verify_certificate(vp, x, outcome.certificate),
    }


def test_tracer_reads_fields_that_real_results_have():
    # a result field the tracer reads (ConeResult.exact, say) that the
    # library drops would otherwise only crash `--trace 1`
    trace = runpy.run_path(str(LAYERTRACE))
    outcome, names = trace["_outcome"], trace["SPAN_NAMES"]
    reads = []
    for name in names:
        try:
            outcome(name, object())        # a result with no fields at all
        except (AttributeError, TypeError):
            reads.append(name)
    results = _real_results()
    assert reads and set(reads) <= set(results), set(reads) - set(results)
    for name in reads:
        outcome(name, results[name])


def test_the_cone_solver_counts_one_simplex_projection_per_projected_point(monkeypatch):
    # the tracer reports numerics.solve_cone_system.steps as the calls of
    # numerics.project_simplex inside the span, so the solver must call it
    # through the module attribute once per projected point: the initial
    # point, each step and each polish candidate (every system here has
    # one simplex block); numerics.min_norm_point.steps, counted the same
    # way, reads 0 since that kernel stopped projecting
    import json

    from robustmolp import numerics

    calls, candidates = [], []
    project, polish = numerics.project_simplex, numerics._polish_cone

    def unhex(v):
        return [float.fromhex(t) for t in v]

    def counted_project(y):
        calls.append(1)
        return project(y)

    def counted_polish(*args):
        cand = polish(*args)
        candidates.append(cand is not None)
        return cand

    monkeypatch.setattr(numerics, "project_simplex", counted_project)
    monkeypatch.setattr(numerics, "_polish_cone", counted_polish)
    pinned = json.loads(Path(__file__).with_name("pinned_cone.json").read_text())
    for name, rec in pinned.items():
        del calls[:], candidates[:]
        res = numerics.solve_cone_system([unhex(row) for row in rec["A"]], unhex(rec["b"]),
                                         [tuple(block) for block in rec["blocks"]])
        assert [kind for kind, _ in rec["blocks"]].count("simplex") == 1
        assert len(calls) == 1 + res.iterations + sum(candidates), name
