"""The layer tracer in bench/layertrace.py wraps library functions by name.

A rename or deletion of a traced function would only show as a crash of
``bench/run.py --trace 1``; this test fails first.  The tracer module
imports the standard library only and is executed from its source, so no
bytecode is written next to it.
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
