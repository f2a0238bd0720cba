"""Import layering of the package, read from its source with ast.

The certifiers must not reach the layers that check or present them: the
oracle is a cross-check of certify, so certify never calls it, and no
module may import one that imports it back, at module level or inside a
function.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "robustmolp"
MODULES = {p.stem for p in PKG.glob("*.py")}


def _imports(path):
    """The package modules that one module imports anywhere in its body."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            out.update(n[1] for n in names if n[0] == "robustmolp" and len(n) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "robustmolp":
                    continue
                parts = parts[1:] or [""]
            # "from . import oracle" names the module; "from .model import X" its parent
            out.update([parts[0]] if parts[0] else [a.name for a in node.names])
    return out & MODULES


GRAPH = {name: _imports(PKG / f"{name}.py") for name in MODULES}


def test_parser_sees_the_known_imports():
    assert {"efficiency", "model"} <= GRAPH["oracle"]
    assert {"oracle", "efficiency"} <= GRAPH["cli"]


def test_certifiers_import_neither_the_oracle_nor_the_cli():
    for name in ("efficiency", "feasibility"):
        assert not GRAPH[name] & {"oracle", "cli"}, name


def test_import_graph_is_acyclic():
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(GRAPH[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(GRAPH):
        visit(name)
