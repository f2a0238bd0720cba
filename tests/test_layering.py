"""Import layering of the package, read from its source with ast.

The certifiers must not reach the layers that check or present them: the
oracle is a cross-check of certify, so certify never calls it, and no
module may import one that imports it back, at module level or inside a
function.  No module imports a name it never uses, so a name the library
drops cannot linger in an import.  Every field of a certificate is read
by the oracle, which replays it, so a certificate carries no derived
data.  The band rows of a dual norm are assembled in one place, the lift.
One concave row class carries every class with a perturbation, the joint
ball included, so no module dispatches on the kind of a concave row.
Importing the library or its CLI loads no OpenSSL: hashlib is imported
only where an input is hashed.
"""

import ast
import os
import subprocess
import sys
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


def _unused_imports(source):
    """The names an import binds that the module never reads, __future__
    features aside."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unused_import_check_sees_an_unused_name():
    source = "from .efficiency import Gone, kept\nimport numpy as np\nkept(np.zeros(1))\n"
    assert _unused_imports(source) == {"Gone"}


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports to re-export
    unused = {name: _unused_imports((PKG / f"{name}.py").read_text(encoding="utf-8"))
              for name in MODULES - {"__init__"}}
    assert not {k: v for k, v in unused.items() if v}


def _class_fields(source, names):
    """The annotated fields of the named classes of a module."""
    return {node.name: [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name in names}


def _attributes_read(source):
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_a_certificate_holds_only_what_verify_replays():
    # a field the oracle never reads is derived data: the canonical JSON
    # would carry it, and a change to what it derives from would re-record it
    names = {"EfficiencyCertificate", "ConstraintMultiplier"}
    fields = _class_fields((PKG / "efficiency.py").read_text(encoding="utf-8"), names)
    read = _attributes_read((PKG / "oracle.py").read_text(encoding="utf-8"))
    assert set(fields) == names and all(fields.values())
    assert {c: [f for f in fs if f not in read] for c, fs in fields.items()} \
        == dict.fromkeys(names, [])


def _calls(source):
    """The names of the functions and methods a module calls."""
    return {f.id if isinstance(f, ast.Name) else f.attr
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            for f in (node.func,) if isinstance(f, (ast.Name, ast.Attribute))}


def test_only_the_lift_assembles_band_rows():
    # the Slater LP and the endpoint systems read the lifted set instead
    assert {"dual_norm_bands", "positions"} <= _calls((PKG / "model.py").read_text(encoding="utf-8"))
    for name in MODULES - {"model"}:
        calls = _calls((PKG / f"{name}.py").read_text(encoding="utf-8"))
        assert not calls & {"dual_norm_bands", "positions"}, name


def _second_concave_class(source):
    """What in a module would make a second concave row class: a name
    BallRow, an isinstance(..., ConcaveRow) test, a direction_dim method."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        named = {getattr(node, key, None) for key in ("id", "attr", "name")}
        if "BallRow" in named:
            out.add("BallRow")
        if isinstance(node, ast.FunctionDef) and node.name == "direction_dim":
            out.add("direction_dim")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "ConcaveRow" in {getattr(n, "id", None) for n in ast.walk(node.args[1])}):
            out.add("isinstance ConcaveRow")
    return out


def test_second_concave_class_check_sees_each_form():
    source = ("from .model import BallRow\n"
              "class Row:\n    def direction_dim(self): pass\n"
              "ok = isinstance(r, (Ball, ConcaveRow))\n")
    assert _second_concave_class(source) == {"BallRow", "direction_dim",
                                              "isinstance ConcaveRow"}


def test_one_concave_row_class():
    # the joint ball is [a_bar | b] + alpha w over (a, b): a ConcaveRow
    found = {name: _second_concave_class((PKG / f"{name}.py").read_text(encoding="utf-8"))
             for name in MODULES}
    assert not {k: v for k, v in found.items() if v}


def test_importing_the_library_and_its_cli_loads_no_openssl():
    # hashlib's _hashlib maps OpenSSL's libcrypto into the process; in a
    # fresh interpreter neither import may reach it
    code = "import sys, robustmolp, robustmolp.cli; sys.exit('_hashlib' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PKG.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0
