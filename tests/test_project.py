"""Project-level checks: what pyproject.toml declares exists, which
dependencies the package loads on which paths, and that no module imports a
name it never uses."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attribute = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


# Run in a fresh interpreter: the test helpers load scipy into this one.
LP_FREE_PATHS = """
import importlib
import pkgutil
import sys

import numpy as np

import quasicause
from quasicause import QUANT
from quasicause.assemblages import bb84_assemblage, realize_assemblage
from quasicause.boxes import pr_box
from quasicause.completion import new_theory, quotient_suite, register
from quasicause.decompose import (
    MIN_NEGATIVITY,
    build_realization,
    decompose_quasimixture,
    negativity,
    verify_realization,
)
from quasicause.nonsignalling import check_nonsignalling
from quasicause.serialize import (
    certificate_to_json,
    channel_digest,
    channel_to_json,
    verify_certificate,
)

for info in pkgutil.iter_modules(quasicause.__path__):
    importlib.import_module(f"quasicause.{info.name}")

gt = new_theory(QUANT)
register(gt, pr_box(), "pr")
realize_assemblage(gt, bb84_assemblage(), "bb84")
assert quotient_suite(gt, 2, np.random.default_rng(0)).passed

chan = pr_box()
report = check_nonsignalling(chan)
qm = decompose_quasimixture(chan, ns_report=report)
real = build_realization(chan, qm)
obj = channel_to_json(chan)
cert = certificate_to_json(
    chan, channel_digest(obj), report, qm, real, verify_realization(chan, real), 0
)
assert verify_certificate(cert, obj)[0]

loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"LP-free paths loaded {loaded[:5]}"

qm = decompose_quasimixture(chan, mode=MIN_NEGATIVITY)
assert abs(negativity(qm) - 0.5) <= 1e-9
assert "scipy.optimize" in sys.modules
"""


def test_only_the_min_negativity_lp_loads_scipy():
    """Importing the package, registering, realizing an assemblage, the
    quotient suite and certificate checks never load scipy; the first
    min-negativity solve does."""
    path = [str(PYPROJECT.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", LP_FREE_PATHS], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def _annotation_names(tree: ast.AST):
    """Names inside string annotations ("LinearProcess" and the like)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for inner in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(inner, ast.Name):
                        yield inner.id


def test_package_modules_use_every_name_they_import():
    """Each module of the package, ``__init__`` aside (its imports are the
    re-exports), reads every name it imports."""
    unused = []
    for path in sorted((PYPROJECT.parent / "src" / "quasicause").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read.update(_annotation_names(tree))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == [], f"imported but never used: {unused}"


def _callee(call: ast.Call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_processes_reach_binary64_only_through_the_kept_form():
    """No module of the package calls ``_float_of(_operand(...))`` or
    ``_float_of(_ints(...))``, except ``procs._binary64`` itself: a process's
    binary64 matrix comes from that accessor, which promotes a rational
    process once and keeps the result."""
    found = []
    for path in sorted((PYPROJECT.parent / "src" / "quasicause").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("procs.py", "_binary64")
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) == "_float_of" and id(node) not in allowed
            and any(isinstance(arg, ast.Call) and _callee(arg) in {"_operand", "_ints"} for arg in node.args)
        ]
    assert found == [], f"process promoted outside procs._binary64: {found}"


def test_checker_imports_only_the_standard_library_and_numpy():
    """``check``, the trusted base of every verdict, imports standard-library
    modules and numpy only, anywhere in the module: nothing relative, nothing
    else installed, and no import by call."""
    tree = ast.parse((PYPROJECT.parent / "src" / "quasicause" / "check.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            assert name not in {"__import__", "import_module"}, f"check.py:{node.lineno} imports by call"
    others = sorted(imported - set(sys.stdlib_module_names) - {"numpy"})
    assert others == [], f"check imports {others}"


def test_only_the_wire_and_theory_modules_name_the_quantum_kind():
    """The name ``QUANTUM`` appears in no module of the package but ``wires``
    (which defines it), ``theories`` (whose kind table holds its builder)
    and ``__init__`` (which re-exports it): elsewhere a wire's kind is asked
    of a theory, never switched on."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((PYPROJECT.parent / "src" / "quasicause").glob("*.py"))
        if path.name not in {"wires.py", "theories.py", "__init__.py"}
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "QUANTUM")
        or (isinstance(node, ast.alias) and "QUANTUM" in (node.name, node.asname))
    ]
    assert found == [], f"QUANTUM named outside wires and theories: {found}"
