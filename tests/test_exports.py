"""Every name a module lists in ``__all__`` resolves, and every definition
has a reader.

A deletion that leaves its name behind in ``__all__`` breaks
``from module import *`` and the documented API; it fails here.  A function
or class that only tests call belongs in ``tests/oracles.py``.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sglowrank

MODULES = [
    name
    for name in (m.name for m in pkgutil.iter_modules(sglowrank.__path__, "sglowrank."))
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


ROOT = Path(__file__).resolve().parents[1]


def _references(tree: ast.Module) -> set[str]:
    """Identifiers a module reads: names, attributes, imported names and
    string constants (``perfbench/spans.py`` patches attributes by name).
    ``__all__`` and a definition's references to itself do not count."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            continue
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        names.discard(getattr(stmt, "name", None))
        found |= names
    return found


def test_every_definition_has_a_reader():
    # test-only API belongs in tests/oracles.py: every module-level function
    # and class of the package is read by the package or by perfbench
    trees = {path: ast.parse(path.read_text())
             for folder in (ROOT / "src", ROOT / "perfbench") for path in folder.rglob("*.py")}
    read = set().union(*map(_references, trees.values()))
    unread = [
        f"{path.stem}.{stmt.name}"
        for path, tree in trees.items() if path.is_relative_to(ROOT / "src")
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in read
    ]
    assert not unread, f"defined but read only by tests: {unread}"


def test_import_loads_no_further_scipy_subpackage():
    # import time is most of a run's set-up: ``import sglowrank`` loads
    # scipy.linalg and scipy.sparse (scipy.version comes with scipy), and a
    # further public subpackage, scipy.special say, must not come with it
    code = ("import sys, sglowrank; "
            "print(*{k.split('.')[1] for k in sys.modules if k.startswith('scipy.')})")
    path = [str(Path(sglowrank.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    public = {name for name in out if not name.startswith("_")}
    assert public <= {"linalg", "sparse", "version"}, public
