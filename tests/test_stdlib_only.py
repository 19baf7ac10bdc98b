"""Import rules of the library.

It imports nothing outside the standard library (``dependencies = []``),
no module imports a private ``_name`` from another homlie module (a helper
that modules share is public and documented), no module reads a private
attribute ``obj._name`` that its own code neither defines nor sets (so one
module never reaches into another's objects), and every import sits at module
level, so none runs again on each call.  The one exception is the package's
``__getattr__`` in ``homlie/__init__.py``, which loads a submodule on first
access, so that each command loads only the modules it runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homlie import catalog, serialize

SRC = Path(__file__).resolve().parent.parent / "src" / "homlie"

# (file, function) of the one function allowed to import: the package's lazy loader
LOADER = ("__init__.py", "__getattr__")


def _imported(tree):
    """Top-level names of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_homlie(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(
        set(_imported(tree)) - set(sys.stdlib_module_names) - {"homlie"}
    )
    assert foreign == [], f"{path.name} imports {foreign}"


def _private_homlie_names(tree):
    """Names starting with one underscore imported from a homlie module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or node.module.split(".")[0] == "homlie"
        ):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_no_private_homlie_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = sorted(set(_private_homlie_names(tree)))
    assert private == [], f"{path.name} imports private names {private}"


def _callee(node):
    """The name a call calls, ``f`` for ``f(...)`` and ``obj.f(...)`` alike, else None."""
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _own_names(tree):
    """Every name a module defines (a function, class or assigned name) or sets on an object.

    An object's attribute is set by assigning to ``obj.name`` or by a
    ``setattr`` or ``__setattr__`` call with the name as a string.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and _callee(node) in ("setattr", "__setattr__")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def _foreign_private_reads(tree):
    """(line, name) of each read of ``obj._name``, obj not self or cls, of a name the module does not own."""
    own = set(_own_names(tree))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _is_private(node.attr)
            and node.attr not in own
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_reads_no_private_attribute_of_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = sorted(set(_foreign_private_reads(tree)))
    assert reads == [], f"{path.name} reads private attributes it does not own: {reads}"


def test_private_attribute_rule_sees_reads_not_stores():
    code = """
def rows_of(m):
    return m._rows

def pivots_of(space):
    return space._pivots

class Table:
    def __init__(self, rows):
        object.__setattr__(self, "_pivots", rows)

def configure(parser):
    parser._matcher = None
    return self._anything, cls._other, obj.__dict__
"""
    assert list(_foreign_private_reads(ast.parse(code))) == [(3, "_rows")]


def _is_import_call(node):
    """A call of ``__import__`` or ``importlib.import_module``, however it is reached."""
    return isinstance(node, ast.Call) and _callee(node) in ("__import__", "import_module")


def _function_imports(tree, filename):
    """Line numbers of the imports inside a function body, other than the loader's.

    An import is an import statement or a call that imports a module by name.
    """
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and (filename, fn.name) != LOADER:
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_import_call(node):
                    yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted(set(_function_imports(tree, path.name)))
    assert lines == [], f"{path.name} imports inside a function at lines {lines}"


def test_function_import_rule_sees_loader_calls():
    code = """
import importlib
from importlib import import_module

def a():
    import json

def b():
    return importlib.import_module("json")

def c():
    return import_module("json")

def __getattr__(name):
    return __import__(name)
"""
    tree = ast.parse(code)
    assert sorted(_function_imports(tree, "cli.py")) == [6, 9, 12, 15]
    assert sorted(_function_imports(tree, "__init__.py")) == [6, 9, 12]
    loaders = [
        fn.name for fn in ast.parse((SRC / LOADER[0]).read_text(encoding="utf-8")).body
        if isinstance(fn, ast.FunctionDef)
    ]
    assert loaders == [LOADER[1]]


def _modules_after(code, cwd=None):
    """Every module loaded once ``code`` has run in a fresh ``python -S``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    report = "\nimport sys; print(*sorted(sys.modules), file=sys.stderr)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code + report],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    return set(out.stderr.splitlines()[-1].split())


def _command_modules(tmp_path, args):
    """Modules loaded after one ``cli.main`` call that exits 0, on an sl2 file."""
    serialize.save_path(tmp_path / "sl2.json", serialize.algebra_to_dict(catalog.sl2()))
    code = f"from homlie import cli\nassert cli.main({args!r}) == 0"
    return _modules_after(code, cwd=tmp_path)


LAZY = {"homlie.analyze", "homlie.build", "homlie.catalog"}


def test_cli_import_loads_no_dataclasses_and_no_commands():
    loaded = _modules_after("import homlie.cli")
    assert loaded & {"dataclasses", "inspect", *LAZY} == set()
    assert {"homlie.errors", "homlie.exactlin", "homlie.homalg", "homlie.serialize"} <= loaded


def test_check_loads_no_command_modules(tmp_path):
    loaded = _command_modules(tmp_path, ["check", "sl2.json", "--json"])
    assert loaded & {"dataclasses", "inspect", *LAZY} == set()


def test_analyze_loads_no_catalog(tmp_path):
    loaded = _command_modules(tmp_path, ["analyze", "center", "sl2.json"])
    assert "homlie.analyze" in loaded and "homlie.catalog" not in loaded


def test_construct_loads_no_analysis_and_no_catalog(tmp_path):
    loaded = _command_modules(tmp_path, ["construct", "twist", "sl2.json", "--out", "out.json"])
    assert "homlie.build" in loaded
    assert loaded & {"homlie.analyze", "homlie.catalog"} == set()


def test_cli_import_leaves_typing_unloaded():
    # homlie spells optional types X | None and takes Iterable and Sequence from
    # collections.abc, so importing the CLI costs no typing import; -S keeps
    # site-packages hooks from loading it first
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import homlie.cli, sys; print('typing' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"
