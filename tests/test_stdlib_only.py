"""Import rules of the library.

It imports nothing outside the standard library (``dependencies = []``),
no module imports a private ``_name`` from another homlie module (a helper
that modules share is public and documented), and every import sits at module
level, so none runs again on each call.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homlie"


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


def _function_imports(tree):
    """Line numbers of the imports inside a function body."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = sorted(set(_function_imports(tree)))
    assert lines == [], f"{path.name} imports inside a function at lines {lines}"


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
