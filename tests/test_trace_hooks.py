"""The benchmark's trace hooks must find every homlie function they wrap.

``perfbench/spans.py`` wraps functions by name; a renamed or deleted one
would only show up as a ``KeyError`` in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import homlie
import homlie.catalog
import homlie.cli
import homlie.serialize

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls():
    before = dict(vars(homlie.homalg))
    rec = _load_spans().Recorder()
    rec.install(homlie)
    try:
        assert homlie.homalg.check_quadratic is not before["check_quadratic"]
    finally:
        rec.uninstall()
    assert dict(vars(homlie.homalg)) == before
