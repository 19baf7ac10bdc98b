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


def test_rref_keeps_the_contract_the_hooks_read():
    # rref_done reads the input's rows and cols and compares the result's data
    # with the input's, so rref must return a same-shape Matrix and a pivot tuple
    from homlie.exactlin import Matrix

    cases = [
        Matrix([[0, 2, 4], [0, 0, 0], [1, 1, 1], [0, 1, 2]]),
        Matrix([[1, 0], [0, 1]]),
        Matrix.zeros(0, 3),
        Matrix.zeros(2, 0),
    ]
    rec = _load_spans().Recorder()
    rec.install(homlie)
    try:
        results = [m.rref() for m in cases]
    finally:
        rec.uninstall()
    for m, (red, pivots) in zip(cases, results):
        assert isinstance(red, Matrix) and red.shape == m.shape
        assert isinstance(pivots, tuple) and all(isinstance(p, int) for p in pivots)
    assert results[0] == (Matrix([[1, 0, -1], [0, 1, 2], [0, 0, 0], [0, 0, 0]]), (0, 1))
    assert rec.counts["exactlin.rref.cells"] == sum(m.rows * m.cols for m in cases)
    assert rec.counts["exactlin.rref.noop_calls"] == 3
