"""Tests of the benchmark's output checks: a corrupted output counts as failed.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def bench():
    b = run.Bench(ROOT, "small-files", 0)
    b.import_homlie()
    yield b
    b.close()


def _writer(bench):
    w = workloads.Writer(bench.homlie, os.path.join(bench.tmp, "in"))
    os.makedirs(w.dir)
    return w


def _run(bench, job):
    rc, _, _, _, stdout, stderr = bench.spawn(["-m", "homlie", *job.args, "--json"], "t")
    bench.verify(job, rc, stdout, stderr)
    return rc, stdout


def _first_nonzero_bumped(coeffs):
    k = next(i for i, x in enumerate(coeffs) if x != "0")
    coeffs[k] = str(ref.Fraction(coeffs[k]) + 1)


def test_corrupted_construct_output_counts_as_failed(bench):
    w = _writer(bench)
    w.algebra("heis3.json", bench.homlie.catalog.heis3())
    job = workloads.construct_job(w, "tstar", ["heis3.json"], "t.json", lambda n: 2 * n, True, lie=True)
    _run(bench, job)
    assert (bench.attempted, bench.failed, bench.wrong) == (1, 0, 0)
    out = w.path("t.json")
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    _first_nonzero_bumped(data["bracket"][0]["coeffs"])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    report = {"command": "construct", "checks": [], "outputs": [out]}
    bench.verify(job, 0, json.dumps(report).encode(), b"")
    assert (bench.attempted, bench.failed, bench.wrong) == (2, 1, 1)


@pytest.mark.parametrize("op, name", [("centroid", "sl2.json"), ("center", "heis3.json")])
def test_corrupted_analysis_report_counts_as_failed(bench, op, name):
    w = _writer(bench)
    w.algebra("sl2.json", bench.homlie.catalog.sl2())
    w.algebra("heis3.json", bench.homlie.catalog.heis3())
    job = workloads.analyze_job(w, op, name)
    rc, stdout = _run(bench, job)
    assert bench.failed == 0
    report = json.loads(stdout)
    _first_nonzero_bumped(report["result"][op]["basis"][0])
    bench.verify(job, rc, json.dumps(report).encode(), b"")
    assert (bench.failed, bench.wrong) == (1, 1)


def test_negative_verdict_witness_is_checked(bench):
    w = _writer(bench)
    h = bench.homlie
    w.algebra("broken.json", h.catalog.sl2().with_alpha(h.Matrix.diagonal([1, 2, 3])))
    job = workloads.check_job(w, "broken.json")
    rc, stdout = _run(bench, job)
    assert rc == 1 and bench.failed == 0
    report = json.loads(stdout)
    report["checks"][1]["witness"] = [1, 2, 4]
    bench.verify(job, rc, json.dumps(report).encode(), b"")
    assert bench.failed == 1


def test_crash_counts_as_failed_but_not_wrong(bench):
    w = _writer(bench)
    job = workloads.check_job(w, "missing.json")
    rc, _ = _run(bench, job)
    assert rc == 2
    assert (bench.failed, bench.wrong) == (1, 0)


def test_reference_rank_mod_p_bounds_exact_rank():
    rows = [{0: ref.Fraction(1), 1: ref.Fraction(2)}, {0: ref.Fraction(2), 1: ref.Fraction(4)}]
    assert ref.rank_mod_p(rows, 2) == 1 == ref.rank_exact(rows, 2)
    assert ref.rank_mod_p([{0: ref.Fraction(1, 3)}, {1: ref.Fraction(-5)}], 2) == 2
