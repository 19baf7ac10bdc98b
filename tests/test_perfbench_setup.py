"""The benchmark's set-up must keep working with the library API it uses.

``perfbench/workloads.py`` builds every workload's input files through the
public homlie library.  Each set-up runs here for one seed, and every
algebra file it writes must load back and re-serialize to the same text.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import homlie
import homlie.catalog
import homlie.serialize as ser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling reference.py by module name, and its
    # dataclasses need the module registered while it runs
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]


@pytest.mark.parametrize("workload", ["analysis", "construction", "small-files"])
def test_workload_setup_writes_loadable_files(workloads, workload, tmp_path):
    setup, _ = workloads.WORKLOADS[workload]
    setup(homlie, workloads.Writer(homlie, str(tmp_path)), 1)
    loaded = 0
    for path in sorted(tmp_path.glob("*.json")):
        text = path.read_text()
        if "dim" not in json.loads(text):
            continue  # extension data
        parsed = ser.load_path(path)
        if parsed.kind == "assoc":
            again = ser.assoc_to_dict(parsed.assoc, parsed.basis_names)
        else:
            again = ser.algebra_to_dict(parsed.algebra, parsed.form, parsed.basis_names)
        assert ser.dumps(again) == text, path.name
        loaded += 1
    assert loaded >= 8
