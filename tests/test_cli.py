import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import homlie
from homlie import catalog, cli, serialize as ser
from homlie.errors import HomLieError, ParseError
from homlie.exactlin import Matrix
from homlie.homalg import AssocAlgebra, BilinearForm


def run_cli(args, cwd):
    # The child runs in cwd, so a relative PYTHONPATH would not resolve there;
    # put this checkout's src first, ahead of any installed copy of homlie.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "homlie", *args]
    return subprocess.run(cmd, cwd=str(cwd), text=True, capture_output=True, env=env)


# -- serialization ------------------------------------------------------------

def test_rational_literals():
    assert ser.parse_rational("3") == Fraction(3)
    assert ser.parse_rational("-2/7") == Fraction(-2, 7)
    for bad in ("1.5", "+1", "2/-3", "2/0", "a", 3, "1 /2"):
        with pytest.raises(ParseError):
            ser.parse_rational(bad)


def test_value_roundtrip_fixtures():
    for fixture, params in (
        ("jackson_sl2", (Fraction(1, 2),)),
        ("abelian", (2,)),
        ("filiform", (4, Fraction(1))),
        ("sl_n_transpose", (2,)),
    ):
        obj = catalog.emit(fixture, *params)
        if hasattr(obj, "form"):
            payload = ser.algebra_to_dict(obj.algebra, obj.form)
        else:
            payload = ser.algebra_to_dict(obj)
        parsed = ser.loads(ser.dumps(payload))
        alg = obj.algebra if hasattr(obj, "form") else obj
        assert parsed.algebra == alg
        if hasattr(obj, "form"):
            assert parsed.form.gram == obj.form.gram


def test_text_roundtrip_stable():
    payload = ser.algebra_to_dict(catalog.jackson_sl2(Fraction(1, 2)))
    text = ser.dumps(payload)
    again = ser.dumps(ser.algebra_to_dict(ser.loads(text).algebra))
    assert text == again


def test_value_roundtrip_random_instances():
    for seed in range(4):
        g = catalog.random_instance(seed, 4, "hom_lie")
        assert ser.loads(ser.dumps(ser.algebra_to_dict(g))).algebra == g
        q = catalog.random_instance(seed, 4, "quadratic")
        parsed = ser.loads(ser.dumps(ser.algebra_to_dict(q.algebra, q.form)))
        assert parsed.algebra == q.algebra and parsed.form.gram == q.gram


def test_parse_rejects_bad_entries():
    base = ser.algebra_to_dict(catalog.abelian(2))
    diag = dict(base, bracket=[{"i": 0, "j": 0, "coeffs": ["0", "0"]}])
    with pytest.raises(ParseError):
        ser.parse_dict(diag)
    reversed_ij = dict(base, bracket=[{"i": 1, "j": 0, "coeffs": ["0", "0"]}])
    with pytest.raises(ParseError):
        ser.parse_dict(reversed_ij)
    dup = dict(
        base,
        bracket=[
            {"i": 0, "j": 1, "coeffs": ["0", "0"]},
            {"i": 0, "j": 1, "coeffs": ["1", "0"]},
        ],
    )
    with pytest.raises(ParseError):
        ser.parse_dict(dup)
    out_of_range = dict(base, bracket=[{"i": 0, "j": 5, "coeffs": ["0", "0"]}])
    with pytest.raises(ParseError):
        ser.parse_dict(out_of_range)
    short = dict(base, bracket=[{"i": 0, "j": 1, "coeffs": ["0"]}])
    with pytest.raises(ParseError):
        ser.parse_dict(short)
    with pytest.raises(ParseError):
        ser.loads("{not json")


_IDENTITY_2 = [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": True, "bracket": [], "alpha": [["1"]]},
        {"dim": 2, "bracket": [{"i": False, "j": 1, "coeffs": ["0", "1"]}], "alpha": _IDENTITY_2},
        {"dim": 2, "bracket": [{"i": 0, "j": True, "coeffs": ["0", "1"]}], "alpha": _IDENTITY_2},
    ],
    ids=["dim", "i", "j"],
)
def test_parse_rejects_booleans_as_integers(tmp_path, payload):
    with pytest.raises(ParseError):
        ser.parse_dict(payload)
    (tmp_path / "bool.json").write_text(json.dumps(payload))
    r = run_cli(["check", "bool.json"], tmp_path)
    assert r.returncode == 2, r.stdout
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1


def test_parse_memory_bounded_by_file_size():
    # the bracket is kept as the file's i < j entries, never as a dim^3 table
    n = 120
    payload = {"dim": n, "bracket": [], "alpha": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}
    tracemalloc.start()
    try:
        parsed = ser.parse_dict(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.algebra.dim == n and parsed.algebra.is_abelian()
    assert peak < 4 * 2**20


def test_assoc_parse_memory_bounded_by_file_size():
    # the product is kept as the file's entries, never as a dim^3 table
    n = 120
    payload = {"dim": n, "product": [], "alpha": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}
    tracemalloc.start()
    try:
        parsed = ser.parse_dict(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.assoc.dim == n and not parsed.assoc.product
    assert peak < 4 * 2**20


def test_cli_overlong_rational_is_malformed_input(tmp_path):
    payload = ser.algebra_to_dict(catalog.abelian(1))
    payload["alpha"] = [["7" * 5000]]
    (tmp_path / "long.json").write_text(json.dumps(payload))
    r = run_cli(["check", "long.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1


_HOSTILE_JSON = {
    "deep": b"[" * 200000 + b"\n",
    "not-utf8": b"\xff\xfe{}",
    "long-int": b'{"dim": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize(
    "args",
    [
        ["check", "hostile.json"],
        ["construct", "double-ext", "base.json", "hostile.json", "--out", "x.json"],
        ["construct", "inv-double-ext", "base.json", "base.json", "hostile.json", "--out", "x.json"],
    ],
    ids=["algebra", "double-ext-data", "inv-double-ext-data"],
)
@pytest.mark.parametrize("content", _HOSTILE_JSON.values(), ids=_HOSTILE_JSON)
def test_cli_unreadable_json_is_malformed_input(tmp_path, content, args):
    ser.save_path(tmp_path / "base.json", ser.algebra_to_dict(catalog.abelian(2), BilinearForm(2, Matrix.identity(2))))
    (tmp_path / "hostile.json").write_bytes(content)
    r = run_cli(args, tmp_path)
    assert (r.returncode, r.stdout) == (2, ""), r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "x.json").exists()


def test_assoc_roundtrip():
    a = catalog.assoc_a(1)
    parsed = ser.loads(ser.dumps(ser.assoc_to_dict(a)))
    assert parsed.kind == "assoc"
    assert parsed.assoc.product == a.product
    assert parsed.assoc.alpha == a.alpha


def test_cli_rejects_file_with_product_and_bracket(tmp_path):
    # such a file used to be read as associative, its bracket silently dropped
    both = ser.assoc_to_dict(catalog.assoc_a(1))
    both["bracket"] = []
    with pytest.raises(ParseError):
        ser.parse_dict(both)
    (tmp_path / "both.json").write_text(json.dumps(both))
    r = run_cli(["catalog", "emit", "sl2", "--out", "sl2.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["construct", "tensor-current", "sl2.json", "both.json", "--out", "x.json"], tmp_path)
    assert r.returncode == 2, r.stdout
    assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


# -- CLI golden outputs ---------------------------------------------------------

def test_golden_check_jackson(tmp_path):
    r = run_cli(["catalog", "emit", "jackson_sl2", "2", "--out", "jackson_sl2.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["check", "jackson_sl2.json"], tmp_path)
    assert r.returncode == 0
    assert r.stdout == "skew: PASS\nhom_jacobi: PASS\n"


def test_golden_check_ex12_alpha_id(tmp_path):
    g = catalog.ex_1_2(1, 2, 3, 4).with_alpha(Matrix.identity(3))
    ser.save_path(
        tmp_path / "ex12_alpha_id.json",
        ser.algebra_to_dict(g, None, ["x1", "x2", "x3"]),
    )
    r = run_cli(["check", "ex12_alpha_id.json"], tmp_path)
    assert r.returncode == 1
    assert r.stdout == (
        "skew: PASS\n"
        "hom_jacobi: FAIL witness=(1,2,3) residual=3*x2\n"
    )


def test_golden_analyze_center_filiform(tmp_path):
    r = run_cli(["catalog", "emit", "filiform", "5", "1", "--out", "filiform5.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["analyze", "center", "filiform5.json"], tmp_path)
    assert r.returncode == 0
    assert r.stdout == "center: dim 1\n  x5\n"


def test_checks_deterministic(tmp_path):
    g = catalog.ex_1_2(1, 2, 3, 4).with_alpha(Matrix.identity(3))
    ser.save_path(tmp_path / "e.json", ser.algebra_to_dict(g))
    first = run_cli(["check", "e.json", "--json"], tmp_path)
    second = run_cli(["check", "e.json", "--json"], tmp_path)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 1
    data = json.loads(first.stdout)
    assert data["command"] == "check"
    assert data["checks"][1]["witness"] == [1, 2, 3]
    assert data["checks"][1]["residual"] == ["0", "3", "0"]


def test_cli_quadratic_flags(tmp_path):
    r = run_cli(["catalog", "emit", "sl_n_transpose", "2", "--out", "tw.json"], tmp_path)
    assert r.returncode == 0
    r = run_cli(["check", "tw.json", "--quadratic", "--multiplicative", "--involutive"], tmp_path)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines == [
        "skew: PASS",
        "hom_jacobi: PASS",
        "symmetric: PASS",
        "nondegenerate: PASS",
        "invariant: PASS",
        "alpha_symmetric: PASS",
        "multiplicative: PASS",
        "involutive: PASS",
    ]


def test_cli_degenerate_form_fails(tmp_path):
    payload = ser.algebra_to_dict(
        catalog.abelian(2), BilinearForm(2, Matrix.zeros(2, 2))
    )
    ser.save_path(tmp_path / "deg.json", payload)
    r = run_cli(["check", "deg.json", "--quadratic"], tmp_path)
    assert r.returncode == 1
    assert "nondegenerate: FAIL" in r.stdout


def test_cli_usage_errors(tmp_path):
    r = run_cli(["check", "missing.json"], tmp_path)
    assert r.returncode == 2
    r = run_cli(["frobnicate"], tmp_path)
    assert r.returncode == 2
    r = run_cli(["catalog", "emit", "nope", "--out", "x.json"], tmp_path)
    assert r.returncode == 2
    (tmp_path / "bad.json").write_text('{"dim": "x"}')
    r = run_cli(["check", "bad.json"], tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args", [["analyze", "bogus", "f.json"], ["construct", "bogus", "f.json", "--out", "x.json"]]
)
def test_cli_unknown_operation_is_a_usage_error(tmp_path, args):
    r = run_cli(args, tmp_path)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith(f"usage: homlie {args[0]} ")
    assert f"homlie {args[0]}: error: argument operation: invalid choice: 'bogus'" in r.stderr


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize(
    "args, message",
    [
        (["check", "sl2.json", "--quadratic"], "--quadratic needs a form in the file"),
        (["analyze", "fitting", "sl2.json"], "fitting needs a form in the file"),
        (["analyze", "decompose", "sl2.json"], "decompose needs a form in the file"),
        (["analyze", "recognize-dext", "sl2.json"], "recognize-dext needs a form in the file"),
        (
            ["construct", "double-ext", "sl2.json", "sl2.json", "--out", "x.json"],
            "double-ext needs a form in the base file",
        ),
        (
            ["construct", "inv-double-ext", "sl2.json", "sl2.json", "sl2.json", "--out", "x.json"],
            "inv-double-ext needs a form in the base file",
        ),
        (
            ["construct", "tensor-current", "sl2.json", "sl2.json", "--out", "x.json"],
            "tensor-current needs an associative algebra file",
        ),
    ],
)
def test_cli_missing_file_part_is_malformed_input(tmp_path, args, message, json_flag):
    ser.save_path(tmp_path / "sl2.json", ser.algebra_to_dict(catalog.sl2()))
    r = run_cli(args + json_flag, tmp_path)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "x.json").exists()


def test_cli_construct_pipeline(tmp_path):
    r = run_cli(["catalog", "emit", "heis3", "--out", "h.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["construct", "tstar", "h.json", "--out", "t.json"], tmp_path)
    assert r.returncode == 0
    r = run_cli(["check", "t.json", "--quadratic"], tmp_path)
    assert r.returncode == 0

    r = run_cli(["catalog", "emit", "filiform", "4", "1", "--out", "f.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["construct", "omega-ext", "f.json", "--out", "om.json"], tmp_path)
    assert r.returncode == 0
    r = run_cli(["check", "om.json", "--quadratic", "--multiplicative"], tmp_path)
    assert r.returncode == 0

    # twist then untwist is the identity on sl2 with an involutive twist
    r = run_cli(["catalog", "emit", "sl_n_transpose", "2", "--out", "tw.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["construct", "untwist", "tw.json", "--out", "lie.json"], tmp_path)
    assert r.returncode == 0
    r = run_cli(["check", "lie.json", "--quadratic"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr


def test_cli_construct_double_ext(tmp_path):
    payload = ser.algebra_to_dict(
        catalog.abelian(2), BilinearForm(2, Matrix.identity(2))
    )
    ser.save_path(tmp_path / "base.json", payload)
    data = {
        "delta": [["0", "1"], ["-1", "0"]],
        "x0": ["0", "0"],
        "lambda": "1",
        "lambda0": "0",
    }
    (tmp_path / "data.json").write_text(json.dumps(data))
    r = run_cli(
        ["construct", "double-ext", "base.json", "data.json", "--out", "ext.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["check", "ext.json", "--quadratic", "--multiplicative", "--involutive"], tmp_path)
    assert r.returncode == 0
    r = run_cli(["analyze", "recognize-dext", "ext.json", "--json"], tmp_path)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"]["lambda"] == "1"
    assert out["result"]["base_dim"] == 2


def test_cli_construct_twist_requires_lie(tmp_path):
    r = run_cli(["catalog", "emit", "jackson_sl2", "2", "--out", "j.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["construct", "twist", "j.json", "--out", "out.json"], tmp_path)
    assert r.returncode == 1
    assert "check failed" in r.stderr


def test_cli_tensor_current_and_derived(tmp_path):
    r = run_cli(["catalog", "emit", "sl2", "--out", "sl2.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["catalog", "emit", "assoc_a", "1", "--out", "a.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["construct", "tensor-current", "sl2.json", "a.json", "--out", "cur.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["check", "cur.json"], tmp_path)
    assert r.returncode == 0

    r = run_cli(["catalog", "emit", "sl_n_transpose", "2", "--out", "tw.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["construct", "derived", "1", "tw.json", "--out", "d1.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["check", "d1.json", "--quadratic"], tmp_path)
    assert r.returncode == 0


def test_cli_derived_rejects_a_negative_index(tmp_path):
    # a negative index is malformed usage, not a failed check, with a form or without
    for fixture in (["sl2"], ["sl_n_transpose", "2"]):
        r = run_cli(["catalog", "emit", *fixture, "--out", "in.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["construct", "derived", "-1", "in.json", "--out", "d.json"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr == "error: derived index must be >= 0\n"
        assert not (tmp_path / "d.json").exists()


def test_cli_analyze_simple_and_fitting(tmp_path):
    r = run_cli(["catalog", "emit", "sl_n_transpose", "2", "--out", "tw.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["analyze", "simple", "tw.json"], tmp_path)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "simplicity: Simple"
    r = run_cli(["analyze", "fitting", "tw.json", "--json"], tmp_path)
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["result"]["stable_power"] == 1

    r = run_cli(["catalog", "emit", "abelian", "3", "--out", "ab.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["analyze", "simple", "ab.json"], tmp_path)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "simplicity: NotSimple"


def test_cli_catalog_list(tmp_path):
    r = run_cli(["catalog", "list"], tmp_path)
    assert r.returncode == 0
    assert "jackson_sl2 q" in r.stdout
    assert "filiform n lambda" in r.stdout


def test_cli_inv_double_ext(tmp_path):
    # base module: abelian(3) with the sl2 trace metric; extender: sl2
    from homlie import catalog as cat

    k = cat.sl_n_killing(2)
    ser.save_path(
        tmp_path / "v.json", ser.algebra_to_dict(cat.abelian(3), k)
    )
    r = run_cli(["catalog", "emit", "sl2", "--out", "a.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    phi = [
        [[str(x) for x in row] for row in m.data]
        for m in cat.sl2().ad_matrices()
    ]
    gamma = [[str(x) for x in row] for row in k.gram.data]
    (tmp_path / "data.json").write_text(json.dumps({"phi": phi, "gamma": gamma}))
    r = run_cli(
        ["construct", "inv-double-ext", "v.json", "a.json", "data.json", "--out", "ext.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["check", "ext.json", "--quadratic", "--multiplicative", "--involutive"],
        tmp_path,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    data = json.loads((tmp_path / "ext.json").read_text())
    assert data["dim"] == 9


def test_cli_inv_double_ext_rejects_bad_phi(tmp_path):
    from homlie import catalog as cat

    ser.save_path(
        tmp_path / "v.json",
        ser.algebra_to_dict(cat.abelian(2), BilinearForm(2, Matrix.identity(2))),
    )
    r = run_cli(["catalog", "emit", "abelian", "1", "--out", "a.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    bad = {"phi": [[["1", "0"], ["0", "0"]]], "gamma": [["0"]]}
    (tmp_path / "data.json").write_text(json.dumps(bad))
    r = run_cli(
        ["construct", "inv-double-ext", "v.json", "a.json", "data.json", "--out", "x.json"],
        tmp_path,
    )
    assert r.returncode == 1  # non-skew action is a failed precondition


def test_cli_catalog_varargs_fixtures(tmp_path):
    r = run_cli(
        ["catalog", "emit", "two_nilpotent", "4", "2", "--out", "tn.json"], tmp_path
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["check", "tn.json", "--multiplicative"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["catalog", "emit", "two_nilpotent", "4", "2", "1", "0", "0", "0", "0", "2", "0", "1", "--out", "tn2.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["check", "tn2.json", "--multiplicative"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["catalog", "emit", "ex_1_2", "1", "2", "3", "4", "--out", "e.json"], tmp_path)
    assert r.returncode == 0
    r = run_cli(["check", "e.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    # wrong parameter count is a usage error
    r = run_cli(["catalog", "emit", "ex_1_2", "1", "--out", "bad.json"], tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize(
    "params",
    [("abelian", "5/2"), ("sl_n_transpose", "7/3"), ("filiform", "9/2", "1")],
    ids=["abelian", "sl_n_transpose", "filiform"],
)
def test_cli_catalog_rejects_fractional_sizes(tmp_path, params):
    r = run_cli(["catalog", "emit", *params, "--out", "x.json"], tmp_path)
    assert r.returncode == 2, r.stdout
    assert "must be an integer" in r.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "params",
    [
        ("abelian", "257"),
        ("sl_n_transpose", "17"),
        ("swap_double", "12"),
        ("filiform", "256", "1"),
        ("two_nilpotent", "200", "57"),
        ("two_nilpotent", "3"),
    ],
    ids=["abelian", "sl_n_transpose", "swap_double", "filiform", "two_nilpotent", "two_nilpotent-one-size"],
)
def test_cli_catalog_emit_refuses_oversized_fixtures_at_once(tmp_path, params):
    start = time.perf_counter()
    r = run_cli(["catalog", "emit", *params, "--out", "x.json"], tmp_path)
    elapsed = time.perf_counter() - start
    assert r.returncode == 2, r.stderr
    assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
    assert elapsed < 1.0
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "params",
    [("jackson_sl2", "-1/2"), ("ex_1_2", "-3/2", "3", "-4", "5/3")],
    ids=["jackson_sl2", "ex_1_2"],
)
def test_cli_catalog_emit_negative_fractions(tmp_path, params):
    name, *args = params
    r = run_cli(["catalog", "emit", *params, "--out", "x.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    fractions = [Fraction(a) for a in args]
    payload = ser.algebra_to_dict(
        catalog.emit(name, *fractions), None, catalog.basis_names(name, *fractions)
    )
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == ser.dumps(payload)


def test_cli_radical_requires_involutive(tmp_path):
    r = run_cli(["catalog", "emit", "filiform", "4", "1", "--out", "f.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["analyze", "radical", "f.json"], tmp_path)
    assert r.returncode == 1
    assert "check failed" in r.stderr


def test_cli_centroid_over_the_entry_limit_is_refused(tmp_path, capsys):
    # abelian(40) has a 1600-dimensional centroid in Q^1600: 2,560,000 basis entries
    path = tmp_path / "ab40.json"
    ser.save_path(path, ser.algebra_to_dict(catalog.abelian(40)))
    assert cli.main(["analyze", "centroid", str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: the centroid has dimension 1600 in Q^1600, 2560000 basis entries,"
        f" over the limit {cli.MAX_CENTROID_ENTRIES}"
    ]


@pytest.mark.parametrize(
    "payload, args",
    [
        # tr(ad(x1)^2) = 10^8000
        (
            {"dim": 2, "bracket": [{"i": 0, "j": 1, "coeffs": ["0", "1" + "0" * 4000]}], "alpha": [["1", "0"], ["0", "1"]]},
            ["analyze", "trace-form"],
        ),
        # the twist 2^20001 has 6,021 digits
        ({"dim": 1, "bracket": [], "alpha": [["2"]]}, ["construct", "derived", "20000"]),
    ],
    ids=["trace-form", "derived"],
)
def test_cli_value_too_long_to_print_is_exit_2(tmp_path, capsys, payload, args):
    path, out_path = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(payload))
    extra = ["--out", str(out_path)] if args[0] == "construct" else []
    assert cli.main([*args, str(path), *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: a result value has more than {sys.get_int_max_str_digits()} digits, too long to print"
    ]
    assert not out_path.exists()


def test_lincomb_formats_through_format_rational():
    assert cli._lincomb([Fraction(-3, 2), 1, 0, -1, 2], ["a", "b", "c", "d", "e"]) == "-3/2*a + b - d + 2*e"
    with pytest.raises(HomLieError):
        cli._lincomb([10**5000], ["x"])


def test_cli_tensor_current_over_the_output_bound_is_refused(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("tensor_current ran")

    monkeypatch.setattr(homlie.build, "tensor_current", unreachable)
    # sl2 (dim 3) with an 86-dimensional algebra would have dimension 258
    ser.save_path(tmp_path / "sl2.json", ser.algebra_to_dict(catalog.sl2()))
    ser.save_path(tmp_path / "a.json", ser.assoc_to_dict(AssocAlgebra(86, {}, Matrix.identity(86))))
    out_path = tmp_path / "out.json"
    args = ["construct", "tensor-current", str(tmp_path / "sl2.json"), str(tmp_path / "a.json"), "--out", str(out_path)]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: tensor-current would have dimension 258, over the limit {homlie.build.MAX_OUTPUT_DIM}"
    ]
    assert not out_path.exists()


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_cli_maps_resource_exhaustion_to_exit_2(tmp_path, capsys, monkeypatch, error):
    def exhausted(g):
        raise error()

    ser.save_path(tmp_path / "h.json", ser.algebra_to_dict(catalog.heis3()))
    monkeypatch.setattr(homlie.analyze, "center", exhausted)
    assert cli.main(["analyze", "center", str(tmp_path / "h.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines() == [f"error: input too large to process ({error.__name__})"]
