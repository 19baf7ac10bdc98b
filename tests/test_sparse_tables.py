"""Structure tables stay sparse from file to file.

The reader builds each entry's sparse row from the literals, the algebra
types store those rows (``table``) and build the dense ``bracket`` and
``product`` views from them, the constructions hand sparse rows on, and the
writer fills in "0" for every entry a row does not hold.  The dense reader
and writer they replaced (``dense_serialize``) are the oracles.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_serialize import (
    dense_algebra_to_dict,
    dense_assoc_to_dict,
    dense_dumps,
    dense_format_rational,
    dense_parse_dict,
    dense_parse_rational,
)
from homlie import build, catalog, serialize as ser
from homlie.errors import DimensionMismatch, ParseError
from homlie.exactlin import Matrix
from homlie.homalg import AssocAlgebra, HomAlgebra, QuadraticHomAlgebra

# every catalog fixture, with parameters
FIXTURES = [
    ("abelian", (3,)),
    ("assoc_a", (Fraction(2, 3),)),
    ("ex_1_2", (1, Fraction(-2), Fraction(1, 3), 0)),
    ("filiform", (4, Fraction(1, 3))),
    ("heis3", ()),
    ("jackson_sl2", (Fraction(1, 2),)),
    ("sl2", ()),
    ("sl_n_transpose", (3,)),
    ("swap_double", (2,)),
    ("two_nilpotent", (4, 2)),
]
KINDS = ("lie", "hom_lie", "quadratic", "involutive_quadratic")


def _instances():
    """(label, algebra, form, basis names) of every fixture and random instance tested."""
    for name, params in FIXTURES:
        obj = catalog.emit(name, *params)
        yield name, *_parts(obj), catalog.basis_names(name, *params)
    for kind in KINDS:
        for dim in range(3, 9):
            for seed in range(6):
                yield f"{kind}-{dim}-{seed}", *_parts(catalog.random_instance(seed, dim, kind)), None


def _parts(obj):
    if isinstance(obj, QuadraticHomAlgebra):
        return obj.algebra, obj.form
    return obj, None


def _write(alg, form, names):
    if isinstance(alg, AssocAlgebra):
        return ser.assoc_to_dict(alg, names), dense_assoc_to_dict(alg, names)
    return ser.algebra_to_dict(alg, form, names), dense_algebra_to_dict(alg, form, names)


def test_fixture_list_covers_the_catalog():
    assert sorted(name for name, _ in FIXTURES) == [name for name, _ in catalog.fixture_names()]


# -- literals -----------------------------------------------------------------

_DIGITS = st.integers(min_value=0, max_value=10**30)


@st.composite
def literals(draw):
    """Literals of the file format: optional sign, leading zeros, 30-digit values."""
    p = f"{'-' if draw(st.booleans()) else ''}{'0' * draw(st.integers(0, 2))}{draw(_DIGITS)}"
    if draw(st.booleans()):
        return p
    return f"{p}/{draw(st.integers(min_value=1, max_value=10**30))}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(literals(), st.sampled_from(["0", "-0", "00", "0/7", "-12/8", "7"])))
def test_parse_rational_matches_fraction_of_the_literal(s):
    x = ser.parse_rational(s)
    assert type(x) is Fraction and x == dense_parse_rational(s)


_FRACTIONS = st.builds(
    Fraction, st.integers(min_value=-(10**30), max_value=10**30), st.integers(1, 10**30)
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_FRACTIONS, st.integers(-(10**30), 10**30), st.just(Fraction(0))))
def test_format_rational_matches_str_of_the_fraction(x):
    assert ser.format_rational(x) == dense_format_rational(x)


@pytest.mark.parametrize("s", ["٣", "1\n", "\t1", "1 ", "1/٣", "1/07", "+1", "1/-2", "1.0", "", "-"])
def test_parse_rational_accepts_ascii_literals_only(s):
    with pytest.raises(ParseError):
        ser.parse_rational(s)


# -- reading and writing ----------------------------------------------------------

def test_writer_matches_the_dense_oracle_and_reads_back_equal():
    count = 0
    for label, alg, form, names in _instances():
        payload, dense = _write(alg, form, names)
        text = ser.dumps(payload)
        assert text == dense_dumps(dense), label
        parsed = ser.loads(text)
        assert (parsed.assoc if isinstance(alg, AssocAlgebra) else parsed.algebra) == alg, label
        assert parsed.form == form and parsed.basis_names == names, label
        assert dense_parse_dict(json.loads(text)) == (alg, form, names), label
        count += 1
    assert count == len(FIXTURES) + len(KINDS) * 6 * 6


def test_algebra_from_rows_equals_algebra_from_vectors():
    for label, alg, _, _ in _instances():
        cls, key = (AssocAlgebra, "product") if isinstance(alg, AssocAlgebra) else (HomAlgebra, "bracket")
        dense = dict(getattr(alg, key))
        # the rows as a caller may give them: string values, and key 0 last, a zero where absent
        table = alg.table
        rows = {ij: {**{k: str(c) for k, c in table[ij].items()}, 0: table[ij].get(0, 0)} for ij in dense}
        a, b = cls(alg.dim, dense, alg.alpha), cls(alg.dim, rows, alg.alpha)
        assert a == b and hash(a) == hash(b), label
        assert getattr(a, key) == getattr(b, key) == dense, label
        assert a.table == b.table == alg.table, label
        assert all(list(row) == sorted(row) for row in b.table.values()), label


def test_rows_with_keys_out_of_range_are_rejected():
    for row in ({3: 1}, {-1: 1}, {"0": 1}):
        with pytest.raises(DimensionMismatch):
            HomAlgebra(3, {(0, 1): row}, Matrix.identity(3))
        with pytest.raises(DimensionMismatch):
            AssocAlgebra(3, {(1, 0): row}, Matrix.identity(3))


def test_table_is_read_only():
    g = catalog.sl2()
    with pytest.raises(TypeError):
        g.table[(0, 1)] = {0: Fraction(1)}


def _truncated_polynomials(m, q):
    """t K[t]/(t^(m+1)) on t..t^m, with the automorphism t -> t + q t^m."""
    prod = {(i, j): {i + j + 1: 1} for i in range(m) for j in range(m) if i + j + 1 < m}
    return AssocAlgebra(m, prod, Matrix.identity(m) + Matrix.from_row_dicts([{}] * (m - 1) + [{0: q}], m))


def test_with_alpha_and_constructions_leave_their_inputs_rows_unchanged():
    sl, kill, neg = catalog.sl_n(2), catalog.sl_n_killing(2), catalog.sl_n_neg_transpose(2)
    twisted = sl.with_alpha(neg)
    assoc = _truncated_polynomials(3, Fraction(1, 2))
    inputs = (sl, twisted, assoc)
    before = [copy.deepcopy(dict(t.table)) for t in inputs]
    q = QuadraticHomAlgebra(sl, kill)
    outputs = [
        twisted,
        twisted.with_alpha(Matrix.identity(3)),
        build.change_basis(sl, Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])),
        build.direct_sum(sl, twisted),
        build.tstar_extension(sl).algebra,
        build.tensor_current(sl, assoc, assoc.alpha)[0],
        build.quadratic_yau_twist(q, neg).algebra,
        build.block_algebra(q, 0, 3).algebra,
        build.untwist_regular(build.yau_twist(sl, neg)),
        build.derived_hom_algebra(twisted, 2),
    ]
    assert [dict(t.table) for t in inputs] == before
    assert twisted.alpha == neg and sl.alpha == Matrix.identity(3)
    assert outputs[1] == sl and outputs[-2] == sl
    # only with_alpha shares rows, and those rows are never written
    shared = {id(row) for t in inputs for row in t.table.values()}
    assert all(id(row) not in shared for out in outputs[2:] for row in out.table.values())


# -- guards ---------------------------------------------------------------------

def test_reading_makes_no_fraction_for_a_zero_literal(tmp_path, monkeypatch):
    path = tmp_path / "sl5.json"
    ser.save_path(path, ser.algebra_to_dict(catalog.sl_n(5)))
    data = json.loads(path.read_text())
    # the reader takes alpha first, then the bracket entries
    literals = [s for r in data["alpha"] for s in r] + [s for e in data["bracket"] for s in e["coeffs"]]
    parsed, from_strings = [], []
    parse = ser.parse_rational

    def fraction(*args):
        from_strings.extend(x for x in args if isinstance(x, str))
        return Fraction(*args)

    monkeypatch.setattr(ser, "parse_rational", lambda s: parsed.append(s) or parse(s))
    monkeypatch.setattr(ser, "Fraction", fraction)
    g = ser.load_path(path).algebra
    assert g == catalog.sl_n(5)
    assert parsed == [s for s in literals if s != "0"] and "0" in literals
    assert from_strings == []


def test_writing_formats_only_nonzero_entries(monkeypatch):
    g, form = catalog.sl_n(5), catalog.sl_n_killing(5)
    values = []
    fmt = ser.format_rational
    monkeypatch.setattr(ser, "format_rational", lambda x: values.append(x) or fmt(x))
    ser.algebra_to_dict(g, form)
    nonzero = [c for ij in g.bracket for c in g.table[ij].values()]
    nonzero += [x for m in (g.alpha, form.gram) for r in m.row_dicts for x in r.values()]
    assert values == nonzero and all(values)


def test_tensor_current_multiplies_only_nonzero_pairs(monkeypatch):
    g, a = catalog.sl_n(3), _truncated_polynomials(4, Fraction(1, 3))
    expected = build.tensor_current(g, a, a.alpha)
    zero_products = []
    fraction_mul = Fraction.__mul__

    def mul(x, y):
        if not x or not y:
            zero_products.append((x, y))
        return fraction_mul(x, y)

    monkeypatch.setattr(Fraction, "__mul__", mul)
    assert build.tensor_current(g, a, a.alpha) == expected
    assert zero_products == []
