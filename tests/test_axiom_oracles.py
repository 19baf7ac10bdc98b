"""The sparse axiom scans of homlie.homalg against the dense oracles.

Every report, witness and residual must match ``dense_axioms`` exactly, on
passing and on failing inputs: every catalog fixture, seeded random instances
of all four kinds, and the same algebras with a perturbed twist, form or
module twist.  Every reader of the sparse bracket and product tables must
match the same oracles, which read only the public ``bracket`` and
``product`` mappings.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import catalog
from homlie.build import adjoint_rep, coadjoint_rep, semidirect_sum
from homlie.errors import NotHomAssociative, NotRepresentation
from homlie.exactlin import Matrix, kernel
from homlie.homalg import (
    AssocAlgebra,
    BilinearForm,
    QuadraticHomAlgebra,
    Representation,
    check_hom_associative,
    check_hom_lie,
    check_hom_quadratic,
    check_quadratic,
    center,
    check_representation,
    commutator_hom_lie,
    hom_associativity_witness,
    jacobiator,
    multiplicativity_witness,
    representation_witness,
)

from dense_axioms import (
    dense_ad,
    dense_basis_bracket,
    dense_bracket_mismatch,
    dense_bracket_vec,
    dense_check_hom_lie,
    dense_check_hom_quadratic,
    dense_check_quadratic,
    dense_hom_associativity_witness,
    dense_jacobiator,
    dense_product_vec,
    dense_representation_witness,
)

FIXTURES = {
    "ex_1_2": ("1", "-2", "1/2", "3"),
    "jackson_sl2": ("2",),
    "sl2": (),
    "heis3": (),
    "abelian": ("3",),
    "sl_n_transpose": ("3",),
    "swap_double": ("2",),
    "filiform": ("5", "2/3"),
    "two_nilpotent": ("4", "2", "1", "0", "-1", "2", "0", "1/2", "3", "0"),
}
KINDS = ("lie", "hom_lie", "quadratic", "involutive_quadratic")
fr = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)


def split(x):
    """(algebra, form or None) of a catalog object."""
    if isinstance(x, QuadraticHomAlgebra):
        return x.algebra, x.form
    return x, None


def bump(m: Matrix, r: int, s: int, c) -> Matrix:
    rows = [list(row) for row in m.data]
    rows[r][s] += c
    return Matrix(rows)


def assert_reports_agree(g, b=None):
    assert check_hom_lie(g) == dense_check_hom_lie(g)
    a = g.alpha
    assert multiplicativity_witness(g) == dense_bracket_mismatch(g, g, a, ((a, a),))
    for module in (adjoint_rep(g), coadjoint_rep(g)[0]):
        assert representation_witness(g, module) == dense_representation_witness(g, module)
        assert check_representation(g, module) is (dense_representation_witness(g, module) is None)
    if b is None:
        b = BilinearForm(g.dim, Matrix.identity(g.dim))
    assert check_quadratic(g, b) == dense_check_quadratic(g, b)
    for gamma in (a, Matrix.identity(g.dim)):
        assert check_hom_quadratic(g, b, gamma) is dense_check_hom_quadratic(g, b, gamma)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_reports_match_dense_oracles(name):
    g, b = split(catalog.emit(name, *FIXTURES[name]))
    assert_reports_agree(g, b)
    n = g.dim
    for r in range(n):
        assert_reports_agree(g.with_alpha(bump(g.alpha, r, (r + 1) % n, 1)), b)
        if b is not None:
            assert_reports_agree(g, BilinearForm(n, bump(b.gram, r, r, 1)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dim=st.integers(1, 7),
    kind=st.sampled_from(KINDS),
    perturb=st.sampled_from(("none", "alpha", "gram", "asymmetric")),
    where=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    c=fr,
)
def test_random_reports_match_dense_oracles(seed, dim, kind, perturb, where, c):
    g, b = split(catalog.random_instance(seed, dim, kind))
    r, s = where[0] % dim, where[1] % dim
    if perturb == "alpha":
        g = g.with_alpha(bump(g.alpha, r, s, c))
    elif b is not None and perturb == "gram":
        gram = bump(b.gram, r, s, c)
        b = BilinearForm(dim, gram if r == s else bump(gram, s, r, c))
    elif b is not None and perturb == "asymmetric":
        b = BilinearForm(dim, bump(b.gram, r, s, c))
    assert_reports_agree(g, b)
    for i, j, k in ((r, s, 0), (s, r, dim - 1), (r, r, s)):
        assert jacobiator(g, i, j, k) == dense_jacobiator(g, i, j, k)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(KINDS),
    where=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    c=fr,
)
def test_perturbed_module_twists_match_dense_oracle(seed, kind, where, c):
    g, _ = split(catalog.random_instance(seed, 5, kind))
    for module in (adjoint_rep(g), coadjoint_rep(g)[0]):
        broken = Representation(g.dim, g.dim, module.rho, bump(module.beta, *where, c))
        assert representation_witness(g, broken) == dense_representation_witness(g, broken)


def truncated_polynomials(n: int, alpha: Matrix) -> AssocAlgebra:
    """x^i x^j = x^(i+j) below degree n, on the basis 1, x, ..., x^(n-1)."""
    prod = [[[Fraction(int(k == i + j)) for k in range(n)] for j in range(n)] for i in range(n)]
    return AssocAlgebra(n, prod, alpha)


@settings(max_examples=40, deadline=None)
@given(
    q=fr,
    n=st.integers(1, 4),
    where=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    c=fr,
)
def test_hom_associativity_matches_dense_oracle(q, n, where, c):
    for a in (catalog.assoc_a(q), truncated_polynomials(n, Matrix.identity(n))):
        for alpha in (a.alpha, bump(a.alpha, where[0] % a.dim, where[1] % a.dim, c)):
            twisted = AssocAlgebra(a.dim, a.product, alpha)
            w = dense_hom_associativity_witness(twisted)
            assert hom_associativity_witness(twisted) == w
            assert check_hom_associative(twisted) is (w is None)


def test_representation_witness_is_first_failing_pair():
    g = catalog.sl2()
    module = Representation(3, 3, adjoint_rep(g).rho, Matrix.diagonal([1, 2, 3]))
    # ad([e,f]) (beta - id) = ad(h) diag(0,1,2) is already nonzero
    assert representation_witness(g, module) == (0, 1)
    assert not check_representation(g, module)
    with pytest.raises(NotRepresentation) as err:
        semidirect_sum(g, module)
    assert err.value.witness == (0, 1)
    assert representation_witness(g, adjoint_rep(g)) is None


def test_hom_associativity_witness_is_first_failing_triple():
    a = catalog.assoc_a(1)
    bad = AssocAlgebra(4, a.product, Matrix.diagonal([2, 1, 1, 1]))
    # (e,e,e): 2e.(ee) = (ee).2e = 2h; (e,e,f): 2e.(ef) = 2t but (ee).f = t
    assert hom_associativity_witness(bad) == (0, 0, 1)
    assert hom_associativity_witness(a) is None
    with pytest.raises(NotHomAssociative) as err:
        commutator_hom_lie(bad)
    assert err.value.witness == (0, 0, 1)


def test_module_check_makes_no_matrix_product_per_pair(monkeypatch):
    g = catalog.sl_n_transpose(4).algebra
    module = adjoint_rep(g)
    calls = []
    matmul = Matrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    assert check_representation(g, module)
    # the dense scan made three products for each of the 105 pairs
    assert len(calls) <= g.dim


def assert_table_readers_agree(g, x, y):
    """Every reader of g's sparse bracket table against the dense oracles."""
    n = g.dim
    for i in range(n):
        for j in range(n):
            assert g.basis_bracket(i, j) == dense_basis_bracket(g, i, j)
    assert g.ad_vec(x) == dense_ad(g, x)
    assert g.bracket_vec(x, y) == dense_bracket_vec(g, x, y)
    ads = [dense_ad(g, [int(p == i) for p in range(n)]) for i in range(n)]
    assert g.ad_matrices() == ads
    cols = g.ad_columns()
    assert cols == [[{r: c for r, c in enumerate(m.col(q)) if c} for q in range(n)] for m in ads]
    for col in cols[0]:  # fresh dicts: writing to them leaves the table alone
        col[0] = Fraction(99)
    assert g.ad_matrices() == ads
    entries = {(r, s): [(p, ads[p][r, s]) for p in range(n) if ads[p][r, s]]
               for r in range(n) for s in range(n)}
    assert g.ad_entries() == {rs: v for rs, v in entries.items() if v}
    assert center(g) == kernel(Matrix([row for m in ads for row in m.data], cols=n))


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(
        st.sampled_from(sorted(FIXTURES)),
        st.tuples(st.integers(0, 10_000), st.integers(3, 9), st.sampled_from(KINDS)),
    ),
    q=fr,
    data=st.data(),
)
def test_table_readers_match_dense_oracles(case, q, data):
    if isinstance(case, str):
        g, _ = split(catalog.emit(case, *FIXTURES[case]))
    else:
        g, _ = split(catalog.random_instance(*case))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    vectors = st.lists(entry, min_size=g.dim, max_size=g.dim)
    assert_table_readers_agree(g, data.draw(vectors), data.draw(vectors))
    n = data.draw(st.integers(1, 4))
    for a in (catalog.assoc_a(q), truncated_polynomials(n, Matrix.identity(n))):
        vectors = st.lists(entry, min_size=a.dim, max_size=a.dim)
        x, y = data.draw(vectors), data.draw(vectors)
        assert a.product_vec(x, y) == dense_product_vec(a, x, y)
