import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import catalog
from homlie.build import adjoint_rep, change_basis, coadjoint_rep
from homlie.errors import DimensionMismatch, IndexOutOfRange, NotHomAssociative
from homlie.exactlin import Matrix
from homlie.homalg import (
    AssocAlgebra,
    BilinearForm,
    HomAlgebra,
    QuadraticHomAlgebra,
    Representation,
    check_hom_associative,
    check_hom_lie,
    check_hom_quadratic,
    check_morphism,
    check_quadratic,
    check_representation,
    classify_alpha,
    commutator_hom_lie,
    jacobiator,
    multiplicativity_witness,
)

fr = st.fractions(min_value=-4, max_value=4, max_denominator=2)


def test_skew_enforced_at_construction():
    # only pairs i < j are stored, so no entry can break skew-symmetry
    with pytest.raises(IndexOutOfRange):
        HomAlgebra(2, {(1, 1): [0, 0]}, Matrix.identity(2))
    with pytest.raises(IndexOutOfRange):
        HomAlgebra(2, {(1, 0): [0, 0]}, Matrix.identity(2))


def test_constructor_rejects_bad_entries():
    with pytest.raises(IndexOutOfRange):
        HomAlgebra(2, {(0, 2): [0, 0]}, Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        HomAlgebra(2, {(0, 1): [0, 0, 1]}, Matrix.identity(2))
    # zero brackets are dropped and the pairs come out in lexicographic order
    g = HomAlgebra(3, {(1, 2): [1, 0, 0], (0, 1): [0, 0, 0], (0, 2): [0, 1, 0]}, Matrix.identity(3))
    assert list(g.bracket) == [(0, 2), (1, 2)]
    assert g.bracket[(1, 2)] == (1, 0, 0)


def test_bracket_evaluation_rejects_wrong_lengths():
    # extra coefficients used to be ignored, and a short vector gave an IndexError
    g = catalog.sl2()
    for call in (
        lambda: g.bracket_vec([1, 0, 0, 5], [0, 1, 0]),
        lambda: g.bracket_vec([1, 0, 0], [0, 1]),
        lambda: g.ad_vec([1, 0]),
    ):
        with pytest.raises(DimensionMismatch):
            call()


# Example with bracket [x1,x2]=a x1+b x3, [x1,x3]=c x2, [x2,x3]=d x1+2a x3:
# the cyclic Jacobi sum with identity twist is a*c in the x2 slot.
@settings(max_examples=25, deadline=None)
@given(fr, fr, fr, fr)
def test_three_dim_family_jacobiator(a, b, c, d):
    g = catalog.ex_1_2(a, b, c, d)
    assert jacobiator(g, 0, 1, 2) == (0, 0, 0)
    gid = g.with_alpha(Matrix.identity(3))
    assert jacobiator(gid, 0, 1, 2) == (0, a * c, 0)


def test_jacobiator_cyclic_invariance():
    g = catalog.jackson_sl2(Fraction(2, 3))
    gid = g.with_alpha(Matrix.diagonal([1, 2, 3]))
    assert jacobiator(gid, 0, 1, 2) == jacobiator(gid, 1, 2, 0)
    assert jacobiator(gid, 0, 1, 2) == jacobiator(gid, 2, 0, 1)


def test_jacobiator_index_range():
    with pytest.raises(IndexOutOfRange):
        jacobiator(catalog.sl2(), 0, 1, 3)


def test_jackson_hom_lie_but_not_lie():
    g = catalog.jackson_sl2(2)
    assert check_hom_lie(g).ok
    rep = check_hom_lie(g.with_alpha(Matrix.identity(3)))
    assert not rep.hom_jacobi
    assert rep.jacobi_witness == (0, 1, 2)
    # classical residual is (1 - q^2) x1
    assert rep.jacobi_residual == (Fraction(-3), 0, 0)


def test_abelian_with_any_twist_is_hom_lie():
    rng = random.Random(5)
    for _ in range(5):
        alpha = Matrix([[rng.randrange(-3, 4) for _ in range(5)] for _ in range(5)])
        g = catalog.abelian(5).with_alpha(alpha)
        assert check_hom_lie(g).ok


def test_check_hom_lie_basis_independent():
    rng = random.Random(11)
    for g in (catalog.jackson_sl2(3), catalog.ex_1_2(1, 0, 2, 5)):
        for _ in range(4):
            p = catalog._rand_unimodular(rng, g.dim)
            assert check_hom_lie(change_basis(g, p)).ok == check_hom_lie(g).ok


def test_classify_alpha():
    tw = catalog.sl_n_transpose(2).algebra
    cls = classify_alpha(tw)
    assert (cls.multiplicative, cls.regular, cls.involutive) == (True, True, True)
    assert cls.tag == "involutive"

    j = classify_alpha(catalog.jackson_sl2(2))
    assert not j.multiplicative and not j.regular and not j.involutive

    ident = classify_alpha(catalog.sl2())
    assert ident.multiplicative and ident.regular and ident.involutive

    nil = classify_alpha(catalog.abelian(2).with_alpha(Matrix([[0, 1], [0, 0]])))
    assert nil.nilpotent and nil.tag == "nilpotent"

    # the multiplicativity witness is the first failing pair i < j
    assert multiplicativity_witness(tw) is None
    assert multiplicativity_witness(catalog.jackson_sl2(2)) == (0, 1)
    assert multiplicativity_witness(catalog.sl_n(3).with_alpha(_scaled_unit(8, 5))) == (0, 4)


def test_involutive_flag_requires_multiplicativity():
    # alpha^2 = id but alpha is not a bracket morphism
    g = HomAlgebra(2, {(0, 1): [1, 0]}, Matrix([[0, 1], [1, 0]]))
    assert check_hom_lie(g).ok  # dim 2 has no Jacobi triples
    cls = classify_alpha(g)
    assert g.alpha.power(2).is_identity()
    assert not cls.involutive and not cls.multiplicative


def test_check_quadratic_sl2_killing():
    rep = check_quadratic(catalog.sl2(), catalog.sl_n_killing(2))
    assert rep.ok


def test_check_quadratic_degenerate():
    rep = check_quadratic(catalog.abelian(2), BilinearForm(2, Matrix.zeros(2, 2)))
    assert rep.symmetric and not rep.nondegenerate


def _scaled_unit(n, i):
    """Identity with its i-th diagonal entry doubled."""
    return Matrix.diagonal([2 if k == i else 1 for k in range(n)])


def _poked(m, i, j):
    rows = [list(r) for r in m.data]
    rows[i][j] += 1
    return Matrix(rows)


def test_check_quadratic_witnesses():
    g = catalog.sl2()
    rep = check_quadratic(g, BilinearForm(3, Matrix.identity(3)))  # not invariant
    assert not rep.invariant
    assert rep.invariant_witness == (0, 0, 2)

    sl3, killing = catalog.sl_n(3), catalog.sl_n_killing(3).gram
    rep = check_quadratic(sl3, BilinearForm(8, _poked(killing, 3, 6)))
    assert (rep.symmetric_witness, rep.invariant_witness) == ((3, 6), (1, 2, 6))
    rep = check_quadratic(sl3, BilinearForm(8, _poked(_poked(killing, 2, 5), 5, 2)))
    assert rep.symmetric and rep.invariant_witness == (0, 4, 2)

    tw = catalog.sl_n_transpose(2)
    shear = Matrix([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    rep = check_quadratic(tw.algebra.with_alpha(shear), tw.form)
    assert rep.symmetric and rep.invariant
    assert rep.alpha_witness == (1, 2)


def test_quadratic_constructor_validates():
    with pytest.raises(ValueError):
        QuadraticHomAlgebra(catalog.sl2(), BilinearForm(3, Matrix.identity(3)))


def test_hom_quadratic_gamma_identity():
    tw = catalog.sl_n_transpose(2)
    assert check_hom_quadratic(tw.algebra, tw.form, Matrix.identity(3))
    # abelian: both sides vanish for any gamma and form
    assert check_hom_quadratic(
        catalog.abelian(3),
        BilinearForm(3, Matrix.diagonal([1, 2, 3])),
        Matrix([[0, 1, 0], [0, 0, 0], [1, 0, 5]]),
    )


def test_hom_quadratic_gamma_violation():
    g = catalog.sl2()
    k = catalog.sl_n_killing(2)
    e12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert not check_hom_quadratic(g, k, e12)


def test_adjoint_is_representation():
    for g in (catalog.sl2(), catalog.jackson_sl2(2), catalog.filiform(4, 1)):
        assert check_representation(g, adjoint_rep(g))


def test_zero_rep_is_representation():
    g = catalog.sl2()
    zero = Representation(3, 2, tuple(Matrix.zeros(2, 2) for _ in range(3)), Matrix([[1, 1], [0, 1]]))
    assert check_representation(g, zero)


def test_broken_beta_fails_representation():
    g = catalog.sl2()
    rep = adjoint_rep(g)
    broken = Representation(3, 3, rep.rho, Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]]))
    assert not check_representation(g, broken)


def test_coadjoint_condition():
    # classical Lie algebras with identity twist reduce to Jacobi
    assert coadjoint_rep(catalog.sl2())[1]
    assert coadjoint_rep(catalog.heis3())[1]
    # quadratic catalog instance
    assert coadjoint_rep(catalog.sl_n_transpose(2).algebra)[1]
    # regression: the Jackson sl2 at q=2 fails the identity
    assert not coadjoint_rep(catalog.jackson_sl2(2))[1]


def test_hom_associative_and_commutator():
    a = catalog.assoc_a(1)
    assert a.is_commutative()
    assert check_hom_associative(AssocAlgebra(4, a.product, Matrix.identity(4)))
    assert check_hom_associative(a)
    lie = commutator_hom_lie(a)
    assert lie.is_abelian()

    zero = AssocAlgebra(2, [[[0, 0]] * 2] * 2, Matrix([[2, 0], [1, 1]]))
    assert check_hom_associative(zero)

    # 2x2 matrix algebra under a non-morphism scaling fails
    units = {}
    def unit(i, j):
        m = [[Fraction(0)] * 2 for _ in range(2)]
        m[i][j] = Fraction(1)
        return m
    basis = [unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)]
    def coords(m):
        return [m[0][0], m[0][1], m[1][0], m[1][1]]
    prod = [
        [
            coords([[sum(x[i][t] * y[t][j] for t in range(2)) for j in range(2)] for i in range(2)])
            for y in basis
        ]
        for x in basis
    ]
    mat2 = AssocAlgebra(4, prod, Matrix.identity(4))
    assert check_hom_associative(mat2)
    bad = AssocAlgebra(4, prod, Matrix.diagonal([1, 2, 3, 4]))
    assert not check_hom_associative(bad)
    with pytest.raises(NotHomAssociative):
        commutator_hom_lie(bad)
    gl2 = commutator_hom_lie(mat2)
    assert check_hom_lie(gl2).ok and not gl2.is_abelian()


def test_check_morphism_identity_and_zero():
    g = catalog.jackson_sl2(2)
    assert check_morphism(g, g, Matrix.identity(3))
    assert check_morphism(g, g, Matrix.zeros(3, 3))
    assert not check_morphism(g, g, Matrix.diagonal([1, 1, 2]))
    # the twists commute with f, so only the bracket scan can reject it
    sl3 = catalog.sl_n(3)
    assert not check_morphism(sl3, sl3, _scaled_unit(8, 5))
    # an isomorphism onto another algebra, and a map that is not one
    sl2 = catalog.sl2()
    h = change_basis(sl2, Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    p_inv = Matrix([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    assert check_morphism(sl2, h, p_inv)
    assert not check_morphism(sl2, h, _poked(p_inv, 2, 2))


def test_quadratic_self_duality():
    """The form intertwines the adjoint and coadjoint data as matrix identities."""
    for q in (catalog.sl_n_transpose(2), catalog.sl_n_transpose(3)):
        g, gram = q.algebra, q.gram
        for i in range(g.dim):
            adi = g.ad(i)
            assert gram @ adi == (-adi.transpose()) @ gram
        assert gram @ g.alpha == g.alpha.transpose() @ gram
        assert gram.inverse() is not None


def test_jacobiator_abelian_vanishes():
    g = catalog.abelian(4).with_alpha(Matrix([[1, 2, 0, 0], [0, 1, 0, 3], [5, 0, 1, 0], [0, 0, 0, 2]]))
    assert jacobiator(g, 0, 1, 2) == (0, 0, 0, 0)
    assert jacobiator(g, 1, 2, 3) == (0, 0, 0, 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(fr, min_size=3, max_size=3), min_size=3, max_size=3))
def test_bracket_is_always_skew(rows):
    pairs = {(0, 1): rows[0], (0, 2): rows[1], (1, 2): rows[2]}
    g = HomAlgebra(3, pairs, Matrix.identity(3))
    assert check_hom_lie(g).skew
    units = Matrix.identity(3).data
    for (i, j), v in pairs.items():
        stored = g.bracket.get((i, j), (0, 0, 0))
        assert stored == tuple(v) == g.bracket_vec(units[i], units[j]) == g.basis_bracket(i, j)
        assert g.bracket_vec(units[j], units[i]) == tuple(-c for c in stored) == g.basis_bracket(j, i)
    for i in range(3):
        assert g.bracket_vec(units[i], units[i]) == (0, 0, 0) == g.basis_bracket(i, i)
