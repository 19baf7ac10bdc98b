import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import build, catalog, homalg
from homlie.build import (
    ExtensionData1D,
    InvolutiveExtensionData,
    adjoint_rep,
    block_algebra,
    centroid_twists,
    centroid_untwist,
    change_basis,
    change_basis_quadratic,
    coadjoint_rep,
    derived_hom_algebra,
    direct_sum,
    double_extension_1d,
    double_extension_conditions,
    double_extension_parts,
    involutive_double_extension,
    involutive_extension_discrepancy,
    omega_extension,
    omega_map,
    orthogonal_sum,
    quadratic_derived,
    quadratic_yau_twist,
    semidirect_sum,
    tensor_current,
    tstar_extension,
    untwist_involutive,
    untwist_regular,
    yau_twist,
)
from homlie.errors import (
    AlphaNotInCentroid,
    AnnihilatorConditionFailed,
    CenterConditionFailed,
    ConditionFailed,
    DimensionMismatch,
    InvolutiveDataInvalid,
    NotAutomorphism,
    NotEndomorphism,
    NotInCentroid,
    NotLie,
    NotMultiplicative,
    NotRegular,
    ReconstructionFailed,
)
from homlie.exactlin import Matrix
from homlie.homalg import (
    AssocAlgebra,
    BilinearForm,
    QuadraticHomAlgebra,
    Representation,
    check_hom_lie,
    check_morphism,
    check_quadratic,
    check_representation,
    classify_alpha,
    is_lie_algebra,
)

from dense_structures import dense_tensor_current

F = Fraction


def neg_transpose_sl2():
    return catalog.sl_n_neg_transpose(2)


def abelian_quadratic(n, gram=None):
    return QuadraticHomAlgebra(
        catalog.abelian(n),
        BilinearForm(n, gram if gram is not None else Matrix.identity(n)),
    )


# -- twists ------------------------------------------------------------------

def test_yau_twist_identity_and_zero():
    g = catalog.sl2()
    assert yau_twist(g, Matrix.identity(3)) == g
    z = yau_twist(g, Matrix.zeros(3, 3))
    assert z.is_abelian()


def test_yau_twist_sl2_involution():
    tw = yau_twist(catalog.sl2(), neg_transpose_sl2())
    assert check_hom_lie(tw).ok
    cls = classify_alpha(tw)
    assert cls.involutive and cls.multiplicative


def test_yau_twist_rejects_non_endomorphism():
    with pytest.raises(NotEndomorphism) as err:
        yau_twist(catalog.sl2(), Matrix.diagonal([1, 1, 2]))
    assert err.value.witness == (0, 1)
    with pytest.raises(NotEndomorphism) as err:
        yau_twist(catalog.sl_n(3), Matrix.diagonal([1, 1, 1, 1, 1, 2, 1, 1]))
    assert err.value.witness == (0, 4)


def test_yau_twist_requires_lie():
    with pytest.raises(NotLie):
        yau_twist(catalog.jackson_sl2(2), Matrix.identity(3))


def test_yau_twist_functoriality():
    g = catalog.sl2()
    theta = neg_transpose_sl2()
    tw = yau_twist(g, theta)
    # theta itself intertwines (g, theta) with (g, theta), so it lifts
    assert check_morphism(tw, tw, theta)


def test_untwist_regular_roundtrip():
    g = catalog.sl2()
    theta = neg_transpose_sl2()
    tw = yau_twist(g, theta)
    back = untwist_regular(tw)
    assert back.bracket == g.bracket


def test_untwist_regular_jackson():
    lie = untwist_regular(catalog.jackson_sl2(2))
    assert is_lie_algebra(lie)


def test_untwist_regular_identity_twist():
    g = catalog.sl2()
    assert untwist_regular(g) == g


def test_untwist_regular_rejects_singular():
    g = catalog.abelian(2).with_alpha(Matrix([[0, 1], [0, 0]]))
    with pytest.raises(NotRegular):
        untwist_regular(g)


def test_derived_hom_algebra():
    tw = catalog.sl_n_transpose(2).algebra
    assert derived_hom_algebra(tw, 0) == tw
    d1 = derived_hom_algebra(tw, 1)
    assert d1.alpha.is_identity()  # involution squared
    assert is_lie_algebra(d1)
    ab = catalog.abelian(4).with_alpha(Matrix.diagonal([1, -1, 1, -1]))
    assert derived_hom_algebra(ab, 3).is_abelian()
    with pytest.raises(NotMultiplicative):
        derived_hom_algebra(catalog.jackson_sl2(2), 1)


def test_derived_involutive_even_power():
    tw = catalog.sl_n_transpose(2).algebra
    d2 = derived_hom_algebra(tw, 2)
    assert d2.bracket == tw.bracket
    assert d2.alpha == tw.alpha


def test_centroid_twists_scalar():
    g = catalog.sl2()
    h1, h2 = centroid_twists(g, Matrix.identity(3).scale(2))
    assert h1.bracket_vec([1, 0, 0], [0, 1, 0]) == (0, 0, 2)
    assert h2.bracket_vec([1, 0, 0], [0, 1, 0]) == (0, 0, 4)
    assert check_hom_lie(h1).ok and check_hom_lie(h2).ok


def test_centroid_twists_identity():
    g = catalog.sl2()
    h1, h2 = centroid_twists(g, Matrix.identity(3))
    assert h1.bracket == g.bracket and h2.bracket == g.bracket


def test_centroid_twists_blockwise():
    g = direct_sum(catalog.abelian(2), catalog.sl2())
    theta = Matrix.block_diagonal([Matrix.identity(2).scale(3), Matrix.identity(3)])
    h1, h2 = centroid_twists(g, theta)
    assert check_hom_lie(h1).ok and check_hom_lie(h2).ok
    with pytest.raises(NotInCentroid):
        centroid_twists(catalog.sl2(), Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_centroid_checks_diagonal_pairs():
    # [theta x1, x1] = [x1 + x2, x1] = -x3 although theta[x1, x1] = 0
    theta = Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(NotInCentroid) as err:
        centroid_twists(catalog.heis3(), theta)
    assert err.value.witness == (0, 0)
    with pytest.raises(AlphaNotInCentroid) as err:
        centroid_untwist(catalog.heis3().with_alpha(theta))
    assert err.value.witness == (0, 0)


def test_centroid_untwist_formulas():
    lie = direct_sum(catalog.sl2(), catalog.abelian(1))
    theta = Matrix.block_diagonal([Matrix.identity(3).scale(3), Matrix.identity(1)])
    h1, _ = centroid_twists(lie, theta)
    l1, l2, _ = centroid_untwist(h1)
    # untwisting composes another theta: brackets are [theta^2 x, y] and [theta^3 x, y]
    expect1 = centroid_twists(lie, theta @ theta)[0]
    expect2 = centroid_twists(lie, theta @ theta @ theta)[0]
    assert l1.bracket == expect1.bracket
    assert l2.bracket == expect2.bracket
    assert is_lie_algebra(l1) and is_lie_algebra(l2)


def test_centroid_untwist_with_form():
    # theta = 2 id on sl2 with the trace form of sl2
    g = catalog.sl2()
    k = catalog.sl_n_killing(2)
    h1, _ = centroid_twists(g, Matrix.identity(3).scale(2))
    l1, l2, form = centroid_untwist(h1, k)
    assert form is not None
    assert check_quadratic(l1, form).invariant
    assert check_quadratic(l2, form).invariant


# -- representations ---------------------------------------------------------

def test_semidirect_sum_with_adjoint():
    for g in (catalog.sl2(), catalog.jackson_sl2(2)):
        s = semidirect_sum(g, adjoint_rep(g))
        assert s.dim == 2 * g.dim
        assert check_hom_lie(s).ok


def test_semidirect_sum_zero_rep():
    g = catalog.sl2()
    zero = Representation(3, 2, tuple(Matrix.zeros(2, 2) for _ in range(3)), Matrix.identity(2))
    s = semidirect_sum(g, zero)
    assert check_hom_lie(s).ok
    # V embeds as an abelian ideal
    assert s.bracket_vec([0, 0, 0, 1, 0], [0, 0, 0, 0, 1]) == (0,) * 5


def test_coadjoint_rep():
    tw = catalog.sl_n_transpose(2).algebra
    rep, valid = coadjoint_rep(tw)
    assert valid
    assert check_representation(tw, rep)
    rep, valid = coadjoint_rep(catalog.sl2())
    assert valid and check_representation(catalog.sl2(), rep)
    _, valid = coadjoint_rep(catalog.jackson_sl2(2))
    assert not valid


# -- quadratic twists --------------------------------------------------------

def test_quadratic_yau_twist_sl2():
    q = QuadraticHomAlgebra(catalog.sl2(), catalog.sl_n_killing(2))
    tw = quadratic_yau_twist(q, neg_transpose_sl2())
    assert check_hom_lie(tw.algebra).ok
    assert classify_alpha(tw.algebra).regular


def test_quadratic_yau_twist_identity():
    q = QuadraticHomAlgebra(catalog.sl2(), catalog.sl_n_killing(2))
    tw = quadratic_yau_twist(q, Matrix.identity(3))
    assert tw.algebra.bracket == q.algebra.bracket
    assert tw.gram == q.gram


def test_swap_double_is_iqh():
    from homlie.analyze import trace_form

    g = catalog.swap_double(2)
    assert check_hom_lie(g).ok
    cls = classify_alpha(g)
    assert cls.involutive
    q = QuadraticHomAlgebra(g, trace_form(g))
    assert q.dim == 6


def test_quadratic_derived():
    q = catalog.sl_n_transpose(2)
    assert quadratic_derived(q, 0) == q
    d1 = quadratic_derived(q, 1)
    assert check_hom_lie(d1.algebra).ok
    assert d1.gram == q.alpha.transpose() @ q.gram
    d2 = quadratic_derived(q, 2)
    assert d2.algebra.bracket == q.algebra.bracket
    assert d2.gram == q.gram


def test_quadratic_derived_scans_and_powers_once(monkeypatch):
    q = catalog.sl_n_transpose(3)
    calls = []
    scan, power = homalg.multiplicativity_witness, Matrix.power

    def counted_scan(g):
        calls.append("scan")
        return scan(g)

    def counted_power(self, k):
        calls.append("power")
        return power(self, k)

    monkeypatch.setattr(homalg, "multiplicativity_witness", counted_scan)
    monkeypatch.setattr(Matrix, "power", counted_power)
    d1 = quadratic_derived(q, 1)
    assert sorted(calls) == ["power", "scan"]
    assert d1.alpha == q.alpha @ q.alpha
    assert d1.gram == q.alpha.transpose() @ q.gram


def test_quadratic_derived_reports_errors_in_order():
    killing = catalog.sl_n_killing(2)
    doubled = QuadraticHomAlgebra(catalog.sl2().with_alpha(Matrix.identity(3).scale(2)), killing)
    zero = QuadraticHomAlgebra(catalog.abelian(1).with_alpha(Matrix([[0]])), BilinearForm(1, Matrix([[1]])))
    # not multiplicative, singular and a negative index: the multiplicativity error comes first
    with pytest.raises(NotMultiplicative):
        quadratic_derived(orthogonal_sum(doubled, zero), -1)
    with pytest.raises(NotRegular):
        quadratic_derived(zero, -1)
    with pytest.raises(ValueError):
        quadratic_derived(catalog.sl_n_transpose(2), -1)


# -- T* and omega extensions -------------------------------------------------

def test_tstar_abelian_hyperbolic():
    q = tstar_extension(catalog.abelian(2))
    assert q.dim == 4
    assert q.algebra.is_abelian()
    assert q.gram.rank() == 4


def test_tstar_heis3_and_sl2():
    for g in (catalog.heis3(), catalog.sl2()):
        q = tstar_extension(g)
        assert q.dim == 6
        assert check_hom_lie(q.algebra).ok
        assert check_quadratic(q.algebra, q.form).ok


def test_omega_extension_filiform():
    fil = catalog.filiform(4, 1)
    q = omega_extension(fil)
    assert q.dim == 10
    assert check_hom_lie(q.algebra).ok
    cls = classify_alpha(q.algebra)
    assert cls.regular and cls.multiplicative
    # alpha squared differs from the identity: genuinely non-involutive input
    assert not fil.alpha.power(2).is_identity()


def test_omega_extension_identity_automorphism():
    g = catalog.heis3()
    q = omega_extension(g, Matrix.identity(3))
    t = tstar_extension(g)
    assert q.algebra.bracket == t.algebra.bracket
    assert q.gram == t.gram


def test_omega_extension_two_nilpotent():
    g = catalog.two_nilpotent(4, 2)
    assert check_hom_lie(g).ok
    q = omega_extension(g)
    assert check_hom_lie(q.algebra).ok
    # output is 2-step nilpotent: [[g,g],g] = 0
    alg = q.algebra
    for d in alg.bracket.values():
        for k in range(alg.dim):
            unit = [1 if t == k else 0 for t in range(alg.dim)]
            assert alg.bracket_vec(d, unit) == (0,) * alg.dim


def test_omega_center_condition_iff():
    fil = catalog.filiform(4, 1)
    lie = fil.with_alpha(Matrix.identity(5))
    rows = [[F(1) if i == j else F(0) for j in range(5)] for i in range(5)]
    rows[1][0] = F(1)  # x0 -> x0 + x1 with x1 not central
    bad = Matrix(rows)
    with pytest.raises(CenterConditionFailed):
        omega_extension(lie, bad)
    tstar, omega = omega_map(lie, bad)
    assert not check_morphism(tstar.algebra, tstar.algebra, omega)
    tstar, omega = omega_map(lie, fil.alpha)
    assert check_morphism(tstar.algebra, tstar.algebra, omega)
    assert omega.transpose() @ tstar.gram == tstar.gram @ omega


# -- tensor current ----------------------------------------------------------

def test_tensor_current_example():
    a = catalog.assoc_a(1)
    lie, theta = tensor_current(catalog.sl2(), a, a.alpha)
    assert lie.dim == 12
    assert is_lie_algebra(lie)
    assert not (theta @ theta).is_identity()
    q = omega_extension(lie, theta)
    assert q.dim == 24
    assert classify_alpha(q.algebra).regular


def test_tensor_current_identity_theta():
    a = catalog.assoc_a(1)
    lie, theta = tensor_current(catalog.heis3(), a, Matrix.identity(4))
    assert theta.is_identity()
    assert is_lie_algebra(lie)


def test_tensor_current_one_dim_zero_product():
    zero = AssocAlgebra(1, [[[0]]], Matrix.identity(1))
    lie, _ = tensor_current(catalog.sl2(), zero, Matrix.identity(1))
    assert lie.is_abelian()


def truncated_polynomials(m, q):
    """t K[t]/(t^(m+1)) on t..t^m, with the automorphism t -> t + q t^m."""
    prod = {(i, j): [F(int(k == i + j + 1)) for k in range(m)] for i in range(m) for j in range(m)}
    rows = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    rows[m - 1][0] = q
    return AssocAlgebra(m, prod, Matrix(rows))


@settings(max_examples=30, deadline=None)
@given(q=st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool), m=st.integers(1, 5))
def test_tensor_current_matches_dense_kronecker_oracle(q, m):
    for g in (catalog.sl2(), catalog.heis3()):
        for a in (catalog.assoc_a(q), truncated_polynomials(m, q)):
            for theta in (a.alpha, Matrix.identity(a.dim)):
                lie, theta_tilde = tensor_current(g, a, theta)
                bracket, kron = dense_tensor_current(g, a, theta)
                assert dict(lie.bracket) == bracket
                assert theta_tilde == kron


def test_tensor_current_product_witness():
    # e -> 2e fixes f = ee, but (2e)(2e) = 4f
    a = catalog.assoc_a(1)
    with pytest.raises(NotAutomorphism) as err:
        tensor_current(catalog.sl2(), a, Matrix.diagonal([2, 1, 1, 1]))
    assert err.value.witness == (0, 0)


def test_tensor_current_annihilator_guard():
    a = catalog.assoc_a(1)
    bad = Matrix.diagonal([2, 1, 1, 1])
    with pytest.raises((AnnihilatorConditionFailed, Exception)):
        tensor_current(catalog.sl2(), a, bad)


# -- involutive untwist ------------------------------------------------------

def test_untwist_involutive_roundtrip():
    tw = catalog.sl_n_transpose(2)
    lie, t = untwist_involutive(tw.algebra, tw.form)
    assert is_lie_algebra(lie)
    back = yau_twist(lie, tw.algebra.alpha)
    assert back.bracket == tw.algebra.bracket
    assert back.alpha == tw.algebra.alpha
    assert tw.algebra.alpha.transpose() @ t.gram == tw.gram
    # theta is an automorphism of the recovered Lie algebra
    assert check_morphism(lie, lie, tw.algebra.alpha)


def test_untwist_involutive_identity():
    g = catalog.sl2()
    lie, _ = untwist_involutive(g)
    assert lie == g


def test_untwist_involutive_swap_double():
    g = catalog.swap_double(2)
    lie, _ = untwist_involutive(g)
    assert is_lie_algebra(lie)
    # decomposes as two commuting sl2 blocks: [block1, block2] = 0
    for i in range(3):
        for j in range(3, 6):
            unit_i = [1 if t == i else 0 for t in range(6)]
            unit_j = [1 if t == j else 0 for t in range(6)]
            assert lie.bracket_vec(unit_i, unit_j) == (0,) * 6


# -- double extensions -------------------------------------------------------

def base_and_rotation():
    base = abelian_quadratic(2)
    data = ExtensionData1D(Matrix([[0, 1], [-1, 0]]), (0, 0), F(1), F(0))
    return base, data


def test_double_extension_basic():
    base, data = base_and_rotation()
    q = double_extension_1d(base, data)
    assert q.dim == 4
    assert check_hom_lie(q.algebra).ok
    assert classify_alpha(q.algebra).multiplicative
    assert check_quadratic(q.algebra, q.form).ok
    # involutive by the eigenvalue constraints
    assert q.alpha.power(2).is_identity()
    q2 = double_extension_1d(base, data, require_involutive=True)
    assert q2 == q


def test_double_extension_form_layout():
    base, data = base_and_rotation()
    q = double_extension_1d(base, data)
    e, b = q.dim - 1, 0
    assert q.gram[b, e] == 1 and q.gram[e, b] == 1
    assert q.gram[b, b] == 0 and q.gram[e, e] == 0
    for i in range(base.dim):
        for j in range(base.dim):
            assert q.gram[1 + i, 1 + j] == base.gram[i, j]


def test_double_extension_trivial_data():
    tw = catalog.sl_n_transpose(2)
    data = ExtensionData1D(Matrix.zeros(3, 3), (0, 0, 0), F(1), F(0))
    q = double_extension_1d(tw, data, require_involutive=True)
    assert q.dim == 5
    assert check_quadratic(q.algebra, q.form).ok
    # b and e commute with everything
    for k in range(5):
        unit = [1 if t == k else 0 for t in range(5)]
        assert q.algebra.bracket_vec([1, 0, 0, 0, 0], unit) == (0,) * 5


def test_double_extension_involutive_gate():
    base, data = base_and_rotation()
    bad = ExtensionData1D(data.delta, data.x0, data.lam, F(5))
    with pytest.raises(InvolutiveDataInvalid):
        double_extension_1d(base, bad, require_involutive=True)
    # but as a plain multiplicative extension it is fine
    q = double_extension_1d(base, bad)
    assert classify_alpha(q.algebra).multiplicative
    assert not q.alpha.power(2).is_identity()


def test_double_extension_condition_witnesses():
    base, data = base_and_rotation()
    not_skew = ExtensionData1D(Matrix([[1, 0], [0, 0]]), (0, 0), F(1), F(0))
    bad = double_extension_conditions(base, not_skew)
    assert any(name == "NotSkew" for name, _ in bad)
    with pytest.raises(ConditionFailed):
        double_extension_1d(base, not_skew)
    # DE1 violation: lam = 2 with alpha = id needs delta scaled relation
    de1 = ExtensionData1D(Matrix([[0, 1], [-1, 0]]), (0, 0), F(2), F(0))
    bad = double_extension_conditions(base, de1)
    assert bad and bad[0][0] == "DE1"
    # DE3 only: with identity twist, x0 = 0 and lam = 1, DE3 asks for a derivation
    sl3 = QuadraticHomAlgebra(catalog.sl_n(3), catalog.sl_n_killing(3))
    de3 = ExtensionData1D(Matrix.diagonal([0, 0, 0, 0, 0, 1, 0, 0]), (0,) * 8, F(1), F(0))
    assert double_extension_conditions(sl3, de3) == [("DE3", (0, 4)), ("NotSkew", (3, 5))]
    with pytest.raises(ConditionFailed) as err:
        double_extension_1d(sl3, de3)
    assert (err.value.condition, err.value.witness) == ("DE3", (0, 4))
    tw = catalog.sl_n_transpose(2)
    cartan = ExtensionData1D(Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]), (0, 0, 0), F(-1), F(0))
    assert double_extension_conditions(tw, cartan) == [("DE3", (0, 2)), ("NotSkew", (0, 0))]


def test_double_extension_multiplicativity_guard():
    # DE1..DE3 and skewness hold, yet the output would not be multiplicative:
    # x0 outside the kernel of delta with identity twist.
    base, _ = base_and_rotation()
    data = ExtensionData1D(Matrix([[0, 1], [-1, 0]]), (1, 0), F(1), F(0))
    bad = double_extension_conditions(base, data)
    assert [name for name, _ in bad] == ["DEmult"]
    with pytest.raises(ConditionFailed) as err:
        double_extension_1d(base, data)
    assert err.value.condition == "DEmult"


def test_double_extension_over_twisted_sl2():
    tw = catalog.sl_n_transpose(2)
    # delta = ad(w) for a twist-fixed w solves every condition with lam = 1
    w = [0, 0, 0]
    w[0], w[1] = F(1), F(-1)  # e - f is fixed by -transpose
    delta = tw.algebra.ad_vec(w)
    data = ExtensionData1D(delta, (0, 0, 0), F(1), F(0))
    q = double_extension_1d(tw, data, require_involutive=True)
    assert check_hom_lie(q.algebra).ok
    assert classify_alpha(q.algebra).multiplicative
    assert check_quadratic(q.algebra, q.form).ok


def own_frame(dim):
    """The frame (b, V, e) of double_extension_1d's output in its own basis."""
    units = [tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)]
    return units[0], units[1:-1], units[-1]


def test_double_extension_parts_inverts_double_extension_1d():
    # delta = 0 with any x0 is valid over an abelian base with identity twist
    x0_case = (
        abelian_quadratic(2, Matrix.diagonal([1, 2])),
        ExtensionData1D(Matrix.zeros(2, 2), (1, -2), F(3), F(1, 2)),
    )
    cases = [base_and_rotation(), x0_case]
    rng = random.Random(5)
    for kind, seed in (("quadratic", 0), ("involutive_quadratic", 2)):
        base = catalog.random_instance(seed, 5, kind)
        for lam in (F(1), F(-1)):
            cases.append((base, catalog.random_extension_data(rng, base, lam)))
    for base, data in cases:
        q = double_extension_1d(base, data)
        assert double_extension_parts(q, *own_frame(q.dim)) == (base, data)


def test_double_extension_parts_rejects_a_frame_it_cannot_rebuild():
    # the twist is symmetric for the hyperbolic form but maps e to v + e, so
    # e is no twist eigenvector and no extension data rebuilds the twist
    gram = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    alpha = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    q = QuadraticHomAlgebra(catalog.abelian(3).with_alpha(alpha), BilinearForm(3, gram))
    with pytest.raises(ReconstructionFailed, match="rebuilt extension does not match"):
        double_extension_parts(q, *own_frame(3))


def test_change_of_basis_rejects_a_matrix_of_the_wrong_size():
    # an invertible matrix of another size used to raise a bare IndexError
    with pytest.raises(DimensionMismatch):
        change_basis(catalog.sl2(), Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        change_basis_quadratic(catalog.sl_n_transpose(2), Matrix.identity(2))


def test_omega_map_and_tensor_current_reject_maps_of_the_wrong_size(monkeypatch):
    # omega_map used to return a 4 x 4 omega for a 2 x 2 map on the 3-dimensional sl2,
    # and tensor_current reported a theta of the wrong size as not invertible
    def no_tstar(g):
        raise AssertionError("T*-extension built before the shape check")

    monkeypatch.setattr(build, "tstar_extension", no_tstar)
    for a in (Matrix.identity(2), Matrix.identity(4), Matrix.zeros(3, 2)):
        with pytest.raises(DimensionMismatch):
            omega_map(catalog.sl2(), a)
    for theta in (Matrix.identity(3), Matrix.identity(5), Matrix.zeros(4, 3)):
        with pytest.raises(DimensionMismatch):
            tensor_current(catalog.sl2(), catalog.assoc_a(1), theta)


def test_block_algebra_reads_summands_and_checks_its_range():
    a, b = catalog.sl_n_transpose(2), abelian_quadratic(2)
    s = orthogonal_sum(a, b)
    assert block_algebra(s, 0, 3) == a
    assert block_algebra(s, 3, 5) == b
    assert block_algebra(s, 0, 5) == s
    for lo, hi in ((-1, 2), (2, 2), (3, 2), (0, 6), (5, 6)):
        with pytest.raises(DimensionMismatch):
            block_algebra(s, lo, hi)


# -- involutive double extension ---------------------------------------------

def sl2_on_killing_module():
    sl2 = catalog.sl2()
    k = catalog.sl_n_killing(2)
    v = QuadraticHomAlgebra(catalog.abelian(3), k)
    phi = tuple(sl2.ad_matrices())
    gamma = BilinearForm(3, k.gram)
    return v, sl2, InvolutiveExtensionData(phi, gamma)


def test_involutive_double_extension_sl2():
    v, a, d = sl2_on_killing_module()
    q = involutive_double_extension(v, a, d)
    assert q.dim == 9
    assert check_hom_lie(q.algebra).ok
    cls = classify_alpha(q.algebra)
    assert cls.involutive and cls.multiplicative
    assert check_quadratic(q.algebra, q.form).ok


def test_involutive_double_extension_trivial():
    v = abelian_quadratic(2)
    a = catalog.abelian(1)
    d = InvolutiveExtensionData((Matrix.zeros(2, 2),), BilinearForm(1, Matrix.zeros(1, 1)))
    q = involutive_double_extension(v, a, d)
    assert q.dim == 4
    assert check_hom_lie(q.algebra).ok
    # psi vanishes identically with phi = 0: no A* component in [V, V]
    assert q.algebra.basis_bracket(1, 2)[3] == 0


def test_involutive_double_extension_skew_guard():
    v = abelian_quadratic(2)
    a = catalog.abelian(1)
    d = InvolutiveExtensionData((Matrix([[1, 0], [0, 0]]),), BilinearForm(1, Matrix.zeros(1, 1)))
    with pytest.raises(ConditionFailed) as err:
        involutive_double_extension(v, a, d)
    assert err.value.condition == "TDE3"


def test_involutive_double_extension_witnesses():
    sl3 = QuadraticHomAlgebra(catalog.sl_n(3), catalog.sl_n_killing(3))
    scale5 = Matrix.diagonal([0, 0, 0, 0, 0, 1, 0, 0])
    zero_gamma = BilinearForm(2, Matrix.zeros(2, 2))
    # the second action matrix is no derivation of sl3: TDE1 fails for r = 1
    d = InvolutiveExtensionData((Matrix.zeros(8, 8), scale5), zero_gamma)
    with pytest.raises(ConditionFailed) as err:
        involutive_double_extension(sl3, catalog.abelian(2), d)
    assert (err.value.condition, err.value.witness) == ("TDE1", (1, 0, 4))
    # valid action of sl2 on its Killing module, but gamma not invariant
    v, a, d = sl2_on_killing_module()
    for gram, witness in (
        (Matrix.identity(3), (0, 0, 2)),
        (Matrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]]), (0, 0, 1)),
        (Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), (0, 1, 2)),
    ):
        bad = InvolutiveExtensionData(d.phi, BilinearForm(3, gram))
        with pytest.raises(ConditionFailed) as err:
            involutive_double_extension(v, a, bad)
        assert (err.value.condition, err.value.witness) == ("GammaInvalid", witness)


def test_involutive_extension_literal_vs_corrected():
    v, a, d = sl2_on_killing_module()
    report = involutive_extension_discrepancy(v, a, d)
    assert report["corrected_hom_jacobi"] is True
    assert report["literal_hom_jacobi"] is False
    assert report["literal_witness"] is not None


# -- misc plumbing ------------------------------------------------------------

def test_change_basis_roundtrip():
    rng = random.Random(3)
    q = catalog.sl_n_transpose(2)
    p = catalog._rand_unimodular(rng, 3)
    back = change_basis_quadratic(change_basis_quadratic(q, p), p.inverse())
    assert back == q


def test_orthogonal_sum_checks_pass():
    s = orthogonal_sum(catalog.sl_n_transpose(2), abelian_quadratic(2))
    assert s.dim == 5
    assert check_hom_lie(s.algebra).ok


def test_adjoint_rep_abelian_is_zero():
    rep = adjoint_rep(catalog.abelian(3))
    assert all(m.is_zero() for m in rep.rho)


def test_semidirect_abelian_zero_rep_abelian():
    g = catalog.abelian(2)
    zero = Representation(2, 2, tuple(Matrix.zeros(2, 2) for _ in range(2)), Matrix.identity(2))
    assert semidirect_sum(g, zero).is_abelian()


def test_quadratic_yau_twist_swap_pair():
    # two sl2 factors with the product Killing form, twisted by the swap
    g = direct_sum(catalog.sl2(), catalog.sl2())
    k = catalog.sl_n_killing(2).gram
    q = QuadraticHomAlgebra(g, BilinearForm(6, Matrix.block_diagonal([k, k])))
    swap_rows = [[F(0)] * 6 for _ in range(6)]
    for i in range(3):
        swap_rows[i][3 + i] = F(1)
        swap_rows[3 + i][i] = F(1)
    tw = quadratic_yau_twist(q, Matrix(swap_rows))
    cls = classify_alpha(tw.algebra)
    assert cls.involutive and cls.multiplicative
    assert check_quadratic(tw.algebra, tw.form).ok


def test_centroid_untwist_identity_twist():
    g = catalog.sl2()
    l1, l2, _ = centroid_untwist(g)
    assert l1.bracket == g.bracket and l2.bracket == g.bracket


def test_derived_algebra_property_random_instances():
    # the derived construction of any multiplicative algebra stays Hom-Lie
    for seed in range(4):
        q = catalog.random_instance(seed, 5, "involutive_quadratic")
        for n in (1, 2, 3):
            d = derived_hom_algebra(q.algebra, n)
            assert check_hom_lie(d).ok
            assert classify_alpha(d).multiplicative
        qd = quadratic_derived(q, 2)
        assert check_quadratic(qd.algebra, qd.form).ok


def test_semidirect_with_coadjoint():
    tw = catalog.sl_n_transpose(2).algebra
    rep, valid = coadjoint_rep(tw)
    assert valid
    s = semidirect_sum(tw, rep)
    assert s.dim == 6
    assert check_hom_lie(s).ok


def test_tensor_current_full_checks():
    a = catalog.assoc_a(1)
    lie, theta = tensor_current(catalog.sl2(), a, a.alpha)
    q = omega_extension(lie, theta)
    assert check_hom_lie(q.algebra).ok
    assert check_quadratic(q.algebra, q.form).ok
    assert classify_alpha(q.algebra).multiplicative


def test_involutive_extension_random_actions():
    # solved-for module actions over random bases, one-dimensional extender
    from homlie.catalog import involutive_action_space, random_instance

    rng = random.Random(99)
    built = with_action = 0
    for seed in range(10):
        v = random_instance(seed, rng.choice((2, 3, 4)), "involutive_quadratic")
        eps = F(rng.choice((1, -1)))
        phi1 = Matrix.zeros(v.dim, v.dim)
        for b in involutive_action_space(v, eps):
            c = F(rng.randrange(-2, 3))
            if c:
                phi1 = phi1 + b.scale(c)
        a = catalog.abelian(1).with_alpha(Matrix([[eps]]))
        gamma = BilinearForm(1, Matrix([[F(rng.randrange(-2, 3))]]))
        ext = involutive_double_extension(
            v, a, InvolutiveExtensionData((phi1,), gamma)
        )
        assert check_hom_lie(ext.algebra).ok
        assert check_quadratic(ext.algebra, ext.form).ok
        assert classify_alpha(ext.algebra).involutive
        built += 1
        if not phi1.is_zero():
            with_action += 1
    assert built == 10 and with_action >= 5
