import random
from fractions import Fraction

import pytest

from homlie import catalog
from homlie.analyze import center
from homlie.errors import BadParams, UnknownFixture
from homlie.exactlin import Matrix, Subspace
from homlie.homalg import (
    QuadraticHomAlgebra,
    check_hom_associative,
    check_hom_lie,
    check_quadratic,
    classify_alpha,
    is_lie_algebra,
)

from dense_structures import dense_sl_n_bracket, dense_sl_n_killing, dense_sl_n_neg_transpose

F = Fraction


def test_emit_dispatch_and_errors():
    g = catalog.emit("jackson_sl2", F(1, 2))
    assert g.dim == 3
    with pytest.raises(UnknownFixture):
        catalog.emit("nope")
    with pytest.raises(BadParams):
        catalog.emit("jackson_sl2")
    with pytest.raises(BadParams):
        catalog.emit("abelian", 0)
    with pytest.raises(BadParams):
        catalog.emit("jackson_sl2", 0)


# each sized fixture just over the dimension limit, and its dimension there
OVER_THE_LIMIT = [
    (("abelian", 257), 257),
    (("sl_n_transpose", 17), 288),
    (("swap_double", 12), 286),
    (("filiform", 256, 1), 257),
    (("two_nilpotent", 200, 57), 257),
]


@pytest.mark.parametrize("params, dim", OVER_THE_LIMIT, ids=[p[0][0] for p in OVER_THE_LIMIT])
def test_emit_refuses_a_fixture_over_the_dimension_limit(params, dim):
    with pytest.raises(BadParams, match=f"dimension {dim}, over the limit {catalog.MAX_EMIT_DIM}"):
        catalog.emit(*params)


def test_emit_builds_up_to_the_dimension_limit():
    assert catalog.MAX_EMIT_DIM == 256
    for params in (("abelian", 256), ("filiform", 255, 1), ("two_nilpotent", 128, 128)):
        assert catalog.emit(*params).dim == 256
    # sizes below a fixture's minimum keep the builder's own error
    with pytest.raises(BadParams, match="sl_n needs n >= 2"):
        catalog.emit("sl_n_transpose", -20)
    with pytest.raises(BadParams, match="at least 2"):
        catalog.emit("two_nilpotent", 3)


def test_fixture_names_registry():
    names = [n for n, _ in catalog.fixture_names()]
    for expected in (
        "ex_1_2",
        "jackson_sl2",
        "sl2",
        "heis3",
        "abelian",
        "sl_n_transpose",
        "swap_double",
        "filiform",
        "two_nilpotent",
        "assoc_a",
    ):
        assert expected in names


def test_ex_1_2_lie_iff_ac_zero():
    # not a Lie algebra exactly when a != 0 and c != 0
    assert check_hom_lie(catalog.ex_1_2(1, 2, 3, 4)).ok
    assert not is_lie_algebra(catalog.ex_1_2(1, 2, 3, 4))
    assert is_lie_algebra(catalog.ex_1_2(0, 2, 3, 4))
    assert is_lie_algebra(catalog.ex_1_2(1, 2, 0, 4))
    assert not is_lie_algebra(catalog.ex_1_2(F(1, 3), 0, F(2, 5), 0))


def test_jackson_sl2_family():
    for q in (F(2), F(-3), F(1, 2), F(7, 3)):
        g = catalog.jackson_sl2(q)
        assert check_hom_lie(g).ok
        assert is_lie_algebra(g) == (q in (1, -1))
    assert is_lie_algebra(catalog.jackson_sl2(1))
    # q = 1 recovers classical sl2: same structure constants as the fixture
    one = catalog.jackson_sl2(1)
    assert one.bracket_vec([1, 0, 0], [0, 1, 0]) == (0, -2, 0)


def test_sl_n_structure():
    for n in (2, 3):
        g = catalog.sl_n(n)
        assert g.dim == n * n - 1
        assert is_lie_algebra(g)
        tw = catalog.sl_n_transpose(n)
        assert check_hom_lie(tw.algebra).ok
        cls = classify_alpha(tw.algebra)
        assert cls.involutive and cls.regular


def test_swap_double_properties():
    g = catalog.swap_double(2)
    assert g.dim == 6
    assert check_hom_lie(g).ok
    assert classify_alpha(g).involutive
    assert center(g).is_zero()


def test_filiform_claims():
    for n, lam in ((4, F(1)), (5, F(2, 3))):
        g = catalog.filiform(n, lam)
        assert check_hom_lie(g).ok
        assert classify_alpha(g).multiplicative
        z = center(g)
        expected = [0] * (n + 1)
        expected[n] = 1
        assert z == Subspace.from_vectors(n + 1, [expected])
        defect = g.alpha @ g.alpha - Matrix.identity(n + 1)
        assert not defect.is_zero()
        for j in range(n + 1):
            assert z.contains_vector(defect.col(j))


def test_two_nilpotent_claims():
    g = catalog.two_nilpotent(4, 2)
    assert check_hom_lie(g).ok
    defect = g.alpha @ g.alpha - Matrix.identity(6)
    assert not defect.is_zero()
    z = center(g)
    for j in range(6):
        assert z.contains_vector(defect.col(j))


def test_assoc_a_properties():
    a = catalog.assoc_a(1)
    assert a.is_commutative()
    assert check_hom_associative(a)
    # theta is an algebra morphism with square defect in the annihilator
    theta = a.alpha
    for i in range(4):
        for j in range(4):
            ai_aj = a.product.get((i, j), (0, 0, 0, 0))
            assert theta.apply(ai_aj) == a.product_vec(theta.col(i), theta.col(j))
    defect = theta @ theta - Matrix.identity(4)
    assert not defect.is_zero()
    for j in range(4):
        v = defect.col(j)
        for i in range(4):
            unit = [1 if t == i else 0 for t in range(4)]
            assert a.product_vec(v, unit) == (0, 0, 0, 0)


@pytest.mark.parametrize("n", range(2, 8))
def test_sl_n_matches_dense_matrix_oracle(n):
    # the sparse matrix-unit writer against dense commutators, tr(xy) and -x^T
    assert dict(catalog.sl_n(n).bracket) == dense_sl_n_bracket(n)
    assert catalog.sl_n_killing(n).gram == dense_sl_n_killing(n)
    assert catalog.sl_n_neg_transpose(n) == dense_sl_n_neg_transpose(n)


def test_random_instance_determinism():
    for kind in ("lie", "hom_lie", "quadratic", "involutive_quadratic"):
        a = catalog.random_instance(42, 5, kind)
        b = catalog.random_instance(42, 5, kind)
        alg_a = a.algebra if isinstance(a, QuadraticHomAlgebra) else a
        alg_b = b.algebra if isinstance(b, QuadraticHomAlgebra) else b
        assert alg_a.bracket == alg_b.bracket
        assert alg_a.alpha == alg_b.alpha


def test_random_instance_kind_guarantees():
    for seed in range(6):
        g = catalog.random_instance(seed, 5, "lie")
        assert is_lie_algebra(g)
        h = catalog.random_instance(seed, 5, "hom_lie")
        assert check_hom_lie(h).ok
        q = catalog.random_instance(seed, 5, "quadratic")
        assert check_hom_lie(q.algebra).ok
        assert check_quadratic(q.algebra, q.form).ok
        iq = catalog.random_instance(seed, 6, "involutive_quadratic")
        assert check_hom_lie(iq.algebra).ok
        assert check_quadratic(iq.algebra, iq.form).ok
        cls = classify_alpha(iq.algebra)
        assert cls.involutive and cls.multiplicative


def test_random_instance_spec_point():
    iq = catalog.random_instance(7, 6, "involutive_quadratic")
    assert check_quadratic(iq.algebra, iq.form).ok
    assert iq.alpha.power(2).is_identity()


def test_random_instance_bad_kind():
    with pytest.raises(BadParams):
        catalog.random_instance(0, 3, "banana")
    with pytest.raises(BadParams):
        catalog.random_instance(0, 0, "lie")


@pytest.mark.parametrize("lam", [0, 2, F(1, 2)])
def test_random_extension_data_involutive_needs_lambda_one_or_minus_one(lam):
    # lam = 0 divided by zero for lam0; lam = 2 gave data that the involutive
    # double extension rejects
    rng = random.Random(0)
    with pytest.raises(BadParams):
        catalog.random_extension_data(rng, catalog.sl_n_transpose(2), F(lam), involutive=True)
