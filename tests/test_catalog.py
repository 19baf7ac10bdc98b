import random
from fractions import Fraction

import pytest
import sympy

from homlie import catalog
from homlie.analyze import center
from homlie.build import MAX_OUTPUT_DIM
from homlie.errors import BadParams, UnknownFixture
from homlie.exactlin import Matrix, Subspace, unit_vec
from homlie.homalg import (
    QuadraticHomAlgebra,
    check_hom_associative,
    check_hom_lie,
    check_quadratic,
    classify_alpha,
    is_lie_algebra,
)

from dense_axioms import dense_bracket_vec
from dense_structures import (
    dense_sl_n_bracket,
    dense_sl_n_killing,
    dense_sl_n_neg_transpose,
    loop_extension_delta_space,
    loop_involutive_action_space,
)

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
    with pytest.raises(BadParams, match=f"dimension {dim}, over the limit {MAX_OUTPUT_DIM}"):
        catalog.emit(*params)


def test_emit_builds_up_to_the_dimension_limit():
    assert MAX_OUTPUT_DIM == 256
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


def _spaces_match_the_index_loops(q):
    n = q.dim
    for lam in (F(1), F(-1), F(2)):
        for x0 in ((F(0),) * n, tuple(F((3 * i) % 5 - 2, 1 + i % 2) for i in range(n))):
            assert catalog.extension_delta_space(q, lam, x0) == loop_extension_delta_space(q, lam, x0)
    for eps in (F(1), F(-1)):
        assert catalog.involutive_action_space(q, eps) == loop_involutive_action_space(q, eps)


@pytest.mark.parametrize("dim", range(3, 9))
@pytest.mark.parametrize("kind", ["quadratic", "involutive_quadratic"])
def test_extension_spaces_match_the_index_loop_oracle(kind, dim):
    for seed in range(12):
        _spaces_match_the_index_loops(catalog.random_instance(seed, dim, kind))


@pytest.mark.parametrize("n", [2, 3])
def test_extension_spaces_match_the_index_loop_oracle_on_sl_n_transpose(n):
    _spaces_match_the_index_loops(catalog.sl_n_transpose(n))


def _identity_values(q, lam, left, p, qmap, d):
    """Left sides of both identity sets at D = d, from dense products and ``dense_bracket_vec``:
    (a d a - lam d)[i][j], (d^T gram + gram d)[i][j], then for r < s the coordinates
    of left d [x_r, x_s] - [d p x_r, qmap x_s] - [qmap x_r, d p x_s]."""
    g, a, n = q.algebra, q.alpha, q.dim
    values = [x for row in (a @ d @ a - d.scale(lam)).data for x in row]
    values += [x for row in (d.transpose() @ q.gram + q.gram @ d).data for x in row]
    dp = d @ p
    for r in range(n):
        for s in range(r + 1, n):
            xr, xs = unit_vec(n, r), unit_vec(n, s)
            lhs = (left @ d).apply(dense_bracket_vec(g, xr, xs))
            first = dense_bracket_vec(g, dp.apply(xr), qmap.apply(xs))
            second = dense_bracket_vec(g, qmap.apply(xr), dp.apply(xs))
            values += [x - y - z for x, y, z in zip(lhs, first, second)]
    return values


def _right_sides(q, twist_rhs, bracket_rhs):
    """Right sides of the same equations: twist_rhs[i][j], zeros, then bracket_rhs [x_r, x_s]."""
    g, n = q.algebra, q.dim
    values = [x for row in twist_rhs.data for x in row] + [F(0)] * (n * n)
    for r in range(n):
        for s in range(r + 1, n):
            values += bracket_rhs.apply(dense_bracket_vec(g, unit_vec(n, r), unit_vec(n, s)))
    return values


def _sympy_null_rref(q, lam, maps):
    """The RREF of sympy's nullspace of the system whose columns are the identities at each matrix unit."""
    n = q.dim
    units = [Matrix([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]) for i in range(n) for j in range(n)]
    columns = [_identity_values(q, lam, *maps, e) for e in units]
    system = sympy.Matrix(len(columns[0]), n * n, lambda k, c: sympy.Rational(columns[c][k].numerator, columns[c][k].denominator))
    null = system.nullspace()
    if not null:
        return ()
    ref, pivots = sympy.Matrix.hstack(*null).T.rref()
    return tuple(tuple(F(int(x.p), int(x.q)) for x in ref.row(k)) for k in range(len(pivots)))


def _flat(matrices):
    return tuple(tuple(x for row in m.data for x in row) for m in matrices)


@pytest.mark.parametrize(
    "kind, dim, seed",
    [(kind, dim, seed) for kind in ("quadratic", "involutive_quadratic") for dim in (3, 4) for seed in range(12)]
    + [("sl_n_transpose", 2, None)],
)
def test_extension_spaces_match_sympy_on_the_dense_identities(kind, dim, seed):
    # delta solves the identities for (lam, L, P, Q) = (lam, lam I, I, a) with
    # right sides ad x0 and -ad x0; the involutive action for (eps, a, a, I), homogeneous
    q = catalog.sl_n_transpose(dim) if seed is None else catalog.random_instance(seed, dim, kind)
    n = q.dim
    ident = Matrix.identity(n)
    x0 = tuple(F((3 * i) % 5 - 2, 1 + i % 2) for i in range(n))
    adx0 = q.algebra.ad_vec(x0)
    for lam in (F(1), F(-1), F(2)):
        maps = (ident.scale(lam), ident, q.alpha)
        expected = _sympy_null_rref(q, lam, maps)
        particular, homogeneous = catalog.extension_delta_space(q, lam, x0)
        if particular is not None:
            assert _flat(homogeneous) == expected
            assert _identity_values(q, lam, *maps, particular) == _right_sides(q, adx0, -adx0)
        assert _flat(catalog.extension_delta_space(q, lam, [0] * n)[1]) == expected
    for eps in (F(1), F(-1)):
        maps = (q.alpha, q.alpha, ident)
        assert _flat(catalog.involutive_action_space(q, eps)) == _sympy_null_rref(q, eps, maps)
