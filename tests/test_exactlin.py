from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlie.errors import DimensionMismatch, NotSquare
from homlie.exactlin import (
    Matrix,
    Subspace,
    kernel,
    kernel_image_power,
    rational_eigenpairs,
    rational_roots,
    solve_linear,
    solve_rows,
)

from dense_elimination import dense_kernel, dense_rref

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def sparse_matrices(draw):
    """Mostly-zero matrices, often rank-deficient or tall, with zero rows mixed in."""
    cols = draw(st.integers(0, 8))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions_st)
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    rows = list(base)
    if base:
        combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)), max_size=12))
        rows += [[sum((c * r[j] for c, r in zip(combo, base)), Fraction(0)) for j in range(cols)] for combo in combos]
    rows += [[Fraction(0)] * cols] * draw(st.integers(0, 2))
    return Matrix(draw(st.permutations(rows)), cols=cols)


def small_matrix(n, m):
    return st.lists(
        st.lists(fractions_st, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(Matrix)


def test_solve_identity_returns_rhs():
    b = Matrix([[1], [2], [3]])
    assert solve_linear(Matrix.identity(3), b) == b


def test_solve_inconsistent_returns_none():
    assert solve_linear(Matrix.zeros(2, 2), Matrix([[1], [0]])) is None


def test_solve_hand_elimination():
    a = Matrix([[1, 1], [0, 2]])
    b = Matrix([[3], [4]])
    x = solve_linear(a, b)
    assert x == Matrix([[1], [2]])
    assert a @ x == b


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear(Matrix.identity(2), Matrix([[1], [2], [3]]))


@settings(max_examples=60, deadline=None)
@given(small_matrix(3, 3), small_matrix(3, 2))
def test_solve_exactness(a, b):
    x = solve_linear(a, b)
    if x is not None:
        assert a @ x == b


def test_inverse_roundtrip():
    a = Matrix([[1, 2], [3, 5]])
    inv = a.inverse()
    assert inv is not None
    assert a @ inv == Matrix.identity(2)
    assert Matrix([[1, 2], [2, 4]]).inverse() is None


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example(Matrix.zeros(0, 4))
@example(Matrix.zeros(3, 0))
@example(Matrix.zeros(0, 0))
@example(Matrix.zeros(3, 4))
def test_kernel_matches_dense_oracle(a):
    k = kernel(a)
    assert (k.basis.data, k.pivots) == dense_kernel(a)
    assert k.ambient_dim == a.cols
    for v in k.vectors():
        assert a.apply(v) == (Fraction(0),) * a.rows


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_solve_rows_is_solve_linear_and_kernel(a, data):
    b = data.draw(st.lists(st.one_of(st.just(Fraction(0)), fractions_st), min_size=a.rows, max_size=a.rows))
    rows = [{c: x for c, x in enumerate(r) if x} for r in a.data]
    for row, y in zip(rows, b):
        if y:
            row[a.cols] = y
    particular, ker = solve_rows(rows, a.cols)
    expected = solve_linear(a, Matrix([[y] for y in b], cols=1))
    assert particular == (None if expected is None else expected.col(0))
    assert (ker.basis.data, ker.pivots) == dense_kernel(a)


def test_subspace_rejects_a_basis_of_the_wrong_width():
    # zero rows of the wrong width used to give the zero subspace of Q^3
    for make in (lambda: Subspace(3, Matrix.zeros(2, 5)), lambda: Subspace.from_vectors(3, [[0] * 5])):
        with pytest.raises(DimensionMismatch):
            make()
    with pytest.raises(DimensionMismatch):
        Subspace.from_vectors(3, [[1, 0]])
    # a basis with no rows carries no width, as a product with no rows has none
    assert Subspace(3, Matrix([])) == Subspace.zero(3)
    assert Subspace(3, Matrix.zeros(0, 2) @ Matrix.zeros(2, 3)) == Subspace.zero(3)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_zero_and_full_subspaces_skip_elimination(n, monkeypatch):
    reduced_full = Subspace(n, Matrix.identity(n))
    reduced_zero = Subspace(n, Matrix.zeros(0, n))

    def no_rref(self):
        raise AssertionError("rref called")

    monkeypatch.setattr(Matrix, "rref", no_rref)
    for made, reduced in ((Subspace.full(n), reduced_full), (Subspace.zero(n), reduced_zero)):
        assert made == reduced and made.pivots == reduced.pivots


def test_subspace_canonical_equality():
    u = Subspace.from_vectors(3, [[2, 0, 0], [1, 1, 0]])
    v = Subspace.from_vectors(3, [[0, 3, 0], [5, 0, 0]])
    assert u == v
    assert u.dim == 2


def test_subspace_sum_full_plane():
    x_axis = Subspace.from_vectors(2, [[1, 0]])
    y_axis = Subspace.from_vectors(2, [[0, 1]])
    assert x_axis.sum(y_axis) == Subspace.full(2)


def test_intersection_idempotent():
    u = Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 1]])
    assert u.intersect(u) == u


def test_intersection_trivial():
    u = Subspace.from_vectors(3, [[1, 1, 0]])
    v = Subspace.from_vectors(3, [[0, 1, 1]])
    assert u.intersect(v) == Subspace.zero(3)


def test_contains_and_complement():
    u = Subspace.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    w = u.complement()
    assert u.sum(w) == Subspace.full(4)
    assert u.intersect(w).is_zero()
    assert u.contains(Subspace.from_vectors(4, [[1, 1, 1, 0]]))
    assert not u.contains(Subspace.full(4))


@settings(max_examples=60, deadline=None)
@given(small_matrix(2, 4), small_matrix(3, 4))
def test_dimension_formula(a, b):
    u = Subspace.from_vectors(4, a.data)
    v = Subspace.from_vectors(4, b.data)
    s = u.sum(v)
    i = u.intersect(v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains(u) and s.contains(v)
    assert u.contains(i) and v.contains(i)


@settings(max_examples=60, deadline=None)
@given(small_matrix(3, 5), st.lists(fractions_st, min_size=3, max_size=3), st.lists(fractions_st, min_size=5, max_size=5))
def test_coords_of_agrees_with_solve_linear(a, coeffs, other):
    w = Subspace.from_vectors(5, a.data)
    inside = tuple(sum((c * row[k] for c, row in zip(coeffs, a.data)), Fraction(0)) for k in range(5))
    for v in (inside, tuple(other)):
        coords = w.coords_of(v)
        if not w.contains_vector(v):
            assert coords is None
            continue
        if w.dim:
            assert coords == solve_linear(w.basis.transpose(), Matrix([[x] for x in v])).col(0)
        combo = [sum((c * row[k] for c, row in zip(coords, w.vectors())), Fraction(0)) for k in range(5)]
        assert tuple(combo) == v
    assert w.coords_of(inside) is not None


def test_kernel_image_power_invertible():
    n, ker, im = kernel_image_power(Matrix([[2, 1], [1, 1]]))
    assert n == 1
    assert ker.is_zero()
    assert im.is_full()


def test_kernel_image_power_nilpotent_jordan3():
    j = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    n, ker, im = kernel_image_power(j)
    assert n == 3
    assert ker.is_full()
    assert im.is_zero()


def test_kernel_image_power_diag01():
    n, ker, im = kernel_image_power(Matrix.diagonal([0, 1]))
    assert n == 1
    assert ker == Subspace.from_vectors(2, [[1, 0]])
    assert im == Subspace.from_vectors(2, [[0, 1]])


@settings(max_examples=40, deadline=None)
@given(small_matrix(4, 4))
def test_kernel_image_power_properties(a):
    n, ker, im = kernel_image_power(a)
    assert ker.sum(im).is_full()
    assert ker.intersect(im).is_zero()
    p = a.power(n)
    for v in ker.vectors():
        assert all(x == 0 for x in p.apply(v))
    # a^n restricted to im is invertible: image of im under a^n is im again
    mapped = Subspace.from_vectors(4, [a.apply(v) for v in im.vectors()] or [])
    assert mapped == im or im.is_zero()


def test_charpoly_companion():
    a = Matrix([[0, -1], [1, 0]])
    assert a.charpoly() == (Fraction(1), Fraction(0), Fraction(1))


def test_rational_roots():
    # (t - 2)(t + 1/3) = t^2 - 5/3 t - 2/3
    roots = rational_roots([1, Fraction(-5, 3), Fraction(-2, 3)])
    assert roots == [Fraction(-1, 3), Fraction(2)]
    assert rational_roots([1, 0, 1]) == []


def test_rational_eigenpairs_identity():
    pairs = rational_eigenpairs(Matrix.identity(2))
    assert pairs == [(Fraction(1), Subspace.full(2))]


def test_rational_eigenpairs_diag():
    pairs = rational_eigenpairs(Matrix.diagonal([2, Fraction(1, 3)]))
    assert [p[0] for p in pairs] == [Fraction(1, 3), Fraction(2)]
    assert pairs[0][1] == Subspace.from_vectors(2, [[0, 1]])
    assert pairs[1][1] == Subspace.from_vectors(2, [[1, 0]])


def test_rational_eigenpairs_rotation_empty():
    assert rational_eigenpairs(Matrix([[0, -1], [1, 0]])) == []


@settings(max_examples=40, deadline=None)
@given(small_matrix(3, 3))
def test_eigenpairs_are_exact(a):
    for lam, eig in rational_eigenpairs(a):
        for v in eig.vectors():
            assert a.apply(v) == tuple(lam * x for x in v)


def test_not_square_raises():
    with pytest.raises(NotSquare):
        kernel_image_power(Matrix.zeros(2, 3))
    with pytest.raises(NotSquare):
        rational_eigenpairs(Matrix.zeros(2, 3))


def _det_cofactor(m):
    # independent determinant oracle: cofactor expansion
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = Matrix([[m[i, k] for k in range(n) if k != j] for i in range(1, n)])
        sign = Fraction(-1) ** j
        total += sign * m[0, j] * _det_cofactor(minor)
    return total


@settings(max_examples=30, deadline=None)
@given(small_matrix(3, 3))
def test_charpoly_matches_determinant_oracle(a):
    coeffs = a.charpoly()
    for t in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)):
        horner = Fraction(0)
        for c in coeffs:
            horner = horner * t + c
        shifted = Matrix.identity(3).scale(t) - a
        assert horner == _det_cofactor(shifted)


# cross-validation against an independent implementation
sympy = pytest.importorskip("sympy")


@settings(max_examples=15, deadline=None)
@given(small_matrix(4, 4))
def test_rref_matches_sympy(a):
    ours, pivots = a.rref()
    sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.data])
    ref, ref_pivots = sym.rref()
    assert tuple(ref_pivots) == pivots
    for i in range(4):
        for j in range(4):
            got = ours[i, j]
            assert sympy.Rational(got.numerator, got.denominator) == ref[i, j]


def _rational(x):
    return sympy.Rational(x.numerator, x.denominator)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example(Matrix.zeros(0, 4))
@example(Matrix.zeros(3, 0))
@example(Matrix.zeros(0, 0))
@example(Matrix.zeros(3, 4))
def test_rref_matches_dense_oracle_and_sympy(a):
    ours, pivots = a.rref()
    assert (ours, pivots) == dense_rref(a)
    assert ours.shape == a.shape
    ref, ref_pivots = sympy.Matrix(a.rows, a.cols, [_rational(x) for row in a.data for x in row]).rref()
    assert pivots == tuple(ref_pivots)
    assert [[_rational(x) for x in row] for row in ours.data] == ref.tolist()


@settings(max_examples=15, deadline=None)
@given(small_matrix(4, 4))
def test_charpoly_matches_sympy(a):
    sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.data])
    lam = sympy.Symbol("lam")
    ref = sympy.Poly(sym.charpoly(lam), lam).all_coeffs()
    ours = [sympy.Rational(c.numerator, c.denominator) for c in a.charpoly()]
    assert ours == ref
