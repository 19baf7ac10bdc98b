from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlie import exactlin
from homlie.catalog import sl_n_transpose
from homlie.errors import DimensionMismatch, NotSquare
from homlie.exactlin import (
    Matrix,
    _positive_divisors,
    Subspace,
    eigenspace,
    kernel,
    kernel_image_power,
    rational_eigenpairs,
    rational_roots,
    solve_rows,
    sparse_rows,
    spin_up,
)
from homlie.homalg import HomAlgebra, is_nilpotent_matrix

from dense_elimination import (
    dense_charpoly,
    dense_complement,
    dense_intersection,
    dense_inverse,
    dense_kernel,
    dense_matmul,
    dense_power,
    dense_rref,
    dense_solve,
    dense_span,
    dense_spin_up,
    dense_transpose,
    trial_divisors,
)

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def sparse_matrices(draw, values=fractions_st):
    """Mostly-zero matrices, often rank-deficient or tall, with zero rows mixed in."""
    cols = draw(st.integers(0, 8))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), values)
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


def equations(a: Matrix, b) -> list[dict[int, Fraction]]:
    """The sparse rows of a @ x = b, with the right-hand side under key a.cols."""
    rows = sparse_rows(a.data)
    for row, y in zip(rows, b):
        if y:
            row[a.cols] = Fraction(y)
    return rows


def test_solve_identity_returns_rhs():
    particular, ker = solve_rows(equations(Matrix.identity(3), [1, 2, 3]), 3)
    assert particular == (1, 2, 3)
    assert ker.is_zero()


def test_solve_inconsistent_returns_none():
    particular, ker = solve_rows(equations(Matrix.zeros(2, 2), [1, 0]), 2)
    assert particular is None
    assert ker.is_full()


def test_solve_hand_elimination():
    a = Matrix([[1, 1], [0, 2]])
    particular, _ = solve_rows(equations(a, [3, 4]), 2)
    assert particular == (1, 2)
    assert a.apply(particular) == (3, 4)


def test_solve_shape_mismatch():
    # the dense oracle, which the differential tests below trust, rejects [A | B] of unequal heights
    with pytest.raises(DimensionMismatch):
        dense_solve(Matrix.identity(2), Matrix([[1], [2], [3]]))


@settings(max_examples=60, deadline=None)
@given(small_matrix(3, 3), small_matrix(3, 2))
def test_solve_exactness(a, b):
    for y in (b.col(j) for j in range(b.cols)):
        x, _ = solve_rows(equations(a, y), a.cols)
        if x is not None:
            assert a.apply(x) == y
        expected = dense_solve(a, Matrix([[c] for c in y], cols=1))
        assert x == (None if expected is None else expected.col(0))


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
def test_solve_rows_matches_dense_solve_and_kernel(a, data):
    b = data.draw(st.lists(st.one_of(st.just(Fraction(0)), fractions_st), min_size=a.rows, max_size=a.rows))
    particular, ker = solve_rows(equations(a, b), a.cols)
    expected = dense_solve(a, Matrix([[y] for y in b], cols=1))
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


@st.composite
def subspace_pairs(draw, values=fractions_st):
    """Two subspaces of one Q^n; v also takes combinations of u's rows, so they often meet."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(Fraction(0)), values)
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4)
    a, b = draw(rows), draw(rows)
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(a), max_size=len(a)), max_size=2))
    b += [[sum((c * r[j] for c, r in zip(combo, a)), Fraction(0)) for j in range(n)] for combo in combos]
    return Subspace(n, Matrix(a, cols=n)), Subspace(n, Matrix(b, cols=n))


@settings(max_examples=200, deadline=None)
@given(subspace_pairs())
@example((Subspace.zero(3), Subspace.full(3)))
@example((Subspace.full(3), Subspace.full(3)))
@example((Subspace.zero(0), Subspace.zero(0)))
@example((Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 1]]), Subspace.from_vectors(3, [[1, 2, 1]])))
def test_intersect_matches_dense_zassenhaus(pair):
    u, v = pair
    for a, b in ((u, v), (v, u), (u, u), (v, v)):
        w = a.intersect(b)
        assert (w.basis.data, w.pivots) == dense_intersection(a, b)


def _rebuilt(s: Subspace) -> list[Subspace]:
    """s again, from its basis vectors, as a ``solve_rows`` kernel, by ``spin_up`` and by ``intersect``."""
    n = s.ambient_dim
    perp = kernel(s.basis)
    return [
        Subspace.from_vectors(n, s.vectors()),
        solve_rows(sparse_rows(perp.vectors()), n)[1],
        spin_up([[{i: Fraction(1)} for i in range(n)]], s),
        s.intersect(Subspace.full(n)),
        Subspace.full(n).intersect(s),
    ]


@settings(max_examples=200, deadline=None)
@given(subspace_pairs())
@example((Subspace.zero(3), Subspace.full(3)))
@example((Subspace.from_vectors(3, [[Fraction(1, 2), 1, 0]]), Subspace.from_vectors(3, [[-3, -6, 0]])))
def test_subspace_equality_is_basis_equality_by_every_route(pair):
    u, v = pair
    n = u.ambient_dim
    spaces = [u, v, u.sum(v), u.intersect(v), u.complement(), v.complement(), Subspace.full(n), Subspace.zero(n)]
    for s in spaces:
        basis = s.basis
        assert basis.shape == (s.dim, n) and list(s.pivots) == sorted(set(s.pivots))
        for r, (row, p) in enumerate(zip(basis.data, s.pivots)):
            assert row[p] == 1 and not any(row[:p])
            assert all(other[p] == 0 for k, other in enumerate(basis.data) if k != r)
        for t in _rebuilt(s):
            assert t == s and hash(t) == hash(s) and t.basis == basis
    for s in spaces:
        for t in spaces:
            assert (s == t) == (s.basis == t.basis)
            if s == t:
                assert hash(s) == hash(t)


def test_contains_and_complement():
    u = Subspace.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    w = u.complement()
    assert u.sum(w) == Subspace.full(4)
    assert u.intersect(w).is_zero()
    assert u.contains(Subspace.from_vectors(4, [[1, 1, 1, 0]]))
    assert not u.contains(Subspace.full(4))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example(Matrix.zeros(0, 4))
@example(Matrix.zeros(0, 0))
@example(Matrix.zeros(3, 4))
@example(Matrix.identity(3))
def test_complement_matches_greedy_oracle(a):
    u = Subspace(a.cols, a)
    w = u.complement()
    assert (w.basis.data, w.pivots) == dense_complement(u)
    assert u.sum(w).is_full() and u.intersect(w).is_zero()


@st.composite
def spin_cases(draw, values=fractions_st):
    """Mostly-zero square generators, so that proper invariant subspaces are common, and a seed."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), values)
    rows = st.lists(entry, min_size=n, max_size=n)
    gens = draw(st.lists(st.lists(rows, min_size=n, max_size=n).map(lambda d: Matrix(d, cols=n)), max_size=3))
    seed_entry = st.one_of(st.just(Fraction(0)), values)
    seed_rows = st.lists(st.lists(seed_entry, min_size=n, max_size=n), min_size=1, max_size=3)
    seed = Subspace(n, Matrix(draw(seed_rows), cols=n))
    return gens, seed


@settings(max_examples=200, deadline=None)
@given(spin_cases())
def test_spin_up_matches_round_based_oracle(case):
    gens, seed = case
    s = spin_up(columns(gens), seed)
    assert (s.basis.data, s.pivots) == dense_spin_up(gens, seed)
    assert s.contains(seed)
    assert all(s.contains_vector(m.apply(v)) for m in gens for v in s.vectors())


def columns(gens):
    """Each matrix as the sparse columns that ``spin_up`` takes."""
    return [sparse_rows(zip(*m.data)) for m in gens]


SHIFT = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])  # e_i -> e_(i-1), e_0 -> 0


def _spin_edge_cases():
    e = [Subspace.from_vectors(4, [row]) for row in Matrix.identity(4).data]
    return [
        ([SHIFT], Subspace.zero(4)),  # zero seed
        ([], e[2]),  # no generators
        ([SHIFT], Subspace.full(4)),  # full space
        ([], Subspace.zero(0)),  # dimension 0
        ([Matrix.zeros(0, 0)], Subspace.zero(0)),
        ([SHIFT], e[0]),  # invariant already
        ([SHIFT], e[2]),  # proper closure
        ([SHIFT], e[3]),  # full closure
        ([SHIFT, SHIFT.transpose()], e[1]),
    ]


def test_spin_up_edge_cases():
    for gens, seed in _spin_edge_cases():
        s = spin_up(columns(gens), seed)
        assert (s.basis.data, s.pivots) == dense_spin_up(gens, seed)
    shift = columns([SHIFT])
    assert spin_up(shift, Subspace.zero(4)) == Subspace.zero(4)
    assert spin_up(shift, Subspace.from_vectors(4, [[0, 0, 1, 0]])) == Subspace.from_vectors(
        4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    )
    assert spin_up(shift, Subspace.from_vectors(4, [[1, 2, 3, 4]])).is_full()


# a 4 x 3 matrix: as columns, its nonzero row 3 is a key outside 0..2
TALL = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])


def test_spin_up_rejects_a_non_square_generator():
    seed = Subspace.from_vectors(3, [[1, 0, 0]])
    for bad in (Matrix.zeros(3, 2), TALL, Matrix.identity(4)):
        with pytest.raises(DimensionMismatch):
            spin_up(columns([Matrix.identity(3), bad]), seed)
    for bad in (Matrix.zeros(3, 2), Matrix.zeros(2, 3), Matrix.identity(4)):
        with pytest.raises(DimensionMismatch):
            dense_spin_up([Matrix.identity(3), bad], seed)


def test_spin_up_checks_its_generators_before_a_zero_seed():
    for bad in (Matrix.zeros(3, 2), TALL, Matrix.identity(4)):
        with pytest.raises(DimensionMismatch):
            spin_up(columns([bad]), Subspace.zero(3))
    with pytest.raises(DimensionMismatch):
        spin_up([[{0: Fraction(1)}]], Subspace.zero(0))


def two_planes():
    """Two planes of Q^4 that meet in a line; neither basis is made of unit vectors."""
    return (
        Subspace.from_vectors(4, [[1, 2, 0, 3], [0, 1, 1, 1]]),
        Subspace.from_vectors(4, [[1, 3, 1, 4], [2, 0, 1, 0]]),
    )


def test_spin_up_and_complement_skip_subspace_reduction(monkeypatch):
    """spin_up, complement, sum and intersect reduce sparse rows, never a dense basis."""
    cases = _spin_edge_cases()
    spun = [dense_spin_up(gens, seed) for gens, seed in cases]
    complements = [dense_complement(seed) for _, seed in cases]
    seeds = [seed for _, seed in cases] + list(two_planes())
    pairs = [(u, v) for u in seeds for v in seeds if u.ambient_dim == v.ambient_dim]
    sums = [dense_span(u.vectors() + v.vectors(), u.ambient_dim) for u, v in pairs]
    meets = [dense_intersection(u, v) for u, v in pairs]

    def forbidden(*args, **kwargs):
        raise AssertionError("Subspace.__init__ or Matrix.rref called")

    monkeypatch.setattr(Subspace, "__init__", forbidden)
    monkeypatch.setattr(Matrix, "rref", forbidden)
    got_spun = [spin_up(columns(gens), seed) for gens, seed in cases]
    got_complements = [seed.complement() for _, seed in cases]
    got_sums = [u.sum(v) for u, v in pairs]
    got_meets = [u.intersect(v) for u, v in pairs]
    assert [(s.basis.data, s.pivots) for s in got_spun] == spun
    assert [(s.basis.data, s.pivots) for s in got_complements] == complements
    assert [(s.basis.data, s.pivots) for s in got_sums] == sums
    assert [(s.basis.data, s.pivots) for s in got_meets] == meets


def test_subspace_operations_leave_their_operands_unchanged():
    # spin_up, complement, sum and intersect start from the operands' own sparse rows;
    # the elimination writes the rows it reduces and back-substitutes into
    a, b = two_planes()
    probes = [list(r) for r in Matrix.identity(4).data] + [[1, 2, 0, 3], [1, 3, 1, 4], [2, 5, 1, 7]]
    answers = [[s.contains_vector(p) for p in probes] for s in (a, b)]
    # e_2 -> e_2: the spin-up of either plane is proper and back-substitutes into its rows
    project = columns([Matrix.diagonal([0, 0, 1, 0])])

    def operations():
        return [
            spin_up(project, a), spin_up(project, b), a.complement(), b.complement(),
            a.sum(b), b.sum(a), a.intersect(b), b.intersect(a),
        ]

    first = operations()
    assert [[s.contains_vector(p) for p in probes] for s in (a, b)] == answers
    for s in (a, b):
        assert s == Subspace(4, s.basis) and s.pivots == Subspace(4, s.basis).pivots
    assert operations() == first


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
def test_coords_of_agrees_with_dense_solve(a, coeffs, other):
    w = Subspace.from_vectors(5, a.data)
    inside = tuple(sum((c * row[k] for c, row in zip(coeffs, a.data)), Fraction(0)) for k in range(5))
    for v in (inside, tuple(other)):
        coords = w.coords_of(v)
        if not w.contains_vector(v):
            assert coords is None
            continue
        if w.dim:
            assert coords == dense_solve(w.basis.transpose(), Matrix([[x] for x in v])).col(0)
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


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 97, 10007)
PRIMES_NEAR_10_6 = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.integers(-(10**7), 10**7),
        st.builds(pow, st.sampled_from(SMALL_PRIMES), st.integers(0, 12)).filter(lambda n: n < 10**13),
        st.builds(lambda p, q: p * q, st.sampled_from(PRIMES_NEAR_10_6), st.sampled_from(PRIMES_NEAR_10_6)),
    )
)
@example(0)
@example(1)
@example(2**40)
@example(999983 * 1000003)
def test_positive_divisors_match_trial_division(n):
    assert _positive_divisors(n) == trial_divisors(n)


def test_rational_eigenpairs_with_large_prime_eigenvalues():
    for primes in ((10007, 10009, 10037), (100003, 100019, 100043)):
        pairs = rational_eigenpairs(Matrix.diagonal(primes))
        assert [lam for lam, _ in pairs] == list(primes)
        assert [eig for _, eig in pairs] == [Subspace.from_vectors(3, [row]) for row in Matrix.identity(3).data]


def test_rational_eigenpairs_form_no_dense_product_or_identity(monkeypatch):
    alpha = sl_n_transpose(3).alpha
    calls = []
    matmul, identity = Matrix.__matmul__, Matrix.identity

    def counted_matmul(self, other):
        calls.append("matmul")
        return matmul(self, other)

    def counted_identity(cls, n):
        calls.append("identity")
        return identity(n)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(Matrix, "identity", classmethod(counted_identity))
    assert rational_eigenpairs(alpha)
    assert calls == []


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


@st.composite
def square_matrices(draw, values=fractions_st):
    """Square matrices up to 6 x 6: dense, mostly zero, nilpotent or rank-deficient."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("dense", "sparse", "nilpotent", "rank_deficient")))
    entry = values if kind == "dense" else st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), values)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "nilpotent":
        # strictly upper triangular after relabelling the basis by p
        p = draw(st.permutations(range(n)))
        rows = [[rows[i][j] if p[i] < p[j] else Fraction(0) for j in range(n)] for i in range(n)]
    elif kind == "rank_deficient" and n:
        # fewer than n independent rows, the rest their combinations
        base = rows[: draw(st.integers(0, n - 1))]
        coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
        combos = draw(st.lists(coeffs, min_size=n - len(base), max_size=n - len(base)))
        combined = [[sum((c * r[j] for c, r in zip(combo, base)), Fraction(0)) for j in range(n)] for combo in combos]
        rows = draw(st.permutations(base + combined))
    return Matrix(rows, cols=n)


def _sympy_matrix(a):
    return sympy.Matrix(a.rows, a.cols, [_rational(x) for row in a.data for x in row])


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@example(Matrix.zeros(0, 0))
@example(Matrix([[Fraction(-7, 3)]]))
@example(Matrix.identity(5))
def test_charpoly_matches_dense_oracle_and_sympy(a):
    ours = a.charpoly()
    assert ours == dense_charpoly(a)
    assert [_rational(c) for c in ours] == _sympy_matrix(a).charpoly().all_coeffs()


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
def test_eigenspace_matches_dense_kernel(m, data):
    roots = rational_roots(m.charpoly())
    if roots and data.draw(st.booleans(), label="at a root"):
        lam = data.draw(st.sampled_from(roots), label="root")
    else:
        lam = data.draw(fractions_st.filter(lambda x: x not in roots), label="not a root")
    rows = sparse_rows(m.data)
    space = eigenspace(rows, lam)
    assert rows == sparse_rows(m.data)
    assert (space.basis.data, space.pivots) == dense_kernel(m - Matrix.identity(m.rows).scale(lam))
    assert space.is_zero() == (lam not in roots)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@example(Matrix.zeros(0, 0))
@example(Matrix.identity(15))
@example(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
@example(Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
def test_is_nilpotent_matrix_matches_sympy_and_dense_charpoly(a):
    nilpotent = is_nilpotent_matrix(a)
    assert nilpotent == _sympy_matrix(a).is_nilpotent()
    assert nilpotent == (dense_charpoly(a) == (1,) + (0,) * a.rows)


@st.composite
def product_pairs(draw):
    """a and b with a.cols == b.rows: a mostly zero, tall or rank-deficient; b dense or mostly zero."""
    a = draw(sparse_matrices())
    cols = draw(st.integers(0, 6))
    entry = fractions_st if draw(st.booleans()) else st.one_of(st.just(Fraction(0)), fractions_st)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=a.cols, max_size=a.cols))
    return a, Matrix(rows, cols=cols)


@settings(max_examples=150, deadline=None)
@given(product_pairs())
@example((Matrix.zeros(0, 3), Matrix.identity(3)))
@example((Matrix.zeros(3, 0), Matrix.zeros(0, 4)))
@example((Matrix.zeros(0, 0), Matrix.zeros(0, 0)))
@example((sl_n_transpose(2).alpha, sl_n_transpose(2).gram))
def test_matmul_matches_dense_oracle_and_sympy(pair):
    a, b = pair
    ours = a @ b
    assert ours == dense_matmul(a, b)
    assert ours.shape == (a.rows, b.cols)
    assert _sympy_matrix(ours) == _sympy_matrix(a) * _sympy_matrix(b)


@settings(max_examples=100, deadline=None)
@given(square_matrices(), st.integers(0, 7))
@example(Matrix.zeros(0, 0), 0)
@example(Matrix.zeros(0, 0), 3)
@example(Matrix.identity(5), 7)
@example(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 2)
def test_power_matches_dense_oracle_and_sympy(a, k):
    ours = a.power(k)
    assert ours == dense_power(a, k)
    assert _sympy_matrix(ours) == _sympy_matrix(a) ** k


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
@example(Matrix.zeros(0, 4))
@example(Matrix.zeros(3, 0))
@example(Matrix.zeros(0, 0))
@example(Matrix.identity(4))
def test_rank_matches_dense_oracle_and_sympy(a):
    assert a.rank() == len(dense_rref(a)[1]) == _sympy_matrix(a).rank()


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@example(Matrix.zeros(0, 0))
@example(Matrix.zeros(3, 3))
@example(Matrix([[1, 2], [2, 4]]))
@example(Matrix([[0, 1], [1, 0]]))
def test_inverse_matches_dense_oracle_and_sympy(a):
    ours = a.inverse()
    assert ours == dense_inverse(a)
    sym = _sympy_matrix(a)
    if sym.det() == 0:
        assert ours is None
    else:
        assert ours.shape == a.shape
        assert _sympy_matrix(ours) == sym.inv()


def test_inverse_and_power_reject_bad_input():
    with pytest.raises(NotSquare):
        Matrix.zeros(2, 3).inverse()
    with pytest.raises(ValueError):
        Matrix.identity(2).power(-1)


def test_products_powers_and_eliminations_build_no_dense_rows(monkeypatch):
    # upper triangular with a nonzero diagonal, so invertible, times a full matrix
    a = Matrix([[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 3) if j > i else i + 1 if j == i else 0
                 for j in range(10)] for i in range(10)])
    c = Matrix([[(i * j + 2 * i + 1) % 5 - 2 for j in range(10)] for i in range(10)])
    expected = [dense_matmul(a, c), dense_transpose(a), dense_charpoly(a), dense_inverse(a),
                len(dense_rref(a)[1]), dense_power(a, 5)]

    def no_dense_row(row, n):
        raise AssertionError("dense row built")

    monkeypatch.setattr(exactlin, "dense_row", no_dense_row)
    got = [a @ c, a.transpose(), a.charpoly(), a.inverse(), a.rank(), a.power(5)]
    monkeypatch.undo()
    assert got == expected
    assert got[3] is not None


def test_power_rank_and_inverse_build_no_identity_and_no_dense_rref(monkeypatch):
    a = sl_n_transpose(3).alpha
    singular = Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    expected = [dense_power(a, k) for k in range(1, 8)], a.rank(), dense_inverse(a), 2

    def forbidden(*args):
        raise AssertionError("identity matrix or dense rref")

    monkeypatch.setattr(Matrix, "identity", classmethod(forbidden))
    monkeypatch.setattr(Matrix, "rref", forbidden)
    assert ([a.power(k) for k in range(1, 8)], a.rank(), a.inverse(), singular.rank()) == expected
    assert singular.inverse() is None


def test_is_nilpotent_matrix_of_the_identity_makes_six_products(monkeypatch):
    calls = []
    matmul = Matrix.__matmul__

    def counted_matmul(self, other):
        calls.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    assert not is_nilpotent_matrix(Matrix.identity(15))
    assert len(calls) == 6


def test_zero_row_matrices_keep_their_width():
    z03 = Matrix.zeros(0, 3)
    assert Matrix.zeros(3, 0).transpose().shape == (0, 3)
    assert (z03 @ Matrix.identity(3)).shape == (0, 3)
    assert z03.scale(2).shape == (0, 3)
    assert (z03 + z03).shape == (z03 - z03).shape == (-z03).shape == (0, 3)
    assert Matrix.from_cols([[], [], []]).shape == (0, 3)
    assert Matrix.block_diagonal([z03]).shape == (0, 3)
    assert kernel(Matrix.zeros(3, 0).transpose()) == Subspace.full(3)
    assert z03 == Matrix([], cols=3)
    assert z03 != Matrix.zeros(0, 5)
    assert Matrix.zeros(0, 0) != z03


# -- the elimination kernel on primitive integer rows ---------------------------
#
# ``_reduce`` keeps each RREF row as the primitive integer row with a positive
# pivot entry that is a multiple of it.  These tests feed it integers, small
# rationals, and integers and rationals of 30 digits or more, and compare every
# reader of its rows with the dense oracles and sympy.  RREF is unique, so
# bases must be equal exactly.

BIG = 10**30
wide_st = st.one_of(
    st.integers(-9, 9).filter(bool).map(Fraction),
    fractions_st.filter(bool),
    st.integers(BIG, 10**40).map(Fraction),
    st.integers(-(10**40), -BIG).map(Fraction),
    st.builds(Fraction, st.integers(-(10**40), 10**40).filter(bool), st.integers(BIG, 10**35)),
)


def _sympy_rref_rows(rows, n):
    """The nonzero rows of sympy's RREF of the span of rows in Q^n, as Fraction tuples."""
    if not rows:
        return ()
    ref, pivots = sympy.Matrix(len(rows), n, [x for r in rows for x in r]).rref()
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in ref.row(i)) for i in range(len(pivots)))


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(wide_st))
@example(Matrix.zeros(0, 3))
@example(Matrix.zeros(2, 3))
@example(Matrix([[BIG, 1], [BIG + 1, 1]]))
@example(Matrix([[Fraction(1, BIG), Fraction(2, 3)], [Fraction(2, BIG), Fraction(4, 3)]]))
def test_reduce_gives_primitive_integer_multiples_of_the_rref_rows(a):
    rows = sparse_rows(a.data)
    reduced, pivots = exactlin._reduce(rows)
    assert rows == sparse_rows(a.data)
    red, dense_pivots = dense_rref(a)
    assert pivots == dense_pivots
    for row, p, want in zip(reduced, pivots, red.data):
        assert all(type(x) is int for x in row.values())
        assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
        assert tuple(Fraction(row.get(j, 0), row[p]) for j in range(a.cols)) == want
    assert red.data[: len(pivots)] == _sympy_rref_rows(
        [[_rational(x) for x in r] for r in a.data], a.cols
    )


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(wide_st), st.data())
def test_solve_rows_and_kernel_match_the_oracles_on_wide_entries(a, data):
    entry = st.one_of(st.just(Fraction(0)), wide_st)
    b = data.draw(st.lists(entry, min_size=a.rows, max_size=a.rows), label="b")
    particular, ker = solve_rows(equations(a, b), a.cols)
    expected = dense_solve(a, Matrix([[y] for y in b], cols=1))
    assert particular == (None if expected is None else expected.col(0))
    assert (ker.basis.data, ker.pivots) == dense_kernel(a) == (kernel(a).basis.data, kernel(a).pivots)
    sym = _sympy_matrix(a)
    augmented = sym.row_join(sympy.Matrix(a.rows, 1, [_rational(y) for y in b]))
    assert (particular is None) == (sym.rank() != augmented.rank())
    null = [list(v) for v in sym.nullspace()] if a.cols else []
    assert ker.basis.data == _sympy_rref_rows(null, a.cols)


@settings(max_examples=150, deadline=None)
@given(subspace_pairs(wide_st), st.lists(wide_st, max_size=6))
@example((Subspace.zero(2), Subspace.full(2)), [])
@example((Subspace.from_vectors(2, [[BIG, 1]]), Subspace.from_vectors(2, [[1, Fraction(1, BIG)]])), [7, 7])
def test_subspace_operations_match_the_oracles_on_wide_entries(pair, probe):
    u, v = pair
    n = u.ambient_dim
    probe = (probe + [Fraction(0)] * n)[:n]
    for a, b in ((u, v), (v, u)):
        joint = dense_span(a.vectors() + b.vectors(), n)
        s, w, c = a.sum(b), a.intersect(b), a.complement()
        assert (s.basis.data, s.pivots) == joint
        assert s.basis.data == _sympy_rref_rows([[_rational(x) for x in r] for r in a.vectors() + b.vectors()], n)
        assert (w.basis.data, w.pivots) == dense_intersection(a, b)
        assert (c.basis.data, c.pivots) == dense_complement(a)
        assert a.contains(b) == (len(joint[1]) == a.dim)
        for x in b.vectors() + (tuple(probe),):
            assert a.contains_vector(x) == (len(dense_span(a.vectors() + (x,), n)[1]) == a.dim)


@settings(max_examples=100, deadline=None)
@given(square_matrices(wide_st))
@example(Matrix([[BIG, BIG + 1], [BIG - 1, BIG]]))
@example(Matrix([[Fraction(1, BIG), 1], [1, BIG]]))
def test_rank_and_inverse_match_the_oracles_on_wide_entries(a):
    sym = _sympy_matrix(a)
    assert a.rank() == len(dense_rref(a)[1]) == sym.rank()
    inverse = a.inverse()
    assert inverse == dense_inverse(a)
    assert (inverse is None) == (sym.det() == 0)
    if inverse is not None:
        assert _sympy_matrix(inverse) == sym.inv()


@settings(max_examples=100, deadline=None)
@given(square_matrices(wide_st), st.one_of(st.just(Fraction(0)), wide_st))
def test_eigenspace_matches_the_oracles_on_wide_entries(r, lam):
    # m = r + lam I has the eigenspace ker(r) at lam; r is often singular
    m = r + Matrix.identity(r.rows).scale(lam)
    space = eigenspace(sparse_rows(m.data), lam)
    assert (space.basis.data, space.pivots) == dense_kernel(r)
    null = [list(v) for v in _sympy_matrix(r).nullspace()] if r.rows else []
    assert space.basis.data == _sympy_rref_rows(null, r.rows)


@settings(max_examples=100, deadline=None)
@given(spin_cases(wide_st))
def test_spin_up_matches_the_round_based_oracle_on_wide_entries(case):
    gens, seed = case
    s = spin_up(columns(gens), seed)
    assert (s.basis.data, s.pivots) == dense_spin_up(gens, seed)


def test_solve_rows_and_contains_do_no_fraction_arithmetic(monkeypatch):
    third, half = Fraction(1, 3), Fraction(1, 2)
    rows = [
        {0: half, 1: Fraction(-2, 3), 3: Fraction(5, 7), 4: third},
        {1: Fraction(3, 4), 2: third, 4: Fraction(-1, 5)},
        {0: Fraction(1, 6), 1: Fraction(5, 12), 2: Fraction(1, 3), 3: Fraction(5, 14), 4: Fraction(-1, 30)},
    ]
    a = Matrix([[r.get(j, 0) for j in range(4)] for r in rows])
    b = [r.get(4, 0) for r in rows]
    expected = dense_solve(a, Matrix([[y] for y in b])).col(0), dense_kernel(a)
    u = Subspace.from_vectors(4, a.data)
    inside = Subspace.from_vectors(4, [[x - 2 * y + 3 * z for x, y, z in zip(*a.data)], a.data[1]])
    pairs = [(u, inside), (inside, u), (u, Subspace.full(4))]
    contains = [len(dense_span(x.vectors() + y.vectors(), 4)[1]) == x.dim for x, y in pairs]
    calls = Counter()
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__"):

        def counted(self, other, op=getattr(Fraction, name), name=name):
            calls[name] += 1
            return op(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    particular, ker = solve_rows(rows, 4)
    contained = [x.contains(y) for x, y in pairs]
    monkeypatch.undo()
    assert calls == Counter()
    assert (particular, (ker.basis.data, ker.pivots)) == expected
    assert contained == contains == [True, u.dim == inside.dim, False]


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_rows([{-1: 1}], 2),
        lambda: solve_rows([{-3: 1}, {0: 1, 1: 1}], 2),
        lambda: solve_rows([{5: 1}], 2),
        lambda: eigenspace([{-1: 1}, {}], 0),
        lambda: eigenspace([{1: 1}], 0),
    ],
    ids=["solve-negative", "solve-negative-first", "solve-past-rhs", "eigenspace-negative", "eigenspace-rhs-column"],
)
def test_solve_rows_and_eigenspace_reject_out_of_range_columns(call):
    with pytest.raises(DimensionMismatch):
        call()


def test_charpoly_does_no_fraction_arithmetic(monkeypatch):
    a = Matrix([
        [Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7)],
        [3, Fraction(1, 6), Fraction(-1, 4), 0],
        [0, 2, Fraction(-7, 3), Fraction(1, 5)],
        [Fraction(1, 3), 0, 1, -4],
    ])
    expected = dense_charpoly(a)
    calls = Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__neg__"):

        def counted(self, *other, op=getattr(Fraction, name), name=name):
            calls[name] += 1
            return op(self, *other)

        monkeypatch.setattr(Fraction, name, counted)
    ours = a.charpoly()
    monkeypatch.undo()
    assert calls == Counter()
    assert ours == expected and all(type(c) is Fraction for c in ours)


def test_results_on_integer_input_are_fractions():
    # the sparse sums start from the int 0, so integer input must still come out as Fractions
    g = HomAlgebra(3, {(0, 1): [0, 0, 1], (1, 2): [2, 0, 0]}, Matrix.identity(3))
    a = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
    pairs = rational_eigenpairs(a)
    values = [
        *g.bracket_vec([1, 2, 0], [0, 1, 3]),
        *a.charpoly(),
        *(lam for lam, _ in pairs),
        *(x for _, e in pairs for row in e.basis.data for x in row),
        *(x for row in Subspace.from_vectors(3, [[2, 4, 0], [0, 3, 3]]).basis.data for x in row),
    ]
    assert [lam for lam, _ in pairs] == [-1, 2]
    assert all(type(x) is Fraction for x in values)
