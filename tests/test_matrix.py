"""``Matrix`` stores only its sparse rows: checks against the dense code it replaced.

Every operation must agree with the dense oracles in ``dense_elimination``,
equality and hashing must follow the dense rows, no zero entry may ever be
stored, and the kernels, which now read a matrix's own rows, must leave them
as they found them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.errors import DimensionMismatch
from homlie.exactlin import (
    Matrix,
    Subspace,
    eigenspace,
    kernel,
    rational_eigenpairs,
    solve_rows,
    spin_up,
)

from dense_elimination import (
    dense_add,
    dense_block_diagonal,
    dense_charpoly,
    dense_diagonal,
    dense_from_cols,
    dense_inverse,
    dense_matmul,
    dense_power,
    dense_rref,
    dense_scale,
    dense_sub,
    dense_transpose,
)

entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=3))
sizes = st.integers(0, 5)


@st.composite
def matrices(draw, rows=sizes, cols=sizes):
    """Mostly-zero rational matrices; 0-row and 0-column shapes included."""
    n, m = draw(rows), draw(cols)
    return Matrix(draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)), cols=m)


def stores_no_zero(m: Matrix) -> bool:
    """Every stored entry is a nonzero Fraction inside the shape."""
    return len(m.row_dicts) == m.rows and all(
        type(x) is Fraction and x != 0 and 0 <= c < m.cols for row in m.row_dicts for c, x in row.items()
    )


@st.composite
def matrix_pairs(draw):
    """Two matrices, often equal or one entry apart."""
    a = draw(matrices())
    how = draw(st.sampled_from(["rebuilt", "sparse", "one entry", "same shape", "any"]))
    if how == "rebuilt":
        return a, Matrix(a.data, cols=a.cols)
    if how == "sparse":
        return a, Matrix.from_row_dicts(a.row_dicts, a.cols)
    if how == "one entry" and a.rows and a.cols:
        data = [list(r) for r in a.data]
        i, j = draw(st.integers(0, a.rows - 1)), draw(st.integers(0, a.cols - 1))
        data[i][j] = draw(entries)
        return a, Matrix(data, cols=a.cols)
    if how == "same shape":
        return a, draw(matrices(st.just(a.rows), st.just(a.cols)))
    return a, draw(matrices())


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_equality_and_hash_follow_the_dense_rows(pair):
    a, b = pair
    assert (a == b) == (a.shape == b.shape and a.data == b.data)
    if a == b:
        assert hash(a) == hash(b)
    assert stores_no_zero(a) and stores_no_zero(b)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_operations_match_the_dense_oracles_and_store_no_zero(data):
    n, m, k = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(matrices(st.just(n), st.just(m))), data.draw(matrices(st.just(n), st.just(m)))
    c = data.draw(matrices(st.just(m), st.just(k)))
    sq = data.draw(matrices(st.just(k), st.just(k)))
    x, power = data.draw(entries), data.draw(st.integers(0, 4))
    diag = data.draw(st.lists(entries, max_size=5))
    pairs = {
        "+": (a + b, dense_add(a, b)),
        "-": (a - b, dense_sub(a, b)),
        "neg": (-a, dense_scale(a, -1)),
        "@": (a @ c, dense_matmul(a, c)),
        "scale": (a.scale(x), dense_scale(a, x)),
        "transpose": (a.transpose(), dense_transpose(a)),
        "power": (sq.power(power), dense_power(sq, power)),
        "inverse": (sq.inverse(), dense_inverse(sq)),
        "rref": (a.rref()[0], dense_rref(a)[0]),
        "block_diagonal": (Matrix.block_diagonal([a, c, sq]), dense_block_diagonal([a, c, sq])),
        "from_cols": (Matrix.from_cols(a.data), dense_from_cols(a.data)),
        "diagonal": (Matrix.diagonal(diag), dense_diagonal(diag)),
    }
    for name, (got, want) in pairs.items():
        if want is None:
            assert got is None, name
            continue
        assert got == want, name
        assert (got.shape, got.data) == (want.shape, want.data), name
        assert stores_no_zero(got), name
    assert a.rref()[1] == dense_rref(a)[1]
    assert a.rank() == len(dense_rref(a)[1])
    assert sq.charpoly() == dense_charpoly(sq)


def test_from_row_dicts_coerces_drops_zeros_and_checks_keys():
    m = Matrix.from_row_dicts([{0: 2, 2: "1/2"}, {1: 0}], 3)
    assert m.data == ((2, 0, Fraction(1, 2)), (0, 0, 0))
    assert m.row_dicts == ({0: 2, 2: Fraction(1, 2)}, {})
    assert stores_no_zero(m)
    for bad in ({3: 1}, {-1: 1}):
        with pytest.raises(DimensionMismatch):
            Matrix.from_row_dicts([bad], 3)


def test_cols_must_agree_with_the_rows():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]], cols=5)
    assert Matrix([[1, 2]], cols=2).shape == (1, 2)
    assert Matrix([], cols=5).shape == (0, 5)
    assert Matrix([]).shape == (0, 0)


@settings(max_examples=60, deadline=None)
@given(sizes.filter(bool).flatmap(lambda n: st.tuples(matrices(st.just(n), st.just(n)), st.lists(entries, min_size=n, max_size=n))))
def test_kernels_leave_the_matrix_rows_unchanged(case):
    m, v = case
    n = m.rows
    dense, rows = m.data, [dict(r) for r in m.row_dicts]
    kernel(m)
    solve_rows(m.row_dicts, n)
    # the rows of m are the sparse columns of its transpose
    spin_up([m.row_dicts, m.col_dicts()], Subspace.from_vectors(n, [v]))
    for lam in (0, 1, -1):
        eigenspace(m.row_dicts, Fraction(lam))
    rational_eigenpairs(m)
    Subspace(n, m)
    assert m.data == dense
    assert [dict(r) for r in m.row_dicts] == rows
