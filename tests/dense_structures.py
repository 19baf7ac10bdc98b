"""Dense structure builders, kept as the oracle for the sparse ones in homlie.

These are the constructions ``homlie.catalog`` and ``homlie.build`` ran
before they worked from nonzero entries only: sl_n from dense n x n basis
matrices (commutators, tr(xy) and -x^T as full matrix products, read back
into coordinates), and the current algebra g (x) A from the full dim^3
product tensor with id (x) theta as a dense Kronecker product.  Nothing here
calls the code under test.
"""

from fractions import Fraction

from homlie.exactlin import Matrix

_ZERO = Fraction(0)
_ONE = Fraction(1)


def dense_sln_basis(n: int) -> list[list[list[Fraction]]]:
    """E_ij (i != j, row major) then H_k = E_kk - E_(k+1)(k+1), as dense matrices."""
    mats = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = [[_ZERO] * n for _ in range(n)]
            m[i][j] = _ONE
            mats.append(m)
    for k in range(n - 1):
        m = [[_ZERO] * n for _ in range(n)]
        m[k][k] = _ONE
        m[k + 1][k + 1] = -_ONE
        mats.append(m)
    return mats


def dense_sln_coords(n: int, m: list[list[Fraction]]) -> list[Fraction]:
    """Coordinates of a traceless dense matrix in ``dense_sln_basis(n)``."""
    coords = []
    for i in range(n):
        for j in range(n):
            if i != j:
                coords.append(m[i][j])
    partial = _ZERO
    for k in range(n - 1):
        partial += m[k][k]
        coords.append(partial)
    return coords


def dense_sl_n_bracket(n: int) -> dict:
    """{(p, q): coordinates of [b_p, b_q]} over the pairs p < q with a nonzero bracket."""
    basis = dense_sln_basis(n)
    dim = len(basis)
    bracket = {}
    for p, a in enumerate(basis):
        for q in range(p + 1, dim):
            b = basis[q]
            comm = [
                [
                    sum((a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(n)), _ZERO)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            coords = tuple(dense_sln_coords(n, comm))
            if any(coords):
                bracket[(p, q)] = coords
    return bracket


def dense_sl_n_killing(n: int) -> Matrix:
    """Gram matrix of K(x, y) = 2n tr(xy) on the basis."""
    basis = dense_sln_basis(n)
    dim = len(basis)
    return Matrix(
        [
            [
                2
                * n
                * sum(
                    (basis[a][i][t] * basis[b][t][i] for i in range(n) for t in range(n)),
                    _ZERO,
                )
                for b in range(dim)
            ]
            for a in range(dim)
        ]
    )


def dense_sl_n_neg_transpose(n: int) -> Matrix:
    """Matrix of x -> -x^T on the basis."""
    cols = []
    for m in dense_sln_basis(n):
        neg_t = [[-m[j][i] for j in range(n)] for i in range(n)]
        cols.append(dense_sln_coords(n, neg_t))
    return Matrix.from_cols(cols)


def dense_kronecker(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: block (i, j) is a[i, j] * b."""
    out = [[_ZERO] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for r in range(b.rows):
                for s in range(b.cols):
                    out[i * b.rows + r][j * b.cols + s] = a[i, j] * b[r, s]
    return Matrix(out)


def dense_tensor_current(g, a, theta) -> tuple[dict, Matrix]:
    """The nonzero brackets i < j of g (x) A, from the full product tensor, and id (x) theta.

    Basis index i * m + r stands for x_i (x) a_r; the product tensor is read
    from ``a.product`` alone, one entry (r, s) at a time.
    """
    m, n = a.dim, g.dim
    mu = [[a.product.get((r, s), (_ZERO,) * m) for s in range(m)] for r in range(m)]
    bracket = {}
    for i in range(n):
        for j in range(i + 1, n):
            cg = g.basis_bracket(i, j)
            for r in range(m):
                for s in range(m):
                    v = tuple(c * p for c in cg for p in mu[r][s])
                    if any(v):
                        bracket[(i * m + r, j * m + s)] = v
    return bracket, dense_kronecker(Matrix.identity(n), theta)
