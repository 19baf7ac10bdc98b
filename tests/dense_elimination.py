"""Dense Gauss-Jordan elimination, kept as the oracle for the sparse kernel.

This is the elimination ``Matrix.rref`` used before ``homlie.exactlin`` moved
to sparse rows, together with the kernel and the dense centroid system built
on it.  RREF is unique, so the library must agree with it exactly.
"""

from fractions import Fraction

from homlie.exactlin import Matrix

_ZERO = Fraction(0)
_ONE = Fraction(1)


def dense_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns, by dense row operations."""
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(rows, cols=nc), tuple(pivots)


def dense_kernel(a: Matrix) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """RREF basis rows and pivots of the right kernel of a."""
    red, pivots = dense_rref(a)
    n = a.cols
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [_ZERO] * n
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -red.data[r][f]
        basis.append(v)
    if not basis:
        return (), ()
    red, kpivots = dense_rref(Matrix(basis))
    return red.data[: len(kpivots)], kpivots


def dense_centroid(g) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """The centroid's RREF basis from the dense n^3 x n^2 system."""
    n = g.dim
    ads = g.ad_matrices()
    rows = []
    for i in range(n):
        for r in range(n):
            for s in range(n):
                row = [_ZERO] * (n * n)
                for m in range(n):
                    row[r * n + m] += ads[i][m, s]
                for k in range(n):
                    row[k * n + i] -= ads[k][r, s]
                rows.append(row)
    return dense_kernel(Matrix(rows, cols=n * n))
