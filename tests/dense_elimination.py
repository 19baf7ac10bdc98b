"""Dense Gauss-Jordan elimination, kept as the oracle for the sparse kernel.

This is the elimination ``Matrix.rref`` used before ``homlie.exactlin`` moved
to sparse rows, together with what was built on it: the kernel, the dense
centroid system (over the ad matrices that ``dense_axioms.dense_ad_matrices``
reads off the public ``bracket`` mapping), the dense solver ``solve_linear``,
the round-based spin-up, the greedy complement and the Zassenhaus
intersection.  RREF is unique, so the library must agree with it exactly.
``dense_charpoly`` is the Faddeev-LeVerrier loop ``Matrix.charpoly`` ran on
dense products before it moved to sparse columns; ``dense_eigenpairs`` and
``dense_fitting`` build eigenspaces and the Fitting split on it and on
``dense_kernel``.
``trial_divisors`` is the divisor list the rational root search took by
trial division up to the square root of its input.
``dense_matmul``, ``dense_power`` and ``dense_inverse`` are the product over
all pairs of rows and columns, the power started from the identity and the
inverse read off the dense RREF of [A | I] that ``Matrix`` used before its
products, powers, ranks and inverses moved to sparse rows.  ``dot``,
``dense_add``, ``dense_sub``, ``dense_scale``, ``dense_transpose``,
``dense_block_diagonal``, ``dense_from_cols`` and ``dense_diagonal`` are the
entrywise code ``Matrix`` ran on its dense rows before it came to store only
its sparse rows.
"""

from fractions import Fraction

from homlie.errors import DimensionMismatch
from homlie.exactlin import Matrix, Subspace, rational_roots, unit_vec, vec, zero_vec

from dense_axioms import dense_ad_matrices

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


def dot(u, v) -> Fraction:
    """The dot product of two dense vectors, skipping zero products."""
    acc = _ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def dense_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.data, b.data)], cols=a.cols)


def dense_sub(a: Matrix, b: Matrix) -> Matrix:
    return Matrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.data, b.data)], cols=a.cols)


def dense_scale(a: Matrix, c) -> Matrix:
    return Matrix([[c * x for x in r] for r in a.data], cols=a.cols)


def dense_transpose(a: Matrix) -> Matrix:
    return Matrix([a.col(j) for j in range(a.cols)], cols=a.rows)


def dense_block_diagonal(blocks) -> Matrix:
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    out = [[_ZERO] * m for _ in range(n)]
    r = c = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r + i][c + j] = b.data[i][j]
        r += b.rows
        c += b.cols
    return Matrix(out, cols=m)


def dense_from_cols(cols) -> Matrix:
    cols = [vec(c) for c in cols]
    if not cols:
        return Matrix.zeros(0, 0)
    n = len(cols[0])
    return Matrix([[c[i] for c in cols] for i in range(n)], cols=len(cols))


def dense_diagonal(entries) -> Matrix:
    e = vec(entries)
    n = len(e)
    return Matrix([[e[i] if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n)


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b as the dot product of every row of a with every column of b."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.shape} @ {b.shape}")
    bcols = [b.col(j) for j in range(b.cols)]
    return Matrix([[dot(r, c) for c in bcols] for r in a.data], cols=b.cols)


def dense_power(a: Matrix, k: int) -> Matrix:
    """a^k by repeated squaring from the identity, with dense products."""
    out, base = Matrix.identity(a.rows), a
    while k:
        if k & 1:
            out = dense_matmul(out, base)
        base = dense_matmul(base, base)
        k >>= 1
    return out


def dense_inverse(a: Matrix) -> Matrix | None:
    """The inverse of a square a as the right block of the dense RREF of [a | I], or None."""
    n = a.rows
    red, pivots = dense_rref(Matrix([r + e for r, e in zip(a.data, Matrix.identity(n).data)], cols=2 * n))
    if pivots[:n] != tuple(range(n)):
        return None
    return Matrix([r[n:] for r in red.data[:n]], cols=n)


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


def dense_charpoly(a: Matrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, descending coefficients, by dense Faddeev-LeVerrier."""
    n = a.rows
    coeffs = [_ONE]
    m = Matrix.identity(n)
    for k in range(1, n + 1):
        m = a @ m
        ck = -sum((m.data[i][i] for i in range(n)), _ZERO) / k
        coeffs.append(ck)
        if k < n:
            m = m + Matrix.identity(n).scale(ck)
    return tuple(coeffs)


def dense_eigenpairs(a: Matrix) -> list[tuple[Fraction, Subspace]]:
    """Rational eigenvalues of a, from ``dense_charpoly``, with the dense kernels of a - lam I."""
    pairs = []
    for lam in rational_roots(dense_charpoly(a)):
        rows, _ = dense_kernel(a - Matrix.identity(a.rows).scale(lam))
        if rows:
            pairs.append((lam, Subspace.from_vectors(a.rows, rows)))
    return pairs


def dense_fitting(a: Matrix) -> list[Subspace]:
    """ker(a^k) and im(a^k) for the least k >= 1 with ker(a^k) = ker(a^(k+1)), from dense powers."""
    n = a.rows
    power = a
    while dense_kernel(power) != dense_kernel(power @ a):
        power = power @ a
    image = dense_span([power.col(j) for j in range(n)], n)[0]
    return [Subspace.from_vectors(n, dense_kernel(power)[0]), Subspace.from_vectors(n, image)]


def dense_centroid(g) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """The centroid's RREF basis from the dense n^3 x n^2 system."""
    n = g.dim
    ads = dense_ad_matrices(g)
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


def dense_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Some solution x of a @ x = b with its free unknowns zero, or None."""
    if a.rows != b.rows:
        raise DimensionMismatch(f"a has {a.rows} rows, b has {b.rows}")
    red, pivots = dense_rref(Matrix([r + s for r, s in zip(a.data, b.data)], cols=a.cols + b.cols))
    if any(p >= a.cols for p in pivots):
        return None
    sol = [[_ZERO] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        for j in range(b.cols):
            sol[c][j] = red.data[r][a.cols + j]
    return Matrix(sol)


def dense_span(vectors, n: int) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """RREF basis rows and pivots of the span of vectors in Q^n."""
    if not vectors:
        return (), ()
    red, pivots = dense_rref(Matrix(vectors, cols=n))
    return red.data[: len(pivots)], pivots


def dense_spin_up(generators, seed) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Closure of a subspace under matrices, in rounds.

    Each round applies every generator to every basis vector and reduces
    the union, until a round adds nothing.
    """
    n = seed.ambient_dim
    current = dense_span(seed.vectors(), n)
    while True:
        vectors = list(current[0]) + [m.apply(v) for v in current[0] for m in generators]
        grown = dense_span(vectors, n)
        if grown == current:
            return current
        current = grown


def dense_complement(space) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Span of each e_i, in turn, that lies outside space plus the e_j chosen before it."""
    n = space.ambient_dim
    current = list(space.vectors())
    chosen = []
    for i in range(n):
        e = unit_vec(n, i)
        if len(dense_span(current + [e], n)[1]) > len(dense_span(current, n)[1]):
            chosen.append(e)
            current.append(e)
    return dense_span(chosen, n)


def dense_intersection(u, v) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """RREF basis rows and pivots of u cap v, from the dense RREF of [U|U; V|0].

    The rows whose pivot lies in the right half have a zero left half; their
    right halves span u cap v (Zassenhaus).
    """
    n = u.ambient_dim
    rows = [r + r for r in u.vectors()] + [r + zero_vec(n) for r in v.vectors()]
    if not rows:
        return (), ()
    red, pivots = dense_rref(Matrix(rows, cols=2 * n))
    k = sum(p < n for p in pivots)
    return tuple(r[n:] for r in red.data[k : len(pivots)]), tuple(p - n for p in pivots[k:])


def trial_divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order, by trial division up to its square root."""
    n = abs(n)
    divs = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
        d += 1
    return sorted(divs)
