"""Exact rational linear algebra.

Matrices over ``fractions.Fraction``, canonical subspaces, and one exact
elimination kernel that works on sparse rows (``{column: nonzero value}``
dicts).  Subspaces are kept in reduced row-echelon form with no zero rows, so
equality of subspaces is plain equality of their basis matrices.  Everything
here except the sparse rows handed to the kernel is immutable; no floating
point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotSquare

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, rational strings like ``-2/3`` and Fractions exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> tuple[Fraction, ...]:
    return (_ZERO,) * n


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def add_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v))


def sub_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v))


def scale_vec(c: Fraction, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * a for a in v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    acc = _ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable dense matrix of Fractions, row major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(vec(row) for row in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")
        ncols = len(rows[0]) if rows else (cols or 0)
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # construction helpers -------------------------------------------------
    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([unit_vec(n, i) for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        e = vec(entries)
        n = len(e)
        return cls([[e[i] if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Matrix":
        cols = [vec(c) for c in cols]
        if not cols:
            return cls.zeros(0, 0)
        n = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(n)])

    @classmethod
    def block_diagonal(cls, blocks: Sequence["Matrix"]) -> "Matrix":
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
        return cls(out)

    @classmethod
    def kronecker(cls, a: "Matrix", b: "Matrix") -> "Matrix":
        out = [[_ZERO] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
        for i in range(a.rows):
            for j in range(a.cols):
                if a.data[i][j] == 0:
                    continue
                for r in range(b.rows):
                    for s in range(b.cols):
                        out[i * b.rows + r][j * b.cols + s] = a.data[i][j] * b.data[r][s]
        return cls(out)

    # access ----------------------------------------------------------------
    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    # arithmetic ------------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([add_vec(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([sub_vec(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix([scale_vec(-_ONE, r) for r in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        ocols = tuple(other.col(j) for j in range(other.cols))
        return Matrix([[dot(r, c) for c in ocols] for r in self.data])

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        w = vec(v)
        if self.cols != len(w):
            raise DimensionMismatch(f"{self.shape} applied to length {len(w)}")
        return tuple(dot(r, w) for r in self.data)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix([scale_vec(c, r) for r in self.data])

    def transpose(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.cols)])

    def trace(self) -> Fraction:
        self._square()
        return sum((self.data[i][i] for i in range(self.rows)), _ZERO)

    def power(self, k: int) -> "Matrix":
        self._square()
        if k < 0:
            raise ValueError("negative matrix power")
        out = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(
            [a + b for a, b in zip(self.data, other.data)],
            cols=self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack col mismatch")
        return Matrix(list(self.data) + list(other.data), cols=self.cols)

    # predicates ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.data)

    def is_identity(self) -> bool:
        return self.is_square() and self == Matrix.identity(self.rows)

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # elimination -----------------------------------------------------------
    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and its pivot columns.

        The result has the shape of self: the canonical basis of the row
        space first, then zero rows.
        """
        reduced, pivots = _reduce(sparse_rows(self.data))
        rows = [dense_row(r, self.cols) for r in reduced]
        rows += [zero_vec(self.cols)] * (self.rows - len(rows))
        return Matrix(rows, cols=self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None when singular."""
        self._square()
        n = self.rows
        red, pivots = self.hstack(Matrix.identity(n)).rref()
        if tuple(pivots[:n]) != tuple(range(n)):
            return None
        return Matrix([r[n:] for r in red.data[:n]])

    def charpoly(self) -> tuple[Fraction, ...]:
        """Monic characteristic polynomial, descending coefficients.

        Faddeev-LeVerrier recursion; exact over the rationals.
        """
        self._square()
        n = self.rows
        coeffs = [_ONE]
        m = Matrix.identity(n)
        for k in range(1, n + 1):
            m = self @ m
            ck = -m.trace() / k
            coeffs.append(ck)
            if k < n:
                m = m + Matrix.identity(n).scale(ck)
        return tuple(coeffs)

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")

    def _square(self):
        if not self.is_square():
            raise NotSquare(f"matrix is {self.shape}")


def first_mismatch(a: Matrix, b: Matrix) -> tuple[int, int] | None:
    """First entry (i, j) in row-major order where a and b differ, or None."""
    a._same_shape(b)
    for i, (ra, rb) in enumerate(zip(a.data, b.data)):
        if ra != rb:
            return i, next(j for j, (x, y) in enumerate(zip(ra, rb)) if x != y)
    return None


def sparse_rows(data: Iterable[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    """Dense rows as sparse rows; ``sparse_rows(zip(*m.data))`` gives m's columns."""
    return [{c: x for c, x in enumerate(r) if x} for r in data]


def sparse_row(terms: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
    """Sum (column, value) terms into a sparse row with no zero entries."""
    row: dict[int, Fraction] = {}
    for c, x in terms:
        row[c] = row.get(c, _ZERO) + x
    return {c: x for c, x in row.items() if x}


def combine_rows(terms: Iterable[tuple[Fraction, dict[int, Fraction]]]) -> dict[int, Fraction]:
    """Sum of c * row over the (c, row) terms, as a sparse row with no zero entries.

    With the terms (v[k], cols[k]) over the nonzero entries of v, this is m v
    for the matrix m whose sparse columns are cols.
    """
    out: dict[int, Fraction] = {}
    for c, row in terms:
        for j, x in row.items():
            out[j] = out.get(j, _ZERO) + c * x
    return {j: x for j, x in out.items() if x}


def dense_row(row: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """The length-n vector of a sparse row."""
    out = [_ZERO] * n
    for c, x in row.items():
        out[c] = x
    return tuple(out)


def _eliminate(row: dict[int, Fraction], f: Fraction, prow: dict[int, Fraction]) -> None:
    """row -= f * prow in place, dropping the entries that cancel."""
    for c, x in prow.items():
        y = row.get(c)
        if y is None:
            row[c] = -f * x
        else:
            y -= f * x
            if y:
                row[c] = y
            else:
                del row[c]


def _reduce(
    rows: Iterable[dict[int, Fraction]],
) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """Canonical RREF of the span of sparse rows, which it consumes.

    Each row in turn is reduced on its first nonzero column against the
    pivot rows found so far, until it vanishes or starts at a new pivot
    column.  Back-substitution, last pivot first, then clears every pivot
    column from the other rows.  Returns the nonzero rows in pivot order,
    each with a leading 1, and their pivot columns.  RREF is unique, so the
    result does not depend on the order of the rows.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        while row:
            c = min(row)
            prow = echelon.get(c)
            if prow is None:
                pv = row[c]
                echelon[c] = row if pv == 1 else {j: x / pv for j, x in row.items()}
                break
            _eliminate(row, row[c], prow)
    pivots = sorted(echelon)
    for p in reversed(pivots):
        row = echelon[p]
        for c in [c for c in row if c != p and c in echelon]:
            _eliminate(row, row[c], echelon[c])
    return [echelon[p] for p in pivots], tuple(pivots)


def solve_rows(
    rows: Iterable[dict[int, Fraction]], ncols: int
) -> tuple[tuple[Fraction, ...] | None, "Subspace"]:
    """Solutions of sparse linear equations, from one reduction.

    Each row maps unknowns 0..ncols-1 to their nonzero coefficients, with
    the right-hand side, when nonzero, under key ``ncols``.  The rows are
    consumed.  Returns a particular solution with its free unknowns zero,
    or None when the system is inconsistent, and the kernel of the
    coefficient rows: the left block of rref([A | b]) is rref(A).
    """
    reduced, pivots = _reduce(rows)
    particular = None
    if pivots and pivots[-1] == ncols:
        reduced, pivots = reduced[:-1], pivots[:-1]
    else:
        sol = [_ZERO] * ncols
        for row, p in zip(reduced, pivots):
            sol[p] = row.get(ncols, _ZERO)
        particular = tuple(sol)
    # each free unknown f gives e_f - sum_p rref[p][f] e_p
    pivot_set = set(pivots)
    null = {f: {f: _ONE} for f in range(ncols) if f not in pivot_set}
    for row, p in zip(reduced, pivots):
        for f, x in row.items():
            if f != p and f < ncols:
                null[f][p] = -x
    basis, kpivots = _reduce(null.values())
    return particular, Subspace._canonical(ncols, [dense_row(r, ncols) for r in basis], kpivots)


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """Some exact solution x of a @ x = b, or None when inconsistent.

    Free variables are set to zero, which makes the returned solution
    deterministic.
    """
    if a.rows != b.rows:
        raise DimensionMismatch(f"a has {a.rows} rows, b has {b.rows}")
    red, pivots = a.hstack(b).rref()
    if any(p >= a.cols for p in pivots):
        return None
    sol = [[_ZERO] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        for j in range(b.cols):
            sol[c][j] = red.data[r][a.cols + j]
    return Matrix(sol)


class Subspace:
    """Subspace of Q^n stored as an RREF basis matrix with no zero rows.

    ``pivots[r]`` is the pivot column of basis row r.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix):
        # a basis with no rows may come without a width, as Matrix([]) does
        if basis.rows and basis.cols != ambient_dim:
            raise DimensionMismatch("basis vectors must match ambient dimension")
        red, pivots = basis.rref()
        self._set(ambient_dim, red.data[: len(pivots)], pivots)

    def _set(self, ambient_dim: int, rows: Sequence[Sequence[Fraction]], pivots: Iterable[int]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", Matrix(rows) if rows else Matrix.zeros(0, ambient_dim))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _canonical(
        cls, ambient_dim: int, rows: Sequence[Sequence[Fraction]], pivots: Iterable[int]
    ) -> "Subspace":
        """The subspace whose RREF basis, without zero rows, is already known."""
        space = object.__new__(cls)
        space._set(ambient_dim, rows, pivots)
        return space

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = [vec(v) for v in vectors]
        if not vectors:
            return cls.zero(ambient_dim)
        return cls(ambient_dim, Matrix(vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return cls._canonical(n, [unit_vec(n, i) for i in range(n)], range(n))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.basis.data

    def reduce_vector(self, v: Sequence) -> tuple[Fraction, ...]:
        """Residual of v after eliminating against the RREF basis."""
        w = list(vec(v))
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        for r, p in zip(self.basis.data, self.pivots):
            if w[p] != 0:
                f = w[p]
                for j in range(p, self.ambient_dim):
                    w[j] -= f * r[j]
        return tuple(w)

    def contains_vector(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce_vector(v))

    def coords_of(self, v: Sequence) -> tuple[Fraction, ...] | None:
        """Coefficients of v in the basis rows, or None if v is outside.

        The basis is in RREF, so the coefficient of row r is v at its pivot.
        """
        v = vec(v)
        if not self.contains_vector(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains_vector(r) for r in other.basis.data)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace(self.ambient_dim, self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref of [U|U; V|0], rows with zero left half span U cap V."""
        self._same_ambient(other)
        n = self.ambient_dim
        top = self.basis.hstack(self.basis)
        bottom = other.basis.hstack(Matrix.zeros(other.dim, n))
        red, _ = top.vstack(bottom).rref()
        inter = [r[n:] for r in red.data if is_zero_vec(r[:n]) and not is_zero_vec(r[n:])]
        return Subspace.from_vectors(n, inter)

    def complement(self) -> "Subspace":
        """Some subspace w with self + w = ambient and self cap w = 0."""
        chosen = []
        current = self
        for i in range(self.ambient_dim):
            e = unit_vec(self.ambient_dim, i)
            if not current.contains_vector(e):
                chosen.append(e)
                current = current.sum(Subspace.from_vectors(self.ambient_dim, [e]))
        return Subspace.from_vectors(self.ambient_dim, chosen)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")


def kernel(a: Matrix) -> Subspace:
    """Right kernel {x : a x = 0} as a subspace of Q^cols."""
    return solve_rows(sparse_rows(a.data), a.cols)[1]


def spin_up(generators: Sequence[Matrix], seed: Subspace) -> Subspace:
    """Smallest subspace containing seed and mapped into itself by every generator.

    Each round applies every generator to every basis vector of the current
    subspace and re-reduces the union, until a round adds nothing.
    """
    current = seed
    while True:
        new_vectors = list(current.vectors())
        for v in current.vectors():
            for m in generators:
                new_vectors.append(m.apply(v))
        grown = Subspace.from_vectors(seed.ambient_dim, new_vectors)
        if grown == current:
            return current
        current = grown


def column_space(a: Matrix) -> Subspace:
    return Subspace.from_vectors(a.rows, [a.col(j) for j in range(a.cols)])


def kernel_image_power(a: Matrix) -> tuple[int, Subspace, Subspace]:
    """Fitting data of a: least n >= 1 with ker(a^n) = ker(a^(n+1)).

    Returns (n, ker(a^n), im(a^n)); the two subspaces are complementary.
    """
    a._square()
    power = a
    prev = kernel(power)
    n = 1
    while True:
        nxt = kernel(power @ a)
        if nxt == prev:
            return n, prev, column_space(power)
        prev = nxt
        power = power @ a
        n += 1


def _positive_divisors(n: int) -> list[int]:
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


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial given by descending coefficients."""
    coeffs = [frac(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if not coeffs or len(coeffs) == 1:
        return []
    from math import lcm

    denom = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * denom) for c in coeffs]
    roots = []
    # strip zero constant terms: lambda = 0 is a root
    trailing_zeros = 0
    while ints and ints[-1] == 0:
        ints.pop()
        trailing_zeros += 1
    if trailing_zeros:
        roots.append(_ZERO)
    if len(ints) <= 1:
        return roots
    lead, const = ints[0], ints[-1]
    seen = set(roots)
    for p in _positive_divisors(const):
        for q in _positive_divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                acc = _ZERO
                for c in ints:
                    acc = acc * cand + c
                if acc == 0:
                    seen.add(cand)
                    roots.append(cand)
    return sorted(roots, key=lambda r: (r.numerator, r.denominator))


def rational_eigenpairs(a: Matrix) -> list[tuple[Fraction, Subspace]]:
    """All rational eigenvalues with their eigenspaces.

    Found via the rational root theorem on the exact characteristic
    polynomial; sorted by (numerator, denominator) so downstream choices are
    deterministic.  May be empty.
    """
    a._square()
    pairs = []
    for lam in rational_roots(a.charpoly()):
        eig = kernel(a - Matrix.identity(a.rows).scale(lam))
        if not eig.is_zero():
            pairs.append((lam, eig))
    return pairs
