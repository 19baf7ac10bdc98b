"""Exact rational linear algebra.

Matrices over ``fractions.Fraction``, canonical subspaces, and one exact
elimination kernel that works on sparse rows (``{column: nonzero value}``
dicts).  A matrix stores only its sparse rows, the form the kernels read,
and builds its dense rows when they are read.  The kernel is fraction-free:
it clears a row's denominators once, then eliminates by integer
cross-multiplication and divides out each row's content, so Fractions are
made only where its results are read.  A subspace keeps only the kernel's
canonical integer rows (its reduced row-echelon basis, each row primitive
with a positive pivot entry), so equality of subspaces is equality of those
rows; the basis matrix is built when it is read.  Matrices and subspaces
are immutable, and no code writes the rows they store; no floating point
anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

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


def sub_vec(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


class Matrix:
    """Immutable matrix of Fractions, stored as its sparse rows.

    ``row_dicts[i]`` is row i as a ``{column: nonzero Fraction}`` dict, the
    form the kernels read, and ``col_dicts()`` builds the columns in that
    form; the dense rows ``data`` are built on each read.  The stored rows
    are shared with every reader, and no code writes them.
    """

    __slots__ = ("rows", "cols", "row_dicts")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        dense = [vec(row) for row in data]
        if dense and any(len(r) != len(dense[0]) for r in dense):
            raise DimensionMismatch("ragged rows")
        self._set(sparse_rows(dense), len(dense[0]) if dense else (cols or 0))

    def _set(self, rows: Sequence[dict[int, Fraction]], cols: int):
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_dicts", tuple(rows))

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # construction helpers -------------------------------------------------
    @classmethod
    def _of(cls, rows: Sequence[dict[int, Fraction]], cols: int) -> "Matrix":
        """The matrix with these sparse rows, which hold nonzero Fractions only; it keeps them."""
        m = object.__new__(cls)
        m._set(rows, cols)
        return m

    @classmethod
    def from_row_dicts(cls, rows: Iterable[dict], cols: int) -> "Matrix":
        """The matrix of width cols with these sparse rows, each entry coerced by ``frac`` and zeros dropped."""
        out = [sparse_row((c, frac(x)) for c, x in row.items()) for row in rows]
        if any(c not in range(cols) for row in out for c in row):
            raise DimensionMismatch(f"the sparse rows of a matrix of width {cols} need keys in 0..{cols - 1}")
        return cls._of(out, cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([{i: _ONE} for i in range(n)], n)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        e = vec(entries)
        return cls._of([{i: x} if x else {} for i, x in enumerate(e)], len(e))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Matrix":
        return cls(cols).transpose()

    @classmethod
    def block_diagonal(cls, blocks: Sequence["Matrix"]) -> "Matrix":
        rows, off = [], 0
        for b in blocks:
            rows += [{c + off: x for c, x in r.items()} for r in b.row_dicts]
            off += b.cols
        return cls._of(rows, off)

    # access ----------------------------------------------------------------
    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows, built on each read."""
        n = self.cols
        return tuple(dense_row(r, n) for r in self.row_dicts)

    def col_dicts(self) -> list[dict[int, Fraction]]:
        """The sparse columns, built afresh on each call."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.row_dicts):
            for j, x in row.items():
                cols[j][i] = x
        return cols

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.row_dicts[i].get(range(self.cols)[j], _ZERO)

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r.get(range(self.cols)[j], _ZERO) for r in self.row_dicts)

    # arithmetic ------------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        rows = [sparse_row(chain(a.items(), b.items())) for a, b in zip(self.row_dicts, other.row_dicts)]
        return Matrix._of(rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product combines other's sparse rows by the entries of row i."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        rows = other.row_dicts
        return Matrix._of([combine_rows((x, rows[k]) for k, x in r.items()) for r in self.row_dicts], other.cols)

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        w = vec(v)
        if self.cols != len(w):
            raise DimensionMismatch(f"{self.shape} applied to length {len(w)}")
        return tuple(sum((x * w[c] for c, x in r.items() if w[c]), _ZERO) for r in self.row_dicts)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix._of([{j: c * x for j, x in r.items()} for r in self.row_dicts], self.cols)

    def transpose(self) -> "Matrix":
        return Matrix._of(self.col_dicts(), self.rows)

    def power(self, k: int) -> "Matrix":
        """self^k by repeated squaring; the identity only for k = 0."""
        self._square()
        if k < 0:
            raise ValueError("negative matrix power")
        if k == 0:
            return Matrix.identity(self.rows)
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            if not k:
                return out
            base = base @ base

    # predicates ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.row_dicts)

    def is_identity(self) -> bool:
        return self.is_square() and self == Matrix.identity(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.shape == other.shape and self.row_dicts == other.row_dicts

    def __hash__(self):
        return hash((self.shape, tuple(frozenset(r.items()) for r in self.row_dicts)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # elimination -----------------------------------------------------------
    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and its pivot columns.

        The result has the shape of self: the canonical basis of the row
        space first, then zero rows.
        """
        reduced, pivots = _reduce(self.row_dicts)
        rows = [_rref_row(r, p) for r, p in zip(reduced, pivots)]
        rows += [{} for _ in range(self.rows - len(rows))]
        return Matrix._of(rows, self.cols), pivots

    def rank(self) -> int:
        return len(_reduce(self.row_dicts)[1])

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None when singular: the right block of the sparse rref of [self | I]."""
        self._square()
        n = self.rows
        reduced, pivots = _reduce([{**r, n + i: 1} for i, r in enumerate(self.row_dicts)])
        if pivots != tuple(range(n)):
            return None
        rows = [{c - n: Fraction(x, r[p]) for c, x in r.items() if c >= n} for r, p in zip(reduced, pivots)]
        return Matrix._of(rows, n)

    def charpoly(self) -> tuple[Fraction, ...]:
        """Monic characteristic polynomial, descending coefficients.

        Faddeev-LeVerrier recursion on sparse integer columns: for d the lcm
        of the denominators, B = dA has M_1 = I, c_k = -tr(B M_k) / k (exact,
        as B has an integer characteristic polynomial) and M_(k+1) = B M_k +
        c_k I, and A has the coefficients c_k / d^k.
        """
        self._square()
        n = self.rows
        d = lcm(*[x.denominator for r in self.row_dicts for x in r.values()])
        cols = [{i: x.numerator * (d // x.denominator) for i, x in col.items()} for col in self.col_dicts()]
        coeffs = [_ONE]
        m = [{j: 1} for j in range(n)]
        for k in range(1, n + 1):
            bm = [combine_rows((x, cols[i]) for i, x in col.items()) for col in m]
            ck = -sum(col.get(j, 0) for j, col in enumerate(bm)) // k
            coeffs.append(Fraction(ck, d**k))
            m = [sparse_row(chain(col.items(), [(j, ck)])) for j, col in enumerate(bm)]
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
    for i, (ra, rb) in enumerate(zip(a.row_dicts, b.row_dicts)):
        if ra != rb:
            return i, min(j for j in ra.keys() | rb.keys() if ra.get(j) != rb.get(j))
    return None


def sparse_rows(data: Iterable[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    """Dense rows as sparse rows."""
    return [{c: x for c, x in enumerate(r) if x} for r in data]


def sparse_row(terms: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
    """Sum (column, value) terms into a sparse row with no zero entries."""
    row: dict[int, Fraction] = {}
    for c, x in terms:
        row[c] = row.get(c, 0) + x
    return {c: x for c, x in row.items() if x}


def combine_rows(terms: Iterable[tuple[Fraction, dict[int, Fraction]]]) -> dict[int, Fraction]:
    """Sum of c * row over the (c, row) terms, as a sparse row with no zero entries.

    With the terms (v[k], cols[k]) over the nonzero entries of v, this is m v
    for the matrix m whose sparse columns are cols.
    """
    out: dict[int, Fraction] = {}
    for c, row in terms:
        for j, x in row.items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def dense_row(row: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """The length-n vector of a sparse row."""
    out = [_ZERO] * n
    for c, x in row.items():
        out[c] = x
    return tuple(out)


def _rref_row(row: dict[int, int], pivot: int) -> dict[int, Fraction]:
    """The sparse RREF row of an integer pivot row: each entry over the pivot entry."""
    d = row[pivot]
    return {c: Fraction(x, d) for c, x in row.items()}


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """The primitive form of (a/g) row - (b/g) prow, a = prow[c], b = row[c], g = gcd(a, b).

    Column c and every other entry that cancels are dropped.  The row may be
    written to; the pivot row is left unchanged.
    """
    a, b = prow[c], row[c]
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    if a != 1:
        row = {j: a * x for j, x in row.items()}
    for j, y in prow.items():
        x = row.get(j, 0) - b * y
        if x:
            row[j] = x
        else:
            del row[j]
    g = gcd(*row.values())
    return row if g < 2 else {j: x // g for j, x in row.items()}


def _insert_row(echelon: dict[int, dict[int, int]], row: dict) -> dict[int, int] | None:
    """One elimination step: reduce a sparse row into an echelon.

    The row's entries may be ints or Fractions.  A copy of it is made a
    primitive integer row at once, by one lcm of its denominators and one
    gcd of the cleared entries; the row itself is left unchanged.  The copy
    is reduced on its first nonzero column against the pivot rows, keyed by
    pivot column, until it vanishes (None) or starts at a new pivot column,
    where it is stored with a positive pivot entry and returned.
    """
    den = lcm(*[x.denominator for x in row.values()])
    row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
    g = gcd(*row.values())
    if g != 1:
        row = {c: x // g for c, x in row.items()}
    while row:
        c = min(row)
        prow = echelon.get(c)
        if prow is None:
            if row[c] < 0:
                row = {j: -x for j, x in row.items()}
            echelon[c] = row
            return row
        row = _eliminate(row, prow, c)
    return None


def _reduce(rows: Iterable[dict]) -> tuple[list[dict[int, int]], tuple[int, ...]]:
    """Canonical RREF of the span of sparse rows, which it leaves unchanged.

    Each row in turn goes through ``_insert_row``.  Back-substitution, last
    pivot first, then clears every pivot column from the other rows.
    Returns the nonzero rows in pivot order and their pivot columns.  Each
    row is the RREF row scaled to a primitive integer row with a positive
    pivot entry, a scaling as unique as a leading 1, so the result does not
    depend on the order of the rows.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert_row(echelon, row)
    pivots = sorted(echelon)
    for p in reversed(pivots):
        row = echelon[p]
        for c in [c for c in row if c != p and c in echelon]:
            row = _eliminate(row, echelon[c], c)
        echelon[p] = row
    return [echelon[p] for p in pivots], tuple(pivots)


def solve_rows(
    rows: Iterable[dict[int, Fraction]], ncols: int
) -> tuple[tuple[Fraction, ...] | None, "Subspace"]:
    """Solutions of sparse linear equations, from one reduction.

    Each row maps unknowns 0..ncols-1 to their nonzero coefficients, with
    the right-hand side, when nonzero, under key ``ncols``; any other key
    raises ``DimensionMismatch``.  The rows are left unchanged.  Returns a
    particular solution with its free unknowns zero, or None when the
    system is inconsistent, and the kernel of the coefficient rows: the
    left block of rref([A | b]) is rref(A).
    """
    rows = list(rows)
    if any(row and (min(row) < 0 or max(row) > ncols) for row in rows):
        raise DimensionMismatch(f"equations in {ncols} unknowns need keys in 0..{ncols}")
    reduced, pivots = _reduce(rows)
    particular = None
    if pivots and pivots[-1] == ncols:
        reduced, pivots = reduced[:-1], pivots[:-1]
    else:
        sol = [_ZERO] * ncols
        for row, p in zip(reduced, pivots):
            if ncols in row:
                sol[p] = Fraction(row[ncols], row[p])
        particular = tuple(sol)
    # each free unknown f gives e_f - sum_p rref[p][f] e_p
    pivot_set = set(pivots)
    null = {f: {f: 1} for f in range(ncols) if f not in pivot_set}
    for row, p in zip(reduced, pivots):
        d = row[p]
        for f, x in row.items():
            if f != p and f < ncols:
                null[f][p] = Fraction(-x, d)
    return particular, Subspace._canonical(ncols, *_reduce(null.values()))


class Subspace:
    """Subspace of Q^n stored as the canonical rows of its RREF basis.

    The private ``_rows`` are the primitive integer rows the elimination
    kernel made, each the positive multiple of its RREF basis row with
    content 1, and ``pivots[r]`` is the pivot column of row r.  The readers
    reduce against the rows and never write them; ``basis``, the RREF
    matrix with no zero rows, is built from them on each read.
    """

    __slots__ = ("ambient_dim", "pivots", "_rows")

    def __init__(self, ambient_dim: int, basis: Matrix):
        # a basis with no rows may come without a width, as Matrix([]) does
        if basis.rows and basis.cols != ambient_dim:
            raise DimensionMismatch("basis vectors must match ambient dimension")
        self._set(ambient_dim, *_reduce(basis.row_dicts))

    def _set(self, ambient_dim: int, rows: Sequence[dict[int, int]], pivots: Iterable[int]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_rows", tuple(rows))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _canonical(cls, ambient_dim: int, rows: Sequence[dict[int, int]], pivots: Iterable[int]) -> "Subspace":
        """The subspace whose RREF basis, as the kernel's primitive integer rows, is known; it keeps them."""
        space = object.__new__(cls)
        space._set(ambient_dim, rows, pivots)
        return space

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return cls(ambient_dim, Matrix(vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._canonical(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return cls._canonical(n, [{i: 1} for i in range(n)], range(n))

    @property
    def basis(self) -> Matrix:
        return Matrix._of([_rref_row(r, p) for r, p in zip(self._rows, self.pivots)], self.ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.basis.data

    def contains_vector(self, v: Sequence) -> bool:
        """Is v in the subspace: does it reduce to zero against a shallow copy of the basis echelon."""
        w = vec(v)
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient dimension")
        return _insert_row(dict(zip(self.pivots, self._rows)), sparse_rows([w])[0]) is None

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
        echelon = dict(zip(self.pivots, self._rows))
        return all(_insert_row(echelon, r) is None for r in other._rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace._canonical(self.ambient_dim, *_reduce(self._rows + other._rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: U cap V read off rref[U|U; V|0].

        Its rows with a pivot at n or beyond, shifted left by n, are the RREF of U cap V.
        """
        self._same_ambient(other)
        n = self.ambient_dim
        top = [{**r, **{n + c: x for c, x in r.items()}} for r in self._rows]
        reduced, pivots = _reduce(top + list(other._rows))
        rows = [{c - n: x for c, x in r.items()} for r, p in zip(reduced, pivots) if p >= n]
        return Subspace._canonical(n, rows, [p - n for p in pivots if p >= n])

    def complement(self) -> "Subspace":
        """Some subspace w with self + w = ambient and self cap w = 0.

        w is spanned by each e_i, in turn, that lies outside self plus the
        e_j chosen before it.
        """
        n = self.ambient_dim
        echelon = dict(zip(self.pivots, self._rows))
        chosen = [i for i in range(n) if _insert_row(echelon, {i: 1}) is not None]
        return Subspace._canonical(n, [{i: 1} for i in chosen], chosen)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")


def kernel(a: Matrix) -> Subspace:
    """Right kernel {x : a x = 0} as a subspace of Q^cols."""
    return solve_rows(a.row_dicts, a.cols)[1]


def spin_up(generators: Sequence[Sequence[dict[int, Fraction]]], seed: Subspace) -> Subspace:
    """Smallest subspace containing seed and mapped into itself by every generator.

    Each generator is an operator on Q^n given by its n sparse columns
    (``m.col_dicts()`` for a matrix m).  One echelon grows from
    the seed's basis.  Every row that joins it is mapped once by each
    generator, and the images are reduced into it in turn, until no row is
    left to map (the MeatAxe spin-up, Parker 1984).
    """
    n = seed.ambient_dim
    if any(len(cols) != n or any(not 0 <= k < n for col in cols for k in col) for cols in generators):
        raise DimensionMismatch(f"spin_up needs generators of {n} sparse columns in Q^{n}")
    if seed.is_zero():
        return seed
    echelon = dict(zip(seed.pivots, seed._rows))
    todo = list(echelon.values())
    while todo and len(echelon) < n:
        row = todo.pop()
        for cols in generators:
            image = _insert_row(echelon, combine_rows((x, cols[k]) for k, x in row.items()))
            if image is not None:
                todo.append(image)
    if len(echelon) == n:
        return Subspace.full(n)
    # the pivot rows are reduced against each other already, so this only back-substitutes
    return Subspace._canonical(n, *_reduce(echelon.values()))


def column_space(a: Matrix) -> Subspace:
    return Subspace(a.rows, a.transpose())


def kernel_image_power(a: Matrix) -> tuple[int, Subspace, Subspace]:
    """Fitting data of a: least n >= 1 with ker(a^n) = ker(a^(n+1)).

    Returns (n, ker(a^n), im(a^n)); the two subspaces are complementary.
    """
    a._square()
    power = a
    prev = kernel(power)
    n = 1
    while True:
        nxt_power = power @ a
        nxt = kernel(nxt_power)
        if nxt == prev:
            return n, prev, column_space(power)
        prev, power, n = nxt, nxt_power, n + 1


def _positive_divisors(n: int) -> list[int]:
    """Positive divisors of |n| in increasing order, none for 0.

    They are built from the factorisation of |n| by trial division, each
    factor divided out as it is found, so the trial divisors stop at the
    square root of what is left.
    """
    n = abs(n)
    divs = [1] if n else []
    d = 2
    while d * d <= n:
        if n % d == 0:
            power = divs
            while n % d == 0:
                n //= d
                power = [x * d for x in power]
                divs = divs + power
        d += 1
    if n > 1:
        divs += [x * n for x in divs]
    return sorted(divs)


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial given by descending coefficients."""
    coeffs = [frac(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if not coeffs or len(coeffs) == 1:
        return []
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
        eig = eigenspace(a.row_dicts, lam)
        if not eig.is_zero():
            pairs.append((lam, eig))
    return pairs


def eigenspace(rows: Sequence[dict[int, Fraction]], lam: Fraction) -> Subspace:
    """{x : (m - lam) x = 0}, m the square matrix whose sparse rows are rows (left unchanged).

    A key outside 0..n-1, n the number of rows, raises ``DimensionMismatch``.
    """
    n = len(rows)
    if any(row and (min(row) < 0 or max(row) >= n) for row in rows):
        raise DimensionMismatch(f"the sparse rows of a {n} x {n} matrix need keys in 0..{n - 1}")
    shifted = [sparse_row(chain(row.items(), [(i, -lam)])) for i, row in enumerate(rows)]
    return solve_rows(shifted, len(shifted))[1]
