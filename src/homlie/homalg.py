"""Core Hom-algebra types and axiom checks.

A Hom-Lie algebra is a triple (g, [.,.], alpha): a skew bilinear bracket
together with a linear twist map, subject to the twisted Jacobi identity

    [alpha(x),[y,z]] + [alpha(y),[z,x]] + [alpha(z),[x,y]] = 0.

Everything is stored by structure constants over exact rationals.  All checks
quantify over basis tuples only; bilinearity makes that complete.  Failed
checks report the first violating index tuple in lexicographic order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain
from types import MappingProxyType

from .errors import DimensionMismatch, IndexOutOfRange, NotHomAssociative, NotMultiplicative
from .exactlin import (
    Matrix,
    Subspace,
    combine_rows,
    dense_row,
    first_mismatch,
    frac,
    kernel,
    solve_rows,
    vec,
)

Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]
_ONE = Fraction(1)
_EMPTY: SparseRow = {}  # shared, never written


def _table(
    dim: int, entries: Iterable[tuple[tuple[int, int], Sequence]], what: str, skew: bool
) -> tuple[MappingProxyType, dict[tuple[int, int], SparseRow]]:
    """The nonzero entries of a structure table, as a read-only mapping and as sparse rows.

    ``entries`` are ((i, j), coefficient vector) pairs, with i < j when
    ``skew``.  The mapping keeps the entries given; the sparse rows cover every
    ordered pair with a nonzero entry, so when ``skew`` they also hold the
    negated row at (j, i).  Both results have their keys in lexicographic order.
    """
    pairs, rows = {}, {}
    for (i, j), v in entries:
        if not (0 <= i < dim and 0 <= j < dim) or (skew and i >= j):
            raise IndexOutOfRange(
                f"{what} entry ({i},{j}) needs 0 <= {'i < j' if skew else 'i, j'} < dim"
            )
        w = vec(v)
        if len(w) != dim:
            raise DimensionMismatch(f"{what} entry ({i},{j}) needs dim coefficients")
        row = {k: c for k, c in enumerate(w) if c}
        if row:
            pairs[(i, j)], rows[(i, j)] = w, row
            if skew:
                rows[(j, i)] = {k: -c for k, c in row.items()}
    return (
        MappingProxyType({ij: pairs[ij] for ij in sorted(pairs)}),
        {ij: rows[ij] for ij in sorted(rows)},
    )


def _sparse(x: Sequence, dim: int) -> SparseRow:
    """The nonzero entries of a coefficient vector of length dim, as a sparse row."""
    x = vec(x)
    if len(x) != dim:
        raise DimensionMismatch(f"coefficient vector of length {len(x)} for dim {dim}")
    return {k: c for k, c in enumerate(x) if c}


def _product(rows: dict[tuple[int, int], SparseRow], u: SparseRow, v: SparseRow) -> SparseRow:
    """The product of two sparse vectors under a table of sparse rows over ordered pairs."""
    return combine_rows(
        (a * b, rows[(p, q)]) for p, a in u.items() for q, b in v.items() if (p, q) in rows
    )


def _ad_cols(g: HomAlgebra, x: SparseRow) -> list[SparseRow]:
    """Columns [x, x_q] of ad(x) as sparse rows, for x a sparse vector."""
    return [_product(g._rows, x, {q: _ONE}) for q in range(g.dim)]


class Record:
    """Immutable record compared, hashed and printed through its fields.

    A subclass declares its fields as class annotations, in order, each with
    an optional default as a class attribute, as a frozen dataclass would:
    the constructor takes them by position or keyword, then runs
    ``__post_init__``, which may coerce a field with ``object.__setattr__``.
    Records are equal when they are of one class with equal fields, hash as
    the tuple of their fields, print as ``Name(field=value, ...)`` and raise
    ``AttributeError`` on assignment.

    The algebra types ``HomAlgebra``, ``AssocAlgebra`` and ``QuadraticHomAlgebra``
    are records printed as ``Name(dim=n)``.  A subclass whose ``__init__`` the
    benchmark's trace hooks wrap (``HomAlgebra``) defines it in its own class.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        unexpected = kwargs.keys() - fields[len(args):]
        if len(args) > len(fields) or unexpected:
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{type(self).__name__}() missing fields {missing}")
        for f in fields:
            object.__setattr__(self, f, values[f])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class HomAlgebra(Record):
    """Finite-dimensional Hom-algebra with a skew-symmetric bracket.

    ``bracket`` maps each basis pair (i, j) with i < j and [x_i, x_j] != 0 to
    the coefficient vector of [x_i, x_j], keys in lexicographic order; every
    other bracket of basis vectors follows by skew-symmetry, so the bracket
    is skew by construction.  The brackets of every ordered pair i != j are
    also kept as sparse rows, the table form of ``AssocAlgebra``, from which
    every bracket is evaluated.
    """

    dim: int
    bracket: Mapping
    alpha: Matrix

    def __init__(self, *args, **kwargs):
        Record.__init__(self, *args, **kwargs)

    def __post_init__(self):
        pairs, rows = _table(self.dim, self.bracket.items(), "bracket", skew=True)
        if self.alpha.shape != (self.dim, self.dim):
            raise DimensionMismatch("alpha must be dim x dim")
        object.__setattr__(self, "bracket", pairs)
        object.__setattr__(self, "_rows", rows)

    def __hash__(self):
        return hash((self.dim, tuple(self.bracket.items()), self.alpha))

    def __repr__(self):
        return f"HomAlgebra(dim={self.dim})"

    # basic algebra ---------------------------------------------------------
    def basis_bracket(self, i: int, j: int) -> Vector:
        """Coefficients of [x_i, x_j] for any ordered pair of basis indices."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexOutOfRange(f"({i}, {j})")
        return dense_row(self._rows.get((i, j), _EMPTY), self.dim)

    def bracket_vec(self, x: Sequence, y: Sequence) -> Vector:
        n = self.dim
        return dense_row(_product(self._rows, _sparse(x, n), _sparse(y, n)), n)

    def ad_entries(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
        """(r, s) -> every (p, c) with c = ad_p[r][s] != 0, the x_r coefficient of [x_p, x_s]."""
        entries = {}
        for (p, s), row in self._rows.items():
            for r, c in row.items():
                entries.setdefault((r, s), []).append((p, c))
        return entries

    def ad_columns(self) -> list[list[SparseRow]]:
        """Sparse columns [x_i, x_q] of every ad(x_i), built afresh on each call."""
        rows, n = self._rows, self.dim
        return [[dict(rows.get((i, q), _EMPTY)) for q in range(n)] for i in range(n)]

    def ad_matrices(self) -> list[Matrix]:
        """Matrices of every [x_i, .] acting on column vectors: the matrix view of ``ad_columns``."""
        return [Matrix.from_row_dicts(cols, self.dim).transpose() for cols in self.ad_columns()]

    def ad_vec(self, x: Sequence) -> Matrix:
        """Matrix of [x, .] for an arbitrary coefficient vector x."""
        return Matrix.from_row_dicts(_ad_cols(self, _sparse(x, self.dim)), self.dim).transpose()

    def is_abelian(self) -> bool:
        return not self.bracket

    def with_alpha(self, alpha: Matrix) -> "HomAlgebra":
        return HomAlgebra(self.dim, self.bracket, alpha)


def annihilator(t: HomAlgebra | AssocAlgebra) -> Subspace:
    """Left annihilator {x : x y = 0 for all y} of a bracket or product table."""
    eqs = {}  # (j, k): the x_k coefficient of x x_j, as its nonzero entries
    for (i, j), row in t._rows.items():
        for k, c in row.items():
            eqs.setdefault((j, k), {})[i] = c
    return solve_rows(eqs.values(), t.dim)[1]


def center(g: HomAlgebra) -> Subspace:
    """Center {x : [x, y] = 0 for all y}."""
    return annihilator(g)


def bracket_table(g: HomAlgebra, left: Matrix, right: Matrix) -> dict[tuple[int, int], Vector]:
    """Brackets [left(x_i), right(x_j)] over the basis pairs i < j; both maps are dim x dim."""
    n = g.dim
    if left.shape != (n, n) or right.shape != (n, n):
        raise DimensionMismatch("bracket_table maps must be dim x dim")
    lcols, rcols = left.col_dicts(), right.col_dicts()
    return {
        (i, j): dense_row(_product(g._rows, lcols[i], rcols[j]), n)
        for i in range(n)
        for j in range(i + 1, n)
    }


class AssocAlgebra(Record):
    """Hom-associative algebra: a bilinear product without skew symmetry.

    ``product`` maps each basis pair (i, j) with x_i x_j != 0 to the
    coefficient vector of x_i x_j, keys in lexicographic order.  The
    constructor takes that mapping or the nested lists ``product[i][j]``.  The
    same products are also kept as sparse rows, from which every product is
    evaluated.
    """

    dim: int
    product: Mapping
    alpha: Matrix

    def __post_init__(self):
        dim, product = self.dim, self.product
        if isinstance(product, Mapping):
            entries = product.items()
        elif len(product) != dim or any(len(plane) != dim for plane in product):
            raise DimensionMismatch("nested product lists must be dim x dim")
        else:
            entries = (((i, j), v) for i, plane in enumerate(product) for j, v in enumerate(plane))
        pairs, rows = _table(dim, entries, "product", skew=False)
        if self.alpha.shape != (dim, dim):
            raise DimensionMismatch("alpha must be dim x dim")
        object.__setattr__(self, "product", pairs)
        object.__setattr__(self, "_rows", rows)

    def __hash__(self):
        return hash((self.dim, tuple(self.product.items()), self.alpha))

    def product_vec(self, x: Sequence, y: Sequence) -> Vector:
        n = self.dim
        return dense_row(_product(self._rows, _sparse(x, n), _sparse(y, n)), n)

    def is_commutative(self) -> bool:
        rows = self._rows
        return all(rows.get((j, i)) == row for (i, j), row in rows.items())

    def __repr__(self):
        return f"AssocAlgebra(dim={self.dim})"


class BilinearForm(Record):
    """Bilinear form B(x, y) = x^T gram y."""

    dim: int
    gram: Matrix

    def __post_init__(self):
        if self.gram.shape != (self.dim, self.dim):
            raise DimensionMismatch("gram must be dim x dim")

    def value(self, x: Sequence, y: Sequence) -> Fraction:
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch(f"vector of length {len(x)} for a form of dim {self.dim}")
        gx = self.gram.apply(y)
        return sum((a * b for a, b in zip(x, gx)), frac(0))


class Representation(Record):
    """Module (V, rho, beta) over a Hom-Lie algebra.

    ``rho[i]`` is the action matrix of the i-th basis vector on V.
    """

    algebra_dim: int
    module_dim: int
    rho: tuple[Matrix, ...]
    beta: Matrix

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(self.rho))
        m = self.module_dim
        if len(self.rho) != self.algebra_dim:
            raise DimensionMismatch("need one action matrix per basis vector")
        if any(r.shape != (m, m) for r in self.rho) or self.beta.shape != (m, m):
            raise DimensionMismatch("action matrices must be module_dim x module_dim")

    def rho_vec(self, x: Sequence) -> Matrix:
        out = Matrix.zeros(self.module_dim, self.module_dim)
        for i, xi in _sparse(x, self.algebra_dim).items():
            out = out + self.rho[i].scale(xi)
        return out


class AlphaClass(Record):
    """Classification of a twist map.

    ``involutive`` means alpha is an involutive automorphism of the bracket
    (alpha^2 = id and alpha multiplicative), so involutive implies regular.
    """

    tag: str
    multiplicative: bool
    regular: bool
    involutive: bool
    nilpotent: bool


class HomLieReport(Record):
    skew: bool
    hom_jacobi: bool
    skew_witness: tuple | None = None
    jacobi_witness: tuple | None = None
    jacobi_residual: Vector | None = None

    @property
    def ok(self) -> bool:
        return self.skew and self.hom_jacobi


class QuadraticReport(Record):
    symmetric: bool
    nondegenerate: bool
    invariant: bool
    alpha_symmetric: bool
    symmetric_witness: tuple | None = None
    degenerate_witness: Vector | None = None
    invariant_witness: tuple | None = None
    alpha_witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return (
            self.symmetric
            and self.nondegenerate
            and self.invariant
            and self.alpha_symmetric
        )


class ExtensionData1D(Record):
    """Data (delta, x0, lam, lam0) for a one-dimensional double extension."""

    delta: Matrix
    x0: tuple[Fraction, ...]
    lam: Fraction
    lam0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x0", vec(self.x0))
        object.__setattr__(self, "lam", frac(self.lam))
        object.__setattr__(self, "lam0", frac(self.lam0))


class InvolutiveExtensionData(Record):
    """Module action and form data (phi, gamma) for the involutive extension."""

    phi: tuple[Matrix, ...]
    gamma: BilinearForm

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))


def _ad_alpha(g: HomAlgebra) -> list[list[SparseRow]]:
    """Sparse columns of ad(alpha(x_p)) for every p."""
    return [_ad_cols(g, col) for col in g.alpha.col_dicts()]


def _jacobi(g: HomAlgebra, ad_alpha, i: int, j: int, k: int) -> SparseRow:
    """[a(x_i),[x_j,x_k]] + [a(x_j),[x_k,x_i]] + [a(x_k),[x_i,x_j]] as a sparse row.

    ``ad_alpha[p]`` holds the sparse columns of ad(alpha(x_p)).
    """
    return combine_rows(
        (c, ad_alpha[a][r])
        for a, p, q in ((i, j, k), (j, k, i), (k, i, j))
        for r, c in g._rows.get((p, q), _EMPTY).items()
    )


def jacobiator(g: HomAlgebra, i: int, j: int, k: int) -> Vector:
    """Coefficients of [a(x_i),[x_j,x_k]] + [a(x_j),[x_k,x_i]] + [a(x_k),[x_i,x_j]]."""
    for idx in (i, j, k):
        if not 0 <= idx < g.dim:
            raise IndexOutOfRange(str(idx))
    return dense_row(_jacobi(g, _ad_alpha(g), i, j, k), g.dim)


def check_hom_lie(g: HomAlgebra) -> HomLieReport:
    """Verify the twisted Jacobi identity on all basis triples.

    Skew-symmetry always passes here: a HomAlgebra is given only the brackets
    of pairs i < j, so it is skew by construction.  Triples none of whose
    pairs has a nonzero bracket are skipped; their Jacobiator is zero.
    """
    n = g.dim
    pairs = g._rows
    ad_alpha = _ad_alpha(g)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (j, k) not in pairs and (i, k) not in pairs and (i, j) not in pairs:
                    continue
                res = _jacobi(g, ad_alpha, i, j, k)
                if res:
                    return HomLieReport(
                        True, False, jacobi_witness=(i, j, k), jacobi_residual=dense_row(res, n)
                    )
    return HomLieReport(True, True)


def bracket_mismatch(
    g: HomAlgebra, h: HomAlgebra, lhs: Matrix, terms: Sequence[tuple[Matrix, Matrix]]
) -> tuple[int, int] | None:
    """First basis pair i < j where lhs([x_i,x_j]) != sum of [P x_i, Q x_j] over terms.

    The brackets [x_i, x_j] are taken in g and [P x_i, Q x_j] in h; lhs and
    every P and Q map g into h.
    """
    n = g.dim
    shape = (h.dim, n)
    if lhs.shape != shape or any(m.shape != shape for pair in terms for m in pair):
        raise DimensionMismatch("maps must send g into h")
    left = lhs.col_dicts()
    maps = [(p.col_dicts(), q.col_dicts()) for p, q in terms]
    for i in range(n - 1):
        # the sparse columns [P x_i, x_r] of ad(P x_i), with Q's columns
        ads = [(_ad_cols(h, pc[i]), qc) for pc, qc in maps]
        for j in range(i + 1, n):
            rhs = combine_rows((c, ad[r]) for ad, qc in ads for r, c in qc[j].items())
            bij = g._rows.get((i, j), _EMPTY)
            if combine_rows((c, left[k]) for k, c in bij.items()) != rhs:
                return (i, j)
    return None


def multiplicativity_witness(g: HomAlgebra) -> tuple[int, int] | None:
    """First basis pair where alpha([x_i,x_j]) != [alpha(x_i),alpha(x_j)]."""
    return bracket_mismatch(g, g, g.alpha, ((g.alpha, g.alpha),))


def is_multiplicative(g: HomAlgebra) -> bool:
    return multiplicativity_witness(g) is None


def require_multiplicative(g: HomAlgebra, what: str = "twist map") -> None:
    """Raise ``NotMultiplicative`` at the first basis pair where the twist is no bracket morphism."""
    w = multiplicativity_witness(g)
    if w is not None:
        raise NotMultiplicative(f"{what} is not a bracket morphism", witness=w)


def is_nilpotent_matrix(a: Matrix) -> bool:
    """Is a nilpotent: a nilpotent n x n matrix has a^n = 0."""
    return a.power(a.rows).is_zero()


def classify_alpha(g: HomAlgebra) -> AlphaClass:
    """Classify the twist map of a Hom-Lie algebra.

    multiplicative: alpha is a bracket morphism; regular: an automorphism;
    involutive: an automorphism with alpha^2 = id; nilpotent: alpha^n = 0.
    """
    mult = is_multiplicative(g)
    invertible = g.alpha.inverse() is not None
    regular = mult and invertible
    involutive = mult and g.alpha.power(2).is_identity()
    nilpotent = is_nilpotent_matrix(g.alpha)
    if involutive:
        tag = "involutive"
    elif regular:
        tag = "regular"
    elif nilpotent:
        tag = "nilpotent"
    elif mult:
        tag = "multiplicative"
    else:
        tag = "general"
    return AlphaClass(tag, mult, regular, involutive, nilpotent)


def check_quadratic(g: HomAlgebra, b: BilinearForm) -> QuadraticReport:
    """Check that b is an invariant scalar product compatible with the twist.

    invariant: B([x,y],z) = B(x,[y,z]) on basis triples;
    alpha_symmetric: gram @ alpha = alpha^T @ gram.
    """
    if b.dim != g.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    n = g.dim
    gram = b.gram
    # the first asymmetric entry in row-major order always has i < j
    sym_witness = first_mismatch(gram, gram.transpose())
    ker = kernel(gram)
    nondeg = ker.is_zero()
    degenerate_witness = None if nondeg else ker.vectors()[0]
    inv_witness = None
    grows, gcols = gram.row_dicts, gram.col_dicts()
    # B([x_p,x_q], .) and B(., [x_p,x_q]) for the pairs p < q, and B([x_q,x_p], .)
    left, right = {}, {}
    for (p, q), v in g._rows.items():
        if p < q:
            row = left[(p, q)] = combine_rows((c, grows[k]) for k, c in v.items())
            left[(q, p)] = {k: -x for k, x in row.items()}
            right[(p, q)] = combine_rows((c, gcols[k]) for k, c in v.items())
    for i in range(n):
        lhs = [left.get((i, y), _EMPTY) for y in range(n)]  # (y,z) -> B([x_i,x_y],x_z)
        rhs = [{} for _ in range(n)]  # (y,z) -> B(x_i,[x_y,x_z])
        for (y, z), v in right.items():
            c = v.get(i)
            if c:
                rhs[y][z], rhs[z][y] = c, -c
        if lhs != rhs:
            inv_witness = (i,) + first_mismatch(Matrix.from_row_dicts(lhs, n), Matrix.from_row_dicts(rhs, n))
            break
    alpha_witness = first_mismatch(gram @ g.alpha, g.alpha.transpose() @ gram)
    return QuadraticReport(
        sym_witness is None,
        nondeg,
        inv_witness is None,
        alpha_witness is None,
        sym_witness,
        degenerate_witness,
        inv_witness,
        alpha_witness,
    )


def check_hom_quadratic(g: HomAlgebra, b: BilinearForm, gamma: Matrix) -> bool:
    """Twisted invariance B([x,y],gamma(z)) = -B(gamma(y),[x,z]) on basis triples."""
    if b.dim != g.dim or gamma.shape != (g.dim, g.dim):
        raise DimensionMismatch("incompatible dimensions")
    n = g.dim
    left = (b.gram @ gamma).row_dicts  # rows of (u,w) -> B(u,gamma(w))
    right = (gamma.transpose() @ b.gram).col_dicts()  # columns of (u,w) -> B(gamma(u),w)
    for i in range(n):
        ad = [g._rows.get((i, y), _EMPTY) for y in range(n)]  # [x_i, x_y]
        lhs = [combine_rows((c, left[k]) for k, c in v.items()) for v in ad]
        rhs = [{} for _ in range(n)]
        for z, v in enumerate(ad):
            for y, c in combine_rows((c, right[k]) for k, c in v.items()).items():
                rhs[y][z] = -c
        # (y,z) -> B([x_i,x_y],gamma(x_z)) against (y,z) -> -B(gamma(x_y),[x_i,x_z])
        if lhs != rhs:
            return False
    return True


class QuadraticHomAlgebra(Record):
    """A Hom-Lie algebra with a validated invariant scalar product."""

    algebra: HomAlgebra
    form: BilinearForm

    def __post_init__(self):
        report = check_quadratic(self.algebra, self.form)
        failed = [f for f in ("symmetric", "nondegenerate", "invariant", "alpha_symmetric") if not getattr(report, f)]
        if failed:
            raise ValueError(f"not a quadratic structure: {', '.join(failed)} failed")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def gram(self) -> Matrix:
        return self.form.gram

    @property
    def alpha(self) -> Matrix:
        return self.algebra.alpha

    def __repr__(self):
        return f"QuadraticHomAlgebra(dim={self.dim})"


def representation_witness(g: HomAlgebra, r: Representation) -> tuple[int, int] | None:
    """First basis pair i < j where the module axiom fails, or None.

    The axiom is rho([x,y]) beta = rho(a(x)) rho(y) - rho(a(y)) rho(x); both
    sides are compared one sparse column at a time.
    """
    if r.algebra_dim != g.dim:
        raise DimensionMismatch("representation is over a different algebra")
    n, m = g.dim, r.module_dim
    rho = [a.col_dicts() for a in r.rho]
    beta, alpha = r.beta.col_dicts(), g.alpha.col_dicts()
    # the columns of rho(x_k) beta and of rho(a(x_k))
    rho_beta = [
        [combine_rows((c, cols[t]) for t, c in beta[s].items()) for s in range(m)] for cols in rho
    ]
    rho_alpha = [
        [combine_rows((c, rho[p][s]) for p, c in alpha[k].items()) for s in range(m)]
        for k in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            bij = g._rows.get((i, j), _EMPTY)
            for s in range(m):
                lhs = combine_rows((c, rho_beta[k][s]) for k, c in bij.items())
                rhs = combine_rows(chain(
                    ((c, rho_alpha[i][t]) for t, c in rho[j][s].items()),
                    ((-c, rho_alpha[j][t]) for t, c in rho[i][s].items()),
                ))
                if lhs != rhs:
                    return (i, j)
    return None


def check_representation(g: HomAlgebra, r: Representation) -> bool:
    """Module axiom rho([x,y]) beta = rho(a(x)) rho(y) - rho(a(y)) rho(x)."""
    return representation_witness(g, r) is None


def hom_associativity_witness(a: AssocAlgebra) -> tuple[int, int, int] | None:
    """First basis triple where mu(a(x), mu(y,z)) != mu(mu(x,y), a(z)), or None."""
    n = a.dim
    alpha = a.alpha.col_dicts()
    units = [{q: _ONE} for q in range(n)]
    # the sparse columns mu(a(x_i), x_q) and mu(x_p, a(x_k))
    left = [[_product(a._rows, alpha[i], e) for e in units] for i in range(n)]
    right = [[_product(a._rows, e, alpha[k]) for e in units] for k in range(n)]
    for i in range(n):
        for j in range(n):
            pij = a._rows.get((i, j), _EMPTY)
            for k in range(n):
                lhs = combine_rows((c, left[i][q]) for q, c in a._rows.get((j, k), _EMPTY).items())
                rhs = combine_rows((c, right[k][p]) for p, c in pij.items())
                if lhs != rhs:
                    return (i, j, k)
    return None


def product_mismatch(a: AssocAlgebra, f: Matrix) -> tuple[int, int] | None:
    """First basis pair (i, j) in row-major order where f(x_i x_j) != f(x_i) f(x_j), or None."""
    if f.shape != (a.dim, a.dim):
        raise DimensionMismatch("f must be dim x dim")
    cols = f.col_dicts()
    for i in range(a.dim):
        for j in range(a.dim):
            image = combine_rows((c, cols[k]) for k, c in a._rows.get((i, j), _EMPTY).items())
            if image != _product(a._rows, cols[i], cols[j]):
                return (i, j)
    return None


def check_hom_associative(a: AssocAlgebra) -> bool:
    """Twisted associativity mu(a(x), mu(y,z)) = mu(mu(x,y), a(z))."""
    return hom_associativity_witness(a) is None


def commutator_hom_lie(a: AssocAlgebra) -> HomAlgebra:
    """Commutator bracket [x,y] = mu(x,y) - mu(y,x) of a Hom-associative algebra."""
    w = hom_associativity_witness(a)
    if w is not None:
        raise NotHomAssociative("input fails twisted associativity", witness=w)
    rows = a._rows
    pairs = {(min(i, j), max(i, j)) for i, j in rows if i != j}
    bracket = {
        (i, j): dense_row(
            combine_rows(((_ONE, rows.get((i, j), _EMPTY)), (-_ONE, rows.get((j, i), _EMPTY)))),
            a.dim,
        )
        for i, j in pairs
    }
    return HomAlgebra(a.dim, bracket, a.alpha)


def check_morphism(g: HomAlgebra, h: HomAlgebra, f: Matrix) -> bool:
    """Is f a morphism of Hom-algebras: f[x,y] = [f x, f y] and f a = a' f."""
    if f.shape != (h.dim, g.dim):
        raise DimensionMismatch("f must map g into h")
    if f @ g.alpha != h.alpha @ f:
        return False
    return bracket_mismatch(g, h, f, ((f, f),)) is None


def is_lie_algebra(g: HomAlgebra) -> bool:
    """Does the bracket alone satisfy the classical Jacobi identity."""
    return check_hom_lie(g.with_alpha(Matrix.identity(g.dim))).hom_jacobi
