"""Core Hom-algebra types and axiom checks.

A Hom-Lie algebra is a triple (g, [.,.], alpha): a skew bilinear bracket
together with a linear twist map, subject to the twisted Jacobi identity

    [alpha(x),[y,z]] + [alpha(y),[z,x]] + [alpha(z),[x,y]] = 0.

Everything is stored by structure constants over exact rationals.  All checks
quantify over basis tuples only; bilinearity makes that complete.  Failed
checks report the first violating index tuple in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatch, IndexOutOfRange, NotHomAssociative
from .exactlin import (
    Matrix,
    Subspace,
    combine_rows,
    dense_row,
    first_mismatch,
    frac,
    kernel,
    solve_rows,
    sparse_rows,
    sub_vec,
    vec,
    zero_vec,
)

Vector = tuple[Fraction, ...]
Tensor = tuple[tuple[Vector, ...], ...]
SparseRow = dict[int, Fraction]
_ONE = Fraction(1)
_EMPTY: SparseRow = {}  # shared, never written


def _tensor(dim: int, raw) -> Tensor:
    t = tuple(tuple(vec(v) for v in plane) for plane in raw)
    if len(t) != dim or any(
        len(plane) != dim or any(len(v) != dim for v in plane) for plane in t
    ):
        raise DimensionMismatch("structure tensor must be dim x dim x dim")
    return t


def _axpy(out: list, c: Fraction, v: Vector):
    """out += c * v, skipping the zero entries of v."""
    for k, vk in enumerate(v):
        if vk:
            out[k] += c * vk


def _bilinear(t: Tensor, x: Sequence, y: Sequence) -> Vector:
    """Coefficients of the product of x and y under structure tensor t."""
    x, y = vec(x), vec(y)
    dim = len(t)
    out = list(zero_vec(dim))
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            _axpy(out, xi * yj, t[i][j])
    return tuple(out)


def _bracket_terms(
    g: HomAlgebra, x: Iterable[tuple[int, Fraction]], y: Sequence[tuple[int, Fraction]]
) -> list[tuple[Fraction, SparseRow]]:
    """(c, [x_p, x_q]) terms that ``combine_rows`` sums to [x, y].

    x and y are given by their nonzero (index, coefficient) pairs.
    """
    rows = g._rows
    terms = []
    for p, a in x:
        for q, b in y:
            if p < q:
                row = rows.get((p, q))
                if row:
                    terms.append((a * b, row))
            elif q < p:
                row = rows.get((q, p))
                if row:
                    terms.append((-a * b, row))
    return terms


def _ad_cols(g: HomAlgebra, x: Iterable[tuple[int, Fraction]]) -> list[SparseRow]:
    """Columns [x, x_q] of ad(x) as sparse rows, for x given by its nonzero entries."""
    x = list(x)
    return [combine_rows(_bracket_terms(g, x, ((q, _ONE),))) for q in range(g.dim)]


def _skew(table: dict[tuple[int, int], SparseRow], p: int, q: int) -> SparseRow:
    """Row (p, q) of a table kept over the pairs p < q and skew in (p, q)."""
    if p < q:
        return table.get((p, q), _EMPTY)
    return {k: -x for k, x in table.get((q, p), _EMPTY).items()}


class HomAlgebra:
    """Finite-dimensional Hom-algebra with a skew-symmetric bracket.

    ``bracket`` maps each basis pair (i, j) with i < j and [x_i, x_j] != 0 to
    the coefficient vector of [x_i, x_j], keys in lexicographic order; every
    other bracket of basis vectors follows by skew-symmetry, so the bracket
    is skew by construction.  The same brackets are also kept as sparse rows,
    from which every bracket is evaluated.
    """

    __slots__ = ("dim", "bracket", "alpha", "_rows")

    def __init__(self, dim: int, bracket, alpha: Matrix):
        pairs, rows = {}, {}
        for (i, j), v in bracket.items():
            if not 0 <= i < j < dim:
                raise IndexOutOfRange(f"bracket entry ({i},{j}) needs 0 <= i < j < dim")
            w = vec(v)
            if len(w) != dim:
                raise DimensionMismatch(f"bracket entry ({i},{j}) needs dim coefficients")
            row = {k: c for k, c in enumerate(w) if c}
            if row:
                pairs[(i, j)], rows[(i, j)] = w, row
        if alpha.shape != (dim, dim):
            raise DimensionMismatch("alpha must be dim x dim")
        keys = sorted(pairs)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bracket", MappingProxyType({ij: pairs[ij] for ij in keys}))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_rows", {ij: rows[ij] for ij in keys})

    def __setattr__(self, *_):
        raise AttributeError("HomAlgebra is immutable")

    # basic algebra ---------------------------------------------------------
    def _entries(self, x: Sequence) -> list[tuple[int, Fraction]]:
        """The nonzero (index, coefficient) pairs of a coefficient vector."""
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch(f"coefficient vector of length {len(x)} for dim {self.dim}")
        return [(k, c) for k, c in enumerate(x) if c]

    def basis_bracket(self, i: int, j: int) -> Vector:
        """Coefficients of [x_i, x_j] for any ordered pair of basis indices."""
        if i < j:
            return self.bracket.get((i, j), zero_vec(self.dim))
        if i > j and (j, i) in self.bracket:
            return tuple(-c if c else c for c in self.bracket[(j, i)])  # zeros reused
        return zero_vec(self.dim)

    def bracket_vec(self, x: Sequence, y: Sequence) -> Vector:
        terms = _bracket_terms(self, self._entries(x), self._entries(y))
        return dense_row(combine_rows(terms), self.dim)

    def structure_constants(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """Every nonzero (i, j, k, c) with c the x_k coefficient of [x_i, x_j].

        Both orders of each stored pair are given, with opposite signs.
        """
        for (i, j), row in self._rows.items():
            for k, c in row.items():
                yield i, j, k, c
                yield j, i, k, -c

    def ad_entries(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
        """(r, s) -> every (p, c) with c = ad_p[r][s] != 0, the x_r coefficient of [x_p, x_s]."""
        entries = {}
        for p, s, r, c in self.structure_constants():
            entries.setdefault((r, s), []).append((p, c))
        return entries

    def ad(self, i: int) -> Matrix:
        """Matrix of [x_i, .] acting on column vectors."""
        if not 0 <= i < self.dim:
            raise IndexOutOfRange(str(i))
        return Matrix(zip(*(self.basis_bracket(i, j) for j in range(self.dim))))

    def ad_matrices(self) -> list[Matrix]:
        return [self.ad(i) for i in range(self.dim)]

    def ad_vec(self, x: Sequence) -> Matrix:
        """Matrix of [x, .] for an arbitrary coefficient vector x."""
        cols = _ad_cols(self, self._entries(x))
        return Matrix(zip(*(dense_row(c, self.dim) for c in cols)))

    def alpha_col(self, i: int) -> Vector:
        return self.alpha.col(i)

    def is_abelian(self) -> bool:
        return not self.bracket

    def with_alpha(self, alpha: Matrix) -> "HomAlgebra":
        return HomAlgebra(self.dim, self.bracket, alpha)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomAlgebra)
            and self.dim == other.dim
            and self.bracket == other.bracket
            and self.alpha == other.alpha
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.bracket.items()), self.alpha))

    def __repr__(self):
        return f"HomAlgebra(dim={self.dim})"


def center(g: HomAlgebra) -> Subspace:
    """Center {x : [x, y] = 0 for all y}: kernel of the stacked adjoints."""
    rows = {}  # row k of ad_i, as its nonzero entries
    for i, j, k, c in g.structure_constants():
        rows.setdefault((i, k), {})[j] = c
    return solve_rows(rows.values(), g.dim)[1]


def bracket_table(g: HomAlgebra, left: Matrix, right: Matrix) -> dict[tuple[int, int], Vector]:
    """Brackets [left(x_i), right(x_j)] over the basis pairs i < j."""
    lcols = [left.col(i) for i in range(g.dim)]
    rcols = [right.col(j) for j in range(g.dim)]
    return {
        (i, j): g.bracket_vec(lcols[i], rcols[j])
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
    }


class AssocAlgebra:
    """Hom-associative algebra: product tensor without skew symmetry."""

    __slots__ = ("dim", "product", "alpha")

    def __init__(self, dim: int, product, alpha: Matrix):
        t = _tensor(dim, product)
        if alpha.shape != (dim, dim):
            raise DimensionMismatch("alpha must be dim x dim")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "product", t)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, *_):
        raise AttributeError("AssocAlgebra is immutable")

    def product_vec(self, x: Sequence, y: Sequence) -> Vector:
        return _bilinear(self.product, x, y)

    def is_commutative(self) -> bool:
        return all(
            self.product[i][j] == self.product[j][i]
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def __repr__(self):
        return f"AssocAlgebra(dim={self.dim})"


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear form B(x, y) = x^T gram y."""

    dim: int
    gram: Matrix

    def __post_init__(self):
        if self.gram.shape != (self.dim, self.dim):
            raise DimensionMismatch("gram must be dim x dim")

    def value(self, x: Sequence, y: Sequence) -> Fraction:
        gx = self.gram.apply(y)
        return sum((a * b for a, b in zip(vec(x), gx)), frac(0))

    def is_symmetric(self) -> bool:
        return self.gram.is_symmetric()


@dataclass(frozen=True)
class Representation:
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
        for i, xi in enumerate(vec(x)):
            if xi != 0:
                out = out + self.rho[i].scale(xi)
        return out


@dataclass(frozen=True)
class AlphaClass:
    """Classification of a twist map.

    ``involutive`` means alpha is an involutive automorphism of the bracket
    (alpha^2 = id and alpha multiplicative), so involutive implies regular.
    """

    tag: str
    multiplicative: bool
    regular: bool
    involutive: bool
    nilpotent: bool


@dataclass(frozen=True)
class HomLieReport:
    skew: bool
    hom_jacobi: bool
    skew_witness: Optional[tuple] = None
    jacobi_witness: Optional[tuple] = None
    jacobi_residual: Optional[Vector] = None

    @property
    def ok(self) -> bool:
        return self.skew and self.hom_jacobi


@dataclass(frozen=True)
class QuadraticReport:
    symmetric: bool
    nondegenerate: bool
    invariant: bool
    alpha_symmetric: bool
    symmetric_witness: Optional[tuple] = None
    degenerate_witness: Optional[Vector] = None
    invariant_witness: Optional[tuple] = None
    alpha_witness: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return (
            self.symmetric
            and self.nondegenerate
            and self.invariant
            and self.alpha_symmetric
        )


def _cols(m: Matrix) -> list[SparseRow]:
    return sparse_rows(zip(*m.data))


def _ad_alpha(g: HomAlgebra) -> list[list[SparseRow]]:
    """Sparse columns of ad(alpha(x_p)) for every p."""
    return [_ad_cols(g, col.items()) for col in _cols(g.alpha)]


def _jacobi(g: HomAlgebra, ad_alpha, i: int, j: int, k: int) -> SparseRow:
    """[a(x_i),[x_j,x_k]] + [a(x_j),[x_k,x_i]] + [a(x_k),[x_i,x_j]] as a sparse row.

    ``ad_alpha[p]`` holds the sparse columns of ad(alpha(x_p)).
    """
    return combine_rows(
        (c, ad_alpha[a][r])
        for a, p, q in ((i, j, k), (j, k, i), (k, i, j))
        for r, c in _skew(g._rows, p, q).items()
    )


def jacobiator(g: HomAlgebra, i: int, j: int, k: int) -> Vector:
    """Coefficients of [a(x_i),[x_j,x_k]] + [a(x_j),[x_k,x_i]] + [a(x_k),[x_i,x_j]]."""
    for idx in (i, j, k):
        if not 0 <= idx < g.dim:
            raise IndexOutOfRange(str(idx))
    return dense_row(_jacobi(g, _ad_alpha(g), i, j, k), g.dim)


def check_hom_lie(g: HomAlgebra) -> HomLieReport:
    """Verify the twisted Jacobi identity on all basis triples.

    Skew-symmetry always passes here: a HomAlgebra stores only the brackets
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
) -> Optional[tuple[int, int]]:
    """First basis pair i < j where lhs([x_i,x_j]) != sum of [P x_i, Q x_j] over terms.

    The brackets [x_i, x_j] are taken in g and [P x_i, Q x_j] in h; lhs and
    every P and Q map g into h.
    """
    n = g.dim
    shape = (h.dim, n)
    if lhs.shape != shape or any(m.shape != shape for pair in terms for m in pair):
        raise DimensionMismatch("maps must send g into h")
    left = _cols(lhs)
    maps = [(_cols(p), _cols(q)) for p, q in terms]
    for i in range(n - 1):
        # the sparse columns [P x_i, x_r] of ad(P x_i), with Q's columns
        ads = [(_ad_cols(h, pc[i].items()), qc) for pc, qc in maps]
        for j in range(i + 1, n):
            rhs = combine_rows((c, ad[r]) for ad, qc in ads for r, c in qc[j].items())
            bij = g._rows.get((i, j), _EMPTY)
            if combine_rows((c, left[k]) for k, c in bij.items()) != rhs:
                return (i, j)
    return None


def multiplicativity_witness(g: HomAlgebra) -> Optional[tuple[int, int]]:
    """First basis pair where alpha([x_i,x_j]) != [alpha(x_i),alpha(x_j)]."""
    return bracket_mismatch(g, g, g.alpha, ((g.alpha, g.alpha),))


def is_multiplicative(g: HomAlgebra) -> bool:
    return multiplicativity_witness(g) is None


def is_nilpotent_matrix(a: Matrix) -> bool:
    p = a
    for _ in range(a.rows):
        if p.is_zero():
            return True
        p = p @ a
    return p.is_zero()


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


def _first_row_mismatch(a: Sequence[SparseRow], b: Sequence[SparseRow]) -> Optional[tuple[int, int]]:
    """First entry (y, z) in row-major order where two lists of sparse rows differ."""
    for y, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return y, min(z for z in ra.keys() | rb.keys() if ra.get(z) != rb.get(z))
    return None


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
    grows, gcols = sparse_rows(gram.data), _cols(gram)
    # B([x_p,x_q], .) and B(., [x_p,x_q]) for the stored pairs p < q
    left = {pq: combine_rows((c, grows[k]) for k, c in v.items()) for pq, v in g._rows.items()}
    right = {pq: combine_rows((c, gcols[k]) for k, c in v.items()) for pq, v in g._rows.items()}
    for i in range(n):
        lhs = [_skew(left, i, y) for y in range(n)]  # (y,z) -> B([x_i,x_y],x_z)
        rhs = [{} for _ in range(n)]  # (y,z) -> B(x_i,[x_y,x_z])
        for (y, z), v in right.items():
            c = v.get(i)
            if c:
                rhs[y][z], rhs[z][y] = c, -c
        w = _first_row_mismatch(lhs, rhs)
        if w is not None:
            inv_witness = (i,) + w
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
    left = sparse_rows((b.gram @ gamma).data)  # rows of (u,w) -> B(u,gamma(w))
    right = _cols(gamma.transpose() @ b.gram)  # columns of (u,w) -> B(gamma(u),w)
    for i in range(n):
        ad = [_skew(g._rows, i, y) for y in range(n)]  # [x_i, x_y]
        lhs = [combine_rows((c, left[k]) for k, c in v.items()) for v in ad]
        rhs = [{} for _ in range(n)]
        for z, v in enumerate(ad):
            for y, c in combine_rows((c, right[k]) for k, c in v.items()).items():
                rhs[y][z] = -c
        # (y,z) -> B([x_i,x_y],gamma(x_z)) against (y,z) -> -B(gamma(x_y),[x_i,x_z])
        if lhs != rhs:
            return False
    return True


class QuadraticHomAlgebra:
    """A Hom-Lie algebra with a validated invariant scalar product."""

    __slots__ = ("algebra", "form")

    def __init__(self, algebra: HomAlgebra, form: BilinearForm):
        report = check_quadratic(algebra, form)
        if not report.ok:
            failed = [
                name
                for name, okay in (
                    ("symmetric", report.symmetric),
                    ("nondegenerate", report.nondegenerate),
                    ("invariant", report.invariant),
                    ("alpha_symmetric", report.alpha_symmetric),
                )
                if not okay
            ]
            raise ValueError(f"not a quadratic structure: {', '.join(failed)} failed")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "form", form)

    def __setattr__(self, *_):
        raise AttributeError("QuadraticHomAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def gram(self) -> Matrix:
        return self.form.gram

    @property
    def alpha(self) -> Matrix:
        return self.algebra.alpha

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticHomAlgebra)
            and self.algebra == other.algebra
            and self.form.gram == other.form.gram
        )

    def __hash__(self):
        return hash((self.algebra, self.form.gram))

    def __repr__(self):
        return f"QuadraticHomAlgebra(dim={self.dim})"


def representation_witness(g: HomAlgebra, r: Representation) -> Optional[tuple[int, int]]:
    """First basis pair i < j where the module axiom fails, or None.

    The axiom is rho([x,y]) beta = rho(a(x)) rho(y) - rho(a(y)) rho(x); both
    sides are compared one sparse column at a time.
    """
    if r.algebra_dim != g.dim:
        raise DimensionMismatch("representation is over a different algebra")
    n, m = g.dim, r.module_dim
    rho = [_cols(a) for a in r.rho]
    beta, alpha = _cols(r.beta), _cols(g.alpha)
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


def hom_associativity_witness(a: AssocAlgebra) -> Optional[tuple[int, int, int]]:
    """First basis triple where mu(a(x), mu(y,z)) != mu(mu(x,y), a(z)), or None."""
    n = a.dim
    for i in range(n):
        ai = a.alpha.col(i)
        for j in range(n):
            for k in range(n):
                lhs = a.product_vec(ai, a.product[j][k])
                rhs = a.product_vec(a.product[i][j], a.alpha.col(k))
                if lhs != rhs:
                    return (i, j, k)
    return None


def check_hom_associative(a: AssocAlgebra) -> bool:
    """Twisted associativity mu(a(x), mu(y,z)) = mu(mu(x,y), a(z))."""
    return hom_associativity_witness(a) is None


def commutator_hom_lie(a: AssocAlgebra) -> HomAlgebra:
    """Commutator bracket [x,y] = mu(x,y) - mu(y,x) of a Hom-associative algebra."""
    w = hom_associativity_witness(a)
    if w is not None:
        raise NotHomAssociative("input fails twisted associativity", witness=w)
    n = a.dim
    bracket = {
        (i, j): sub_vec(a.product[i][j], a.product[j][i])
        for i in range(n)
        for j in range(i + 1, n)
    }
    return HomAlgebra(n, bracket, a.alpha)


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
