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
from types import MappingProxyType
from typing import Iterator, Optional, Sequence

from .errors import DimensionMismatch, IndexOutOfRange, NotHomAssociative
from .exactlin import (
    Matrix,
    Subspace,
    add_vec,
    first_mismatch,
    frac,
    is_zero_vec,
    kernel,
    solve_rows,
    sub_vec,
    vec,
    zero_vec,
)

Vector = tuple[Fraction, ...]
Tensor = tuple[tuple[Vector, ...], ...]


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


class HomAlgebra:
    """Finite-dimensional Hom-algebra with a skew-symmetric bracket.

    ``bracket`` maps each basis pair (i, j) with i < j and [x_i, x_j] != 0 to
    the coefficient vector of [x_i, x_j], keys in lexicographic order; every
    other bracket of basis vectors follows by skew-symmetry, so the bracket
    is skew by construction.
    """

    __slots__ = ("dim", "bracket", "alpha")

    def __init__(self, dim: int, bracket, alpha: Matrix):
        pairs = {}
        for (i, j), v in bracket.items():
            if not 0 <= i < j < dim:
                raise IndexOutOfRange(f"bracket entry ({i},{j}) needs 0 <= i < j < dim")
            w = vec(v)
            if len(w) != dim:
                raise DimensionMismatch(f"bracket entry ({i},{j}) needs dim coefficients")
            if not is_zero_vec(w):
                pairs[(i, j)] = w
        if alpha.shape != (dim, dim):
            raise DimensionMismatch("alpha must be dim x dim")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bracket", MappingProxyType(dict(sorted(pairs.items()))))
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, *_):
        raise AttributeError("HomAlgebra is immutable")

    # basic algebra ---------------------------------------------------------
    def basis_bracket(self, i: int, j: int) -> Vector:
        """Coefficients of [x_i, x_j] for any ordered pair of basis indices."""
        if i < j:
            return self.bracket.get((i, j), zero_vec(self.dim))
        if i > j and (j, i) in self.bracket:
            return tuple(-c if c else c for c in self.bracket[(j, i)])  # zeros reused
        return zero_vec(self.dim)

    def bracket_vec(self, x: Sequence, y: Sequence) -> Vector:
        x, y = vec(x), vec(y)
        out = list(zero_vec(self.dim))
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in ys:
                if i < j and (i, j) in self.bracket:
                    _axpy(out, xi * yj, self.bracket[(i, j)])
                elif i > j and (j, i) in self.bracket:
                    _axpy(out, -xi * yj, self.bracket[(j, i)])
        return tuple(out)

    def structure_constants(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """Every nonzero (i, j, k, c) with c the x_k coefficient of [x_i, x_j].

        Both orders of each stored pair are given, with opposite signs.
        """
        for (i, j), v in self.bracket.items():
            for k, c in enumerate(v):
                if c:
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
        x = vec(x)
        cols = [list(zero_vec(self.dim)) for _ in range(self.dim)]
        for (i, j), v in self.bracket.items():
            if x[i]:
                _axpy(cols[j], x[i], v)
            if x[j]:
                _axpy(cols[i], -x[j], v)
        return Matrix(zip(*cols))

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


def jacobiator(g: HomAlgebra, i: int, j: int, k: int) -> Vector:
    """Coefficients of [a(x_i),[x_j,x_k]] + [a(x_j),[x_k,x_i]] + [a(x_k),[x_i,x_j]]."""
    for idx in (i, j, k):
        if not 0 <= idx < g.dim:
            raise IndexOutOfRange(str(idx))
    t1 = g.bracket_vec(g.alpha_col(i), g.basis_bracket(j, k))
    t2 = g.bracket_vec(g.alpha_col(j), g.basis_bracket(k, i))
    t3 = g.bracket_vec(g.alpha_col(k), g.basis_bracket(i, j))
    return add_vec(add_vec(t1, t2), t3)


_SparseRows = list[tuple[tuple[int, Fraction], ...]]


def _sparse_rows(m: Matrix) -> _SparseRows:
    return [tuple((j, x) for j, x in enumerate(row) if x) for row in m.data]


def _sparse_apply(srows: _SparseRows, v) -> list[Fraction]:
    out = []
    for row in srows:
        acc = Fraction(0)
        for j, c in row:
            if v[j]:
                acc += c * v[j]
        out.append(acc)
    return out


def check_hom_lie(g: HomAlgebra) -> HomLieReport:
    """Verify the twisted Jacobi identity on all basis triples.

    Skew-symmetry always passes here: a HomAlgebra stores only the brackets
    of pairs i < j, so it is skew by construction.
    """
    n = g.dim
    pairs = g.bracket
    ad_alpha = [_sparse_rows(g.ad_vec(g.alpha_col(i))) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (j, k) not in pairs and (i, k) not in pairs and (i, j) not in pairs:
                    continue
                t1 = _sparse_apply(ad_alpha[i], g.basis_bracket(j, k))
                t2 = _sparse_apply(ad_alpha[j], g.basis_bracket(i, k))  # -[x_k, x_i]
                t3 = _sparse_apply(ad_alpha[k], g.basis_bracket(i, j))
                res = tuple(a - b + c for a, b, c in zip(t1, t2, t3))
                if not is_zero_vec(res):
                    return HomLieReport(True, False, jacobi_witness=(i, j, k), jacobi_residual=res)
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
    left = _sparse_rows(lhs)
    qcols = [[q.col(j) for j in range(n)] for _, q in terms]
    for i in range(n - 1):
        ads = [_sparse_rows(h.ad_vec(p.col(i))) for p, _ in terms]
        for j in range(i + 1, n):
            rhs = _sparse_apply(ads[0], qcols[0][j])
            for ad, cols in zip(ads[1:], qcols[1:]):
                rhs = [a + b for a, b in zip(rhs, _sparse_apply(ad, cols[j]))]
            if _sparse_apply(left, g.basis_bracket(i, j)) != rhs:
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
    gram_brackets = {jk: gram.apply(v) for jk, v in g.bracket.items()}  # B(., [y,z])
    for i in range(n):
        lhs = g.ad(i).transpose() @ gram  # (y,z) -> B([x_i,y],z)
        rhs = [[frac(0)] * n for _ in range(n)]  # (y,z) -> B(x_i,[y,z])
        for (j, k), col in gram_brackets.items():
            rhs[j][k], rhs[k][j] = col[i], -col[i]
        w = first_mismatch(lhs, Matrix(rhs))
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
    gram_gamma = b.gram @ gamma
    gamma_gram = gamma.transpose() @ b.gram
    # per x_i: (y,z) -> B([x_i,y],gamma(z)) against (y,z) -> -B(gamma(y),[x_i,z])
    return all(ad.transpose() @ gram_gamma == -(gamma_gram @ ad) for ad in g.ad_matrices())


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


def check_representation(g: HomAlgebra, r: Representation) -> bool:
    """Module axiom rho([x,y]) beta = rho(a(x)) rho(y) - rho(a(y)) rho(x)."""
    if r.algebra_dim != g.dim:
        raise DimensionMismatch("representation is over a different algebra")
    rho_alpha = [r.rho_vec(g.alpha_col(i)) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = r.rho_vec(g.basis_bracket(i, j)) @ r.beta
            rhs = rho_alpha[i] @ r.rho[j] - rho_alpha[j] @ r.rho[i]
            if lhs != rhs:
                return False
    return True


def check_hom_associative(a: AssocAlgebra) -> bool:
    """Twisted associativity mu(a(x), mu(y,z)) = mu(mu(x,y), a(z))."""
    n = a.dim
    for i in range(n):
        ai = a.alpha.col(i)
        for j in range(n):
            for k in range(n):
                lhs = a.product_vec(ai, a.product[j][k])
                rhs = a.product_vec(a.product[i][j], a.alpha.col(k))
                if lhs != rhs:
                    return False
    return True


def commutator_hom_lie(a: AssocAlgebra) -> HomAlgebra:
    """Commutator bracket [x,y] = mu(x,y) - mu(y,x) of a Hom-associative algebra."""
    if not check_hom_associative(a):
        raise NotHomAssociative("input fails twisted associativity")
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
