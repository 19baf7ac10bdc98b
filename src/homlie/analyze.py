"""Structural analysis of (quadratic) Hom-Lie algebras.

Centers, centroids, ideal closures, orthogonals, Fitting and orthogonal
decompositions, solvability, radicals, trace forms, a three-valued
simplicity test, and recognition of one-dimensional double extensions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import isqrt

from .build import (
    block_algebra,
    change_basis_quadratic,
    double_extension_parts,
    untwist_involutive,
)
from .errors import (
    CenterTrivial,
    DimensionMismatch,
    NoIsotropicCentralVector,
    NoRationalCentralEigenvector,
    NotAnIdeal,
    NotSubalgebra,
    PreconditionFailed,
    ReconstructionFailed,
)
from .exactlin import (
    Matrix,
    Subspace,
    eigenspace,
    is_zero_vec,
    kernel,
    kernel_image_power,
    rational_eigenpairs,
    solve_rows,
    sparse_row,
    sparse_rows,
    spin_up,
    sub_vec,
    unit_vec,
)
from .homalg import (
    BilinearForm,
    ExtensionData1D,
    HomAlgebra,
    QuadraticHomAlgebra,
    Record,
    center,
    is_multiplicative,
    require_multiplicative,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

SIMPLICITY_STREAM_SEED = 0x484F4D21
# pseudorandom seed vectors, and random certificate candidates, per verdict
SIMPLICITY_BUDGET = 24


# ---------------------------------------------------------------------------
# subspace-level structure
# ---------------------------------------------------------------------------

def centroid(g: HomAlgebra) -> Subspace:
    """Maps theta with theta[x,y] = [theta(x), y], as a subspace of End(g).

    Endomorphisms are flattened row major into Q^(n^2).
    """
    n = g.dim
    ads = g.ad_columns()  # ads[i][s] = {m: ad_i[m][s]}
    ad_rows = g.ad_entries()  # (r, s) -> (k, ad_k[r][s])

    def equations():
        # (theta @ ad_i)[r][s] - sum_k theta[k][i] ad_k[r][s] = 0
        for i in range(n):
            for r in range(n):
                for s in range(n):
                    row = sparse_row(chain(
                        ((r * n + m, c) for m, c in ads[i][s].items()),
                        ((k * n + i, -c) for k, c in ad_rows.get((r, s), ())),
                    ))
                    if row:
                        yield row

    return solve_rows(equations(), n * n)[1]


def ideal_closure(g: HomAlgebra, seed: Subspace) -> Subspace:
    """Smallest subspace containing seed closed under all [x_i, .] and alpha."""
    return spin_up([g.alpha.col_dicts()] + g.ad_columns(), seed)


def is_ideal(g: HomAlgebra, w: Subspace) -> bool:
    return ideal_closure(g, w) == w


def orthogonal_ideal(q: QuadraticHomAlgebra, i: Subspace) -> Subspace:
    """Orthogonal of an ideal with respect to the invariant form.

    The result is itself an ideal (a consequence of invariance and twist
    compatibility of the form); this is re-verified before returning.
    """
    if not is_ideal(q.algebra, i):
        raise NotAnIdeal("subspace is not closed under the bracket and twist")
    orth = orthogonal_subspace(q, i)
    if not is_ideal(q.algebra, orth):
        raise ReconstructionFailed("orthogonal of an ideal failed to be an ideal")
    return orth


def orthogonal_subspace(q: QuadraticHomAlgebra, w: Subspace) -> Subspace:
    if w.ambient_dim != q.dim:
        raise DimensionMismatch("subspace lives in a different space")
    if w.dim == 0:
        return Subspace.full(q.dim)
    return kernel(w.basis @ q.gram)


# ---------------------------------------------------------------------------
# Fitting decomposition and orthogonal decomposition
# ---------------------------------------------------------------------------

class FittingSplit(Record):
    """Twist-nilpotent and twist-invertible parts of a quadratic algebra."""

    i_part: Subspace
    j_part: Subspace
    n: int


def fitting_decomposition(q: QuadraticHomAlgebra) -> FittingSplit:
    """Split into ker(alpha^n) and im(alpha^n) for the stable power n.

    Both parts are ideals, bracket-orthogonal and form-orthogonal; verified
    mechanically before returning.
    """
    g = q.algebra
    require_multiplicative(g)
    n, ker_part, im_part = kernel_image_power(g.alpha)
    for name, part in (("kernel", ker_part), ("image", im_part)):
        if not is_ideal(g, part):
            raise ReconstructionFailed(f"fitting {name} part is not an ideal")
    im_rows = im_part.vectors()
    for u in ker_part.vectors():
        for v in im_rows:
            if not is_zero_vec(g.bracket_vec(u, v)):
                raise ReconstructionFailed("fitting parts do not commute")
            if q.form.value(u, v) != 0:
                raise ReconstructionFailed("fitting parts are not orthogonal")
    return FittingSplit(ker_part, im_part, n)


def decompose_irreducible(
    q: QuadraticHomAlgebra,
) -> list[tuple[Subspace, QuadraticHomAlgebra]]:
    """Recursive orthogonal splitting along nondegenerate candidate ideals.

    Returns (subspace, summand) pairs: each summand is q restricted to its
    subspace of q's space.  Summands are irreducible relative to the finite
    family of ``_candidate_ideals``; each split is verified by
    ``orthogonal_ideal``.
    """
    return _decompose(q, Subspace.full(q.dim))


def _candidate_ideals(q: QuadraticHomAlgebra):
    """Each candidate ideal of q, formed only when the search reaches it.

    In order: ker(alpha^dim), the Fitting kernel, when alpha is
    multiplicative, the closures of the center and of the derived span, and
    the closures of the rational twist eigenspaces; each proper nonzero one
    once.  Every candidate C is an ideal, so its orthogonal C-perp is one
    too (the form is invariant and twist-symmetric), and C-perp is
    nondegenerate exactly when C is: on both, the radical of the form is the
    intersection of C and C-perp.  So no orthogonal, nor the Fitting image
    (the orthogonal of the Fitting kernel), could split before its own
    ideal, and none is formed.
    """
    g = q.algebra

    def formed():
        if is_multiplicative(g):
            yield kernel(g.alpha.power(g.dim))
        yield ideal_closure(g, center(g))
        yield ideal_closure(g, Subspace.from_vectors(g.dim, g.bracket.values()))
        for _, eig in rational_eigenpairs(g.alpha):
            yield ideal_closure(g, eig)

    seen = []
    for c in formed():
        if 0 < c.dim < q.dim and c not in seen:
            seen.append(c)
            yield c


def _decompose(q: QuadraticHomAlgebra, embedding: Subspace):
    for cand in _candidate_ideals(q):
        basis = cand.basis
        sub_gram = basis @ q.gram @ basis.transpose()
        if sub_gram.rank() != cand.dim:
            continue
        orth = orthogonal_ideal(q, cand)
        t = change_basis_quadratic(q, Matrix(basis.data + orth.vectors()).transpose())
        left = block_algebra(t, 0, cand.dim)
        right = block_algebra(t, cand.dim, q.dim)
        return _decompose(left, _compose_embedding(embedding, cand)) + _decompose(
            right, _compose_embedding(embedding, orth)
        )
    return [(embedding, q)]


def _compose_embedding(embedding: Subspace, inner: Subspace) -> Subspace:
    # inner coords are relative to embedding's basis rows
    return Subspace(embedding.ambient_dim, inner.basis @ embedding.basis)


# ---------------------------------------------------------------------------
# solvability and radicals
# ---------------------------------------------------------------------------

def is_solvable(g: HomAlgebra, i: Subspace | None = None) -> bool:
    """Derived series test: D0 = i (or g), D(k+1) = span[Dk, Dk], reach 0."""
    current = i if i is not None else Subspace.full(g.dim)
    if i is not None:
        rows = i.vectors()
        for u in rows:
            for v in rows:
                if not i.contains_vector(g.bracket_vec(u, v)):
                    raise NotSubalgebra("seed is not closed under the bracket")
    while True:
        rows = current.vectors()
        derived = Subspace.from_vectors(
            g.dim,
            [g.bracket_vec(u, v) for a, u in enumerate(rows) for v in rows[a + 1 :]],
        )
        if derived.dim == 0:
            return True
        if derived.dim >= current.dim:
            return False
        current = derived


def trace_form(g: HomAlgebra) -> BilinearForm:
    """Trace form B(x, y) = tr(ad(x) ad(y)); the Killing form when alpha = id."""
    n = g.dim
    ads = g.ad_columns()  # ads[i][s] = {r: ad_i[r][s]}
    gram = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        entries = [(r, s, c) for s, col in enumerate(ads[i]) for r, c in col.items()]
        for j in range(i, n):
            # tr(A B) = sum over r, s of A[r][s] B[s][r]
            adj = ads[j]
            gram[i][j] = gram[j][i] = sum(
                (c * adj[r][s] for r, s, c in entries if s in adj[r]), _ZERO
            )
    return BilinearForm(n, Matrix(gram))


def radical_involutive(g: HomAlgebra) -> Subspace:
    """Greatest solvable ideal of an involutive multiplicative Hom-Lie algebra.

    Computed on the untwisted Lie algebra (``build.untwist_involutive``) as
    the Killing-orthogonal of its derived ideal (valid in characteristic
    zero), then verified to be a twist-stable solvable ideal of g.
    """
    lie, _ = untwist_involutive(g)
    killing = trace_form(lie)
    derived = Subspace.from_vectors(g.dim, lie.bracket.values())
    rad = (
        Subspace.full(g.dim)
        if derived.dim == 0
        else kernel(derived.basis @ killing.gram)
    )
    mapped = Subspace.from_vectors(g.dim, [g.alpha.apply(v) for v in rad.vectors()])
    if mapped != rad or not is_ideal(g, rad) or not is_solvable(g, rad):
        raise ReconstructionFailed("radical verification failed")
    return rad


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

class SimplicityVerdict(Record):
    """Three-valued simplicity verdict.

    ``NotSimple`` carries a verified proper nonzero ideal when one exists
    (a one-dimensional abelian algebra has none).  ``Simple`` is only
    returned with a sound one-dimensional-kernel certificate; otherwise the
    verdict is ``Unknown``.
    """

    tag: str
    witness: Subspace | None = None


def simplicity_verdict(g: HomAlgebra) -> SimplicityVerdict:
    """Decide simplicity where possible.

    NotSimple: zero commutator, or some seed vector generates a proper
    nonzero ideal (seeds: basis vectors, rational twist eigenvectors,
    bracket values, and ``SIMPLICITY_BUDGET`` vectors from a fixed pseudorandom stream).
    Simple: every seed closure is full and some element of the enveloping
    algebra of the adjoints and the twist has a one-dimensional eigenspace
    whose spin-up, together with its transposed counterpart, is full
    (Norton's irreducibility test; Holt and Rees, J. Austral. Math. Soc. A 57, 1994).
    Unknown: no certificate found within the budget.
    """
    n = g.dim
    rng = random.Random(f"{SIMPLICITY_STREAM_SEED}:{n}")
    zero_bracket = g.is_abelian()
    seeds: list[tuple[Fraction, ...]] = [unit_vec(n, i) for i in range(n)]
    for _, eig in rational_eigenpairs(g.alpha):
        seeds.extend(eig.vectors())
    seeds.extend(g.bracket.values())
    for _ in range(SIMPLICITY_BUDGET):
        seeds.append(
            tuple(Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2))) for _ in range(n))
        )
    proper = None
    for s in seeds:
        if is_zero_vec(s):
            continue
        w = ideal_closure(g, Subspace.from_vectors(n, [s]))
        if 0 < w.dim < n:
            proper = w
            break
    if zero_bracket:
        return SimplicityVerdict("NotSimple", proper)
    if proper is not None:
        return SimplicityVerdict("NotSimple", proper)
    # certificate search: an enveloping-algebra element with nullity one
    gens = g.ad_matrices() + [g.alpha]
    tgens = [m.row_dicts for m in gens]  # the sparse columns of each transpose
    for z in _certificate_candidates(gens, rng):
        for lam, eig in rational_eigenpairs(z):
            if eig.dim != 1:
                continue
            spin = ideal_closure(g, eig)
            if spin.dim < n:
                return SimplicityVerdict("NotSimple", spin)
            # the rows of z^T are the columns of z
            cokernel = eigenspace(z.col_dicts(), lam)
            if cokernel.dim != 1:
                continue
            tspin = spin_up(tgens, cokernel)
            if tspin.dim < n:
                annihilator = kernel(tspin.basis)
                if 0 < annihilator.dim < n and is_ideal(g, annihilator):
                    return SimplicityVerdict("NotSimple", annihilator)
                continue
            return SimplicityVerdict("Simple")
    return SimplicityVerdict("Unknown")


def _certificate_candidates(gens: list[Matrix], rng: random.Random):
    """Each candidate of the certificate search, formed only when the search reaches it.

    The generators, then every product a @ b, then ``SIMPLICITY_BUDGET`` sums of three
    candidates made so far, drawn from rng with coefficients in -3..3.
    """
    made = []
    for z in chain(gens, (a @ b for a in gens for b in gens)):
        made.append(z)
        yield z
    zero = Matrix.zeros(gens[0].rows, gens[0].cols)
    for _ in range(SIMPLICITY_BUDGET):
        made.append(sum((rng.choice(made).scale(Fraction(rng.randrange(-3, 4))) for _ in range(3)), zero))
        yield made[-1]


# ---------------------------------------------------------------------------
# double extension recognition
# ---------------------------------------------------------------------------

class DoubleExtensionWitness(Record):
    """Recovered double-extension data.

    Rebuilding from (base, data) and expressing the input in the basis
    (b, v_basis rows, e) reproduces its structure tensors exactly.
    """

    e_vec: tuple[Fraction, ...]
    b_vec: tuple[Fraction, ...]
    v_basis: Subspace
    data: ExtensionData1D
    base: QuadraticHomAlgebra


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _isotropic_in_eigenspace(q: QuadraticHomAlgebra, eig_vectors) -> tuple | None:
    b = q.form
    vecs = list(eig_vectors)
    for v in vecs:
        if b.value(v, v) == 0:
            return v
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            u, v = vecs[i], vecs[j]
            c2, c1, c0 = b.value(v, v), 2 * b.value(u, v), b.value(u, u)
            if c2 == 0:
                if c1 != 0:
                    s = -c0 / c1
                    return tuple(a + s * c for a, c in zip(u, v))
                continue
            disc = c1 * c1 - 4 * c0 * c2
            root = _rational_sqrt(disc)
            if root is None:
                continue
            for sgn in (1, -1):
                s = (-c1 + sgn * root) / (2 * c2)
                cand = tuple(a + s * c for a, c in zip(u, v))
                if not is_zero_vec(cand):
                    return cand
    return None


def recognize_double_extension(q: QuadraticHomAlgebra) -> DoubleExtensionWitness:
    """Exhibit a quadratic multiplicative algebra with central elements as a
    one-dimensional double extension.

    Picks a rational eigenvector e of the twist restricted to the center with
    B(e,e) = 0 (smallest eigenvalue in the (numerator, denominator) order),
    builds the hyperbolic partner b, cuts V = (Ke + Kb)-perp, and reads the
    base and extension data off q in the frame (b, V, e), verifying the
    reconstruction exactly (``build.double_extension_parts``).
    """
    g = q.algebra
    require_multiplicative(g)
    if q.dim < 3:
        raise PreconditionFailed("dimension must be at least 3")
    z = center(g)
    if z.dim == 0:
        raise CenterTrivial("center is trivial")
    z_basis = z.basis
    z_rows = z_basis.data
    mapped = Subspace.from_vectors(q.dim, [g.alpha.apply(v) for v in z_rows])
    if not z.contains(mapped):
        raise ReconstructionFailed("center is not twist-invariant")
    alpha_z_cols = [z.coords_of(g.alpha.apply(v)) for v in z_rows]
    alpha_z = Matrix.from_cols(alpha_z_cols)
    pairs = rational_eigenpairs(alpha_z)
    if not pairs:
        raise NoRationalCentralEigenvector(
            "twist restricted to the center has no rational eigenvalue"
        )
    for _, eig in pairs:
        e = _isotropic_in_eigenspace(q, (eig.basis @ z_basis).data)
        if e is not None:
            break
    if e is None:
        raise NoIsotropicCentralVector(
            "every rational central eigenvector has nonzero square"
        )
    # normalize the leading coefficient to one
    lead = next(x for x in e if x != 0)
    e = tuple(x / lead for x in e)
    # b solves the one equation B(e, b) = 1
    b = solve_rows(sparse_rows([q.gram.apply(e) + (_ONE,)]), q.dim)[0]
    if b is None:
        raise ReconstructionFailed("form is degenerate against the central vector")
    bb = q.form.value(b, b)
    if bb != 0:
        b = sub_vec(b, tuple(bb / 2 * x for x in e))
    v_space = kernel(Matrix([q.gram.apply(e), q.gram.apply(b)]))
    if v_space.dim != q.dim - 2:
        raise ReconstructionFailed("hyperbolic plane did not split off")
    base, data = double_extension_parts(q, b, v_space.vectors(), e)
    return DoubleExtensionWitness(e, b, v_space, data, base)


def verify_centerless_involution(q: QuadraticHomAlgebra) -> bool:
    """Is the twist an involution, for regular multiplicative centerless input."""
    g = q.algebra
    if not is_multiplicative(g):
        raise PreconditionFailed("twist map is not a bracket morphism")
    if g.alpha.inverse() is None:
        raise PreconditionFailed("twist map is not invertible")
    if center(g).dim != 0:
        raise PreconditionFailed("center is not trivial")
    return g.alpha.power(2).is_identity()
