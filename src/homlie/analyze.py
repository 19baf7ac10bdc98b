"""Structural analysis of (quadratic) Hom-Lie algebras.

Centers, centroids, ideal closures, orthogonals, Fitting and orthogonal
decompositions, solvability, radicals, trace forms, a three-valued
simplicity test, and recognition of one-dimensional double extensions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .build import ExtensionData1D, double_extension_1d
from .errors import (
    CenterTrivial,
    NoIsotropicCentralVector,
    NoRationalCentralEigenvector,
    NotAnIdeal,
    NotInvolutive,
    NotMultiplicative,
    NotSubalgebra,
    PreconditionFailed,
    ReconstructionFailed,
)
from .exactlin import (
    Matrix,
    Subspace,
    is_zero_vec,
    kernel,
    kernel_image_power,
    rational_eigenpairs,
    solve_rows,
    sparse_row,
    spin_up,
    sub_vec,
    unit_vec,
)
from .homalg import (
    BilinearForm,
    HomAlgebra,
    QuadraticHomAlgebra,
    bracket_table,
    center,
    is_multiplicative,
    multiplicativity_witness,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

SIMPLICITY_STREAM_SEED = 0x484F4D21


# ---------------------------------------------------------------------------
# subspace-level structure
# ---------------------------------------------------------------------------

def centroid(g: HomAlgebra) -> Subspace:
    """Maps theta with theta[x,y] = [theta(x), y], as a subspace of End(g).

    Endomorphisms are flattened row major into Q^(n^2).
    """
    n = g.dim
    ad_cols = {}  # (i, s) -> (m, ad_i[m][s])
    for i, s, m, c in g.structure_constants():
        ad_cols.setdefault((i, s), []).append((m, c))
    ad_rows = g.ad_entries()  # (r, s) -> (k, ad_k[r][s])

    def equations():
        # (theta @ ad_i)[r][s] - sum_k theta[k][i] ad_k[r][s] = 0
        for i in range(n):
            for r in range(n):
                for s in range(n):
                    row = sparse_row(chain(
                        ((r * n + m, c) for m, c in ad_cols.get((i, s), ())),
                        ((k * n + i, -c) for k, c in ad_rows.get((r, s), ())),
                    ))
                    if row:
                        yield row

    return solve_rows(equations(), n * n)[1]


def ideal_closure(g: HomAlgebra, seed: Subspace) -> Subspace:
    """Smallest subspace containing seed closed under all [x_i, .] and alpha."""
    if seed.ambient_dim != g.dim:
        raise NotSubalgebra("seed lives in a different space")
    return spin_up([g.alpha] + g.ad_matrices(), seed)


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
    if w.dim == 0:
        return Subspace.full(q.dim)
    return kernel(w.basis @ q.gram)


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------

def restrict_hom(g: HomAlgebra, w: Subspace) -> HomAlgebra:
    """Structure induced on an invariant subspace, in its RREF basis."""
    rows = w.vectors()
    k = w.dim
    bracket = {}
    for a in range(k):
        for b in range(a + 1, k):
            coords = w.coords_of(g.bracket_vec(rows[a], rows[b]))
            if coords is None:
                raise NotSubalgebra("subspace is not closed under the bracket")
            bracket[(a, b)] = coords
    alpha_cols = []
    for u in rows:
        coords = w.coords_of(g.alpha.apply(u))
        if coords is None:
            raise NotSubalgebra("subspace is not invariant under the twist")
        alpha_cols.append(coords)
    return HomAlgebra(k, bracket, Matrix.from_cols(alpha_cols))


def restrict_quadratic(q: QuadraticHomAlgebra, w: Subspace) -> QuadraticHomAlgebra:
    alg = restrict_hom(q.algebra, w)
    gram = w.basis @ q.gram @ w.basis.transpose()
    return QuadraticHomAlgebra(alg, BilinearForm(w.dim, gram))


# ---------------------------------------------------------------------------
# Fitting decomposition and orthogonal decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FittingSplit:
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
    w = multiplicativity_witness(g)
    if w is not None:
        raise NotMultiplicative("twist map is not a bracket morphism", witness=w)
    n, ker_part, im_part = kernel_image_power(g.alpha)
    for name, part in (("kernel", ker_part), ("image", im_part)):
        if not is_ideal(g, part):
            raise ReconstructionFailed(f"fitting {name} part is not an ideal")
    for u in ker_part.vectors():
        for v in im_part.vectors():
            if not is_zero_vec(g.bracket_vec(u, v)):
                raise ReconstructionFailed("fitting parts do not commute")
            if q.form.value(u, v) != 0:
                raise ReconstructionFailed("fitting parts are not orthogonal")
    return FittingSplit(ker_part, im_part, n)


def decompose_irreducible(
    q: QuadraticHomAlgebra, with_bases: bool = False
):
    """Recursive orthogonal splitting along nondegenerate candidate ideals.

    The candidate family is finite (Fitting parts, center, derived ideal,
    their orthogonals, twist eigenspace closures); summands are irreducible
    relative to this family.  With ``with_bases`` each summand is paired with
    the subspace of the original algebra it restricts.
    """
    pairs = _decompose(q, Subspace.full(q.dim), q)
    if with_bases:
        return pairs
    return [alg for _, alg in pairs]


def _candidate_ideals(q: QuadraticHomAlgebra) -> list[Subspace]:
    g = q.algebra
    cands = []
    if is_multiplicative(g):
        _, ker_part, im_part = kernel_image_power(g.alpha)
        cands += [ker_part, im_part]
    z = center(g)
    derived = Subspace.from_vectors(g.dim, g.bracket.values())
    cands += [ideal_closure(g, z), ideal_closure(g, derived)]
    cands += [orthogonal_subspace(q, c) for c in list(cands)]
    for _, eig in rational_eigenpairs(g.alpha):
        cands.append(ideal_closure(g, eig))
    out = []
    for c in cands:
        if 0 < c.dim < q.dim and c not in out:
            out.append(c)
    return out


def _decompose(q, embedding, original):
    for cand in _candidate_ideals(q):
        if not is_ideal(q.algebra, cand):
            continue
        sub_gram = cand.basis @ q.gram @ cand.basis.transpose()
        if sub_gram.rank() != cand.dim:
            continue
        orth = orthogonal_subspace(q, cand)
        if not is_ideal(q.algebra, orth):
            continue
        left = restrict_quadratic(q, cand)
        right = restrict_quadratic(q, orth)
        lift_left = _compose_embedding(embedding, cand)
        lift_right = _compose_embedding(embedding, orth)
        return _decompose(left, lift_left, original) + _decompose(
            right, lift_right, original
        )
    return [(embedding, q)]


def _compose_embedding(embedding: Subspace, inner: Subspace) -> Subspace:
    # inner coords are relative to embedding's basis rows
    return Subspace(embedding.ambient_dim, inner.basis @ embedding.basis)


# ---------------------------------------------------------------------------
# solvability and radicals
# ---------------------------------------------------------------------------

def is_solvable(g: HomAlgebra, i: Optional[Subspace] = None) -> bool:
    """Derived series test: D0 = i (or g), D(k+1) = span[Dk, Dk], reach 0."""
    current = i if i is not None else Subspace.full(g.dim)
    if i is not None:
        for u in i.vectors():
            for v in i.vectors():
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
    ads = [{} for _ in range(n)]  # ads[i][r, s] = ad_i[r][s], nonzero entries
    for i, s, r, c in g.structure_constants():
        ads[i][r, s] = c
    gram = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # tr(A B) = sum over r, s of A[r][s] B[s][r]
            adj = ads[j]
            gram[i][j] = gram[j][i] = sum(
                (c * adj[s, r] for (r, s), c in ads[i].items() if (s, r) in adj), _ZERO
            )
    return BilinearForm(n, Matrix(gram))


def associated_lie_algebra(g: HomAlgebra) -> HomAlgebra:
    """Bracket [theta(x), theta(y)] with identity twist, for involutive g."""
    bracket = bracket_table(g, g.alpha, g.alpha)
    return HomAlgebra(g.dim, bracket, Matrix.identity(g.dim))


def radical_involutive(g: HomAlgebra) -> Subspace:
    """Greatest solvable ideal of an involutive multiplicative Hom-Lie algebra.

    Computed on the associated Lie algebra as the Killing-orthogonal of its
    derived ideal (valid in characteristic zero), then verified to be a
    twist-stable solvable ideal of g.
    """
    if not g.alpha.power(2).is_identity():
        raise NotInvolutive("twist map squared is not the identity")
    w = multiplicativity_witness(g)
    if w is not None:
        raise NotMultiplicative("twist map is not a bracket morphism", witness=w)
    lie = associated_lie_algebra(g)
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

@dataclass(frozen=True)
class SimplicityVerdict:
    """Three-valued simplicity verdict.

    ``NotSimple`` carries a verified proper nonzero ideal when one exists
    (a one-dimensional abelian algebra has none).  ``Simple`` is only
    returned with a sound one-dimensional-kernel certificate; otherwise the
    verdict is ``Unknown``.
    """

    tag: str
    witness: Optional[Subspace] = None


def simplicity_verdict(g: HomAlgebra, budget: int = 24) -> SimplicityVerdict:
    """Decide simplicity where possible.

    NotSimple: zero commutator, or some seed vector generates a proper
    nonzero ideal (seeds: basis vectors, rational twist eigenvectors,
    bracket values, and ``budget`` vectors from a fixed pseudorandom stream).
    Simple: every seed closure is full and some element of the enveloping
    algebra of the adjoints and the twist has a one-dimensional eigenspace
    whose spin-up, together with its transposed counterpart, is full.
    Unknown: no certificate found within the budget.
    """
    n = g.dim
    rng = random.Random(f"{SIMPLICITY_STREAM_SEED}:{n}")
    zero_bracket = g.is_abelian()
    seeds: list[tuple[Fraction, ...]] = [unit_vec(n, i) for i in range(n)]
    for _, eig in rational_eigenpairs(g.alpha):
        seeds.extend(eig.vectors())
    seeds.extend(g.bracket.values())
    for _ in range(budget):
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
    candidates = list(gens)
    for a in gens:
        for b in gens:
            candidates.append(a @ b)
    for _ in range(budget):
        acc = Matrix.zeros(n, n)
        for _ in range(3):
            word = rng.choice(candidates)
            acc = acc + word.scale(Fraction(rng.randrange(-3, 4)))
        candidates.append(acc)
    tgens = [m.transpose() for m in gens]
    for z in candidates:
        for lam, eig in rational_eigenpairs(z):
            if eig.dim != 1:
                continue
            v = eig.vectors()[0]
            spin = ideal_closure(g, Subspace.from_vectors(n, [v]))
            if spin.dim < n:
                return SimplicityVerdict("NotSimple", spin)
            shifted = z - Matrix.identity(n).scale(lam)
            cokernel = kernel(shifted.transpose())
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


# ---------------------------------------------------------------------------
# double extension recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleExtensionWitness:
    """Recovered double-extension data.

    Rebuilding from (base, data) and expressing the input in the basis
    (b, v_basis rows, e) reproduces its structure tensors exactly.
    """

    e_vec: tuple[Fraction, ...]
    b_vec: tuple[Fraction, ...]
    v_basis: Subspace
    data: ExtensionData1D
    base: QuadraticHomAlgebra


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    from math import isqrt

    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _isotropic_in_eigenspace(q: QuadraticHomAlgebra, eig_vectors) -> Optional[tuple]:
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
    builds the hyperbolic partner b, cuts V = (Ke + Kb)-perp, extracts the
    extension data and verifies the reconstruction exactly.
    """
    g = q.algebra
    w = multiplicativity_witness(g)
    if w is not None:
        raise NotMultiplicative("twist map is not a bracket morphism", witness=w)
    if q.dim < 3:
        raise PreconditionFailed("dimension must be at least 3")
    z = center(g)
    if z.dim == 0:
        raise CenterTrivial("center is trivial")
    mapped = Subspace.from_vectors(q.dim, [g.alpha.apply(v) for v in z.vectors()])
    if not z.contains(mapped):
        raise ReconstructionFailed("center is not twist-invariant")
    alpha_z_cols = [z.coords_of(g.alpha.apply(v)) for v in z.vectors()]
    alpha_z = Matrix.from_cols(alpha_z_cols)
    pairs = rational_eigenpairs(alpha_z)
    if not pairs:
        raise NoRationalCentralEigenvector(
            "twist restricted to the center has no rational eigenvalue"
        )
    e = None
    lam = None
    for ev, eig in pairs:
        found = _isotropic_in_eigenspace(q, (eig.basis @ z.basis).data)
        if found is not None:
            e, lam = found, ev
            break
    if e is None:
        raise NoIsotropicCentralVector(
            "every rational central eigenvector has nonzero square"
        )
    # normalize the leading coefficient to one
    lead = next(x for x in e if x != 0)
    e = tuple(x / lead for x in e)
    from .exactlin import solve_linear

    sol = solve_linear(Matrix([(q.gram.apply(e))]), Matrix([[_ONE]]))
    if sol is None:
        raise ReconstructionFailed("form is degenerate against the central vector")
    b = sol.col(0)
    bb = q.form.value(b, b)
    if bb != 0:
        b = sub_vec(b, tuple(bb / 2 * x for x in e))
    v_space = kernel(Matrix([q.gram.apply(e), q.gram.apply(b)]))
    if v_space.dim != q.dim - 2:
        raise ReconstructionFailed("hyperbolic plane did not split off")
    rows = v_space.vectors()

    def decompose(y):
        cb = q.form.value(y, e)
        ce = q.form.value(y, b)
        rest = sub_vec(sub_vec(y, tuple(cb * x for x in b)), tuple(ce * x for x in e))
        coords = v_space.coords_of(rest)
        if coords is None:
            raise ReconstructionFailed("vector leaves the b, V, e frame")
        return cb, coords, ce

    k = v_space.dim
    alpha_v_cols = []
    for u in rows:
        cb, coords, _ = decompose(g.alpha.apply(u))
        if cb != 0:
            raise ReconstructionFailed("twist maps V outside Ke + V")
        alpha_v_cols.append(coords)
    alpha_v = Matrix.from_cols(alpha_v_cols)
    cb, x0, lam0 = decompose(g.alpha.apply(b))
    if cb != lam:
        raise ReconstructionFailed("twist of b has an unexpected b component")
    delta_cols = []
    for u in rows:
        cb, coords, ce = decompose(g.bracket_vec(b, u))
        if cb != 0 or ce != 0:
            raise ReconstructionFailed("[b, V] leaves V")
        delta_cols.append(coords)
    delta = Matrix.from_cols(delta_cols)
    bracket_v = {}
    for a in range(k):
        for c in range(a + 1, k):
            cb, coords, _ = decompose(g.bracket_vec(rows[a], rows[c]))
            if cb != 0:
                raise ReconstructionFailed("[V, V] has a b component")
            bracket_v[(a, c)] = coords
    gram_v = v_space.basis @ q.gram @ v_space.basis.transpose()
    base = QuadraticHomAlgebra(
        HomAlgebra(k, bracket_v, alpha_v), BilinearForm(k, gram_v)
    )
    data = ExtensionData1D(delta, x0, lam, lam0)
    rebuilt = double_extension_1d(base, data)
    p = Matrix([b] + list(rows) + [e]).transpose()
    from .build import change_basis_quadratic

    transported = change_basis_quadratic(q, p)
    if (
        transported.algebra.bracket != rebuilt.algebra.bracket
        or transported.alpha != rebuilt.alpha
        or transported.gram != rebuilt.gram
    ):
        raise ReconstructionFailed("rebuilt extension does not match the input")
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
