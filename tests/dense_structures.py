"""Dense and per-vector structure code, kept as the oracle for homlie's.

The dense builders are the constructions ``homlie.catalog`` and
``homlie.build`` ran before they worked from nonzero entries only: sl_n from
dense n x n basis matrices (commutators, tr(xy) and -x^T as full matrix
products, read back into coordinates), and the current algebra g (x) A from
the full dim^3 product tensor with id (x) theta as a dense Kronecker product.
They call none of the code under test.

The per-vector readers are how ``homlie.analyze`` took a quadratic algebra
apart before it read every piece off one change of basis: restrictions to an
invariant subspace, orthogonal decomposition and double-extension
recognition, each piece expressed one basis vector at a time.  They share
with the code under test only the steps it left unchanged: the choice of e,
b and V, and the final rebuild.  The decomposition oracle searches the
candidate family as it was before candidates were formed one at a time:
all formed up front, with the Fitting image and the orthogonals of the
first four, each split filtered by two ``is_ideal`` checks.

The dense verdict is ``homlie.analyze.simplicity_verdict`` as it was when
operators reached the closures as dense matrices: every candidate product
formed before the first is tested, and every closure taken over dense ad
matrices read off ``dense_axioms.dense_basis_bracket``.

The index-loop solvers are how ``homlie.catalog`` found the admissible
delta of a one-dimensional double extension and the action space of an
involutive one before the identities were stated once for its equation
builder: each equation is written out by hand as a row-major sparse row in
the entries of the unknown map, and solved with ``solve_rows``.

Every eigenspace and Fitting part here comes from the dense oracles of
``dense_elimination`` (``dense_charpoly`` and ``dense_kernel``), so these
oracles do not follow the library's characteristic polynomial or
eigenspaces.
"""

import random
from fractions import Fraction
from itertools import chain

from homlie.analyze import (
    SIMPLICITY_STREAM_SEED,
    DoubleExtensionWitness,
    SimplicityVerdict,
    _compose_embedding,
    _isotropic_in_eigenspace,
    ideal_closure,
    is_ideal,
    orthogonal_subspace,
)
from homlie.build import ExtensionData1D, change_basis_quadratic, double_extension_1d
from homlie.errors import (
    CenterTrivial,
    NoIsotropicCentralVector,
    NoRationalCentralEigenvector,
    NotMultiplicative,
    NotSubalgebra,
    PreconditionFailed,
    ReconstructionFailed,
)
from homlie.exactlin import (
    Matrix,
    Subspace,
    is_zero_vec,
    kernel,
    solve_rows,
    sparse_row,
    sparse_rows,
    spin_up,
    sub_vec,
    unit_vec,
)
from homlie.homalg import (
    BilinearForm,
    HomAlgebra,
    QuadraticHomAlgebra,
    center,
    is_multiplicative,
    multiplicativity_witness,
)

from dense_axioms import dense_ad_matrices, dense_basis_bracket, dense_bracket_vec
from dense_elimination import dense_eigenpairs, dense_fitting

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
            cg = dense_basis_bracket(g, i, j)
            for r in range(m):
                for s in range(m):
                    v = tuple(c * p for c in cg for p in mu[r][s])
                    if any(v):
                        bracket[(i * m + r, j * m + s)] = v
    return bracket, dense_kronecker(Matrix.identity(n), theta)


def restrict_hom(g: HomAlgebra, w: Subspace) -> HomAlgebra:
    """Structure induced on an invariant subspace, in its RREF basis."""
    rows = w.vectors()
    k = w.dim
    bracket = {}
    for a in range(k):
        for b in range(a + 1, k):
            coords = w.coords_of(dense_bracket_vec(g, rows[a], rows[b]))
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


def eager_candidate_ideals(q: QuadraticHomAlgebra) -> list[Subspace]:
    """The whole candidate family, formed before the first is tried.

    Fitting kernel and image, closures of the center and the derived span,
    the orthogonals of those four, then the closures of the rational twist
    eigenspaces; each proper nonzero one once.
    """
    g = q.algebra
    cands = []
    if is_multiplicative(g):
        cands += dense_fitting(g.alpha)
    z = center(g)
    derived = Subspace.from_vectors(g.dim, g.bracket.values())
    cands += [ideal_closure(g, z), ideal_closure(g, derived)]
    cands += [orthogonal_subspace(q, c) for c in list(cands)]
    for _, eig in dense_eigenpairs(g.alpha):
        cands.append(ideal_closure(g, eig))
    out = []
    for c in cands:
        if 0 < c.dim < q.dim and c not in out:
            out.append(c)
    return out


def per_vector_decompose(q: QuadraticHomAlgebra, embedding=None, original=None):
    """``decompose_irreducible(q)`` over the eager family, through ``restrict_quadratic``."""
    if embedding is None:
        embedding, original = Subspace.full(q.dim), q
    for cand in eager_candidate_ideals(q):
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
        return per_vector_decompose(left, lift_left, original) + per_vector_decompose(
            right, lift_right, original
        )
    return [(embedding, q)]


def per_vector_recognize(q: QuadraticHomAlgebra) -> DoubleExtensionWitness:
    """``recognize_double_extension``, splitting every vector along b, V, e in turn."""
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
    alpha_z = Matrix.from_cols([z.coords_of(g.alpha.apply(v)) for v in z.vectors()])
    pairs = dense_eigenpairs(alpha_z)
    if not pairs:
        raise NoRationalCentralEigenvector(
            "twist restricted to the center has no rational eigenvalue"
        )
    e = lam = None
    for ev, eig in pairs:
        found = _isotropic_in_eigenspace(q, (eig.basis @ z.basis).data)
        if found is not None:
            e, lam = found, ev
            break
    if e is None:
        raise NoIsotropicCentralVector(
            "every rational central eigenvector has nonzero square"
        )
    lead = next(x for x in e if x != 0)
    e = tuple(x / lead for x in e)
    b = solve_rows(sparse_rows([q.gram.apply(e) + (_ONE,)]), q.dim)[0]
    if b is None:
        raise ReconstructionFailed("form is degenerate against the central vector")
    bb = q.form.value(b, b)
    if bb != 0:
        b = sub_vec(b, tuple(bb / 2 * x for x in e))
    v_space = kernel(Matrix([q.gram.apply(e), q.gram.apply(b)]))
    if v_space.dim != q.dim - 2:
        raise ReconstructionFailed("hyperbolic plane did not split off")
    rows = v_space.vectors()

    def split(y):
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
        cb, coords, _ = split(g.alpha.apply(u))
        if cb != 0:
            raise ReconstructionFailed("twist maps V outside Ke + V")
        alpha_v_cols.append(coords)
    cb, x0, lam0 = split(g.alpha.apply(b))
    if cb != lam:
        raise ReconstructionFailed("twist of b has an unexpected b component")
    delta_cols = []
    for u in rows:
        cb, coords, ce = split(dense_bracket_vec(g, b, u))
        if cb != 0 or ce != 0:
            raise ReconstructionFailed("[b, V] leaves V")
        delta_cols.append(coords)
    bracket_v = {}
    for a in range(k):
        for c in range(a + 1, k):
            cb, coords, _ = split(dense_bracket_vec(g, rows[a], rows[c]))
            if cb != 0:
                raise ReconstructionFailed("[V, V] has a b component")
            bracket_v[(a, c)] = coords
    gram_v = v_space.basis @ q.gram @ v_space.basis.transpose()
    base = QuadraticHomAlgebra(
        HomAlgebra(k, bracket_v, Matrix.from_cols(alpha_v_cols)), BilinearForm(k, gram_v)
    )
    data = ExtensionData1D(Matrix.from_cols(delta_cols), x0, lam, lam0)
    rebuilt = double_extension_1d(base, data)
    transported = change_basis_quadratic(q, Matrix([b] + list(rows) + [e]).transpose())
    if (
        transported.algebra.bracket != rebuilt.algebra.bracket
        or transported.alpha != rebuilt.alpha
        or transported.gram != rebuilt.gram
    ):
        raise ReconstructionFailed("rebuilt extension does not match the input")
    return DoubleExtensionWitness(e, b, v_space, data, base)


def dense_closure(generators: list[Matrix], seed: Subspace) -> Subspace:
    """Smallest subspace containing seed and mapped into itself by the matrices.

    Each matrix is converted to sparse columns on every call, as the
    closures did when they took dense matrices.
    """
    return spin_up([sparse_rows(zip(*m.data)) for m in generators], seed)


def dense_simplicity_verdict(g: HomAlgebra, budget: int = 24) -> SimplicityVerdict:
    """``simplicity_verdict`` with an eager candidate list and closures over dense matrices."""
    n = g.dim
    ads = dense_ad_matrices(g)

    def ideal_closure(seed):
        return dense_closure([g.alpha] + ads, seed)

    rng = random.Random(f"{SIMPLICITY_STREAM_SEED}:{n}")
    seeds = [unit_vec(n, i) for i in range(n)]
    for _, eig in dense_eigenpairs(g.alpha):
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
        w = ideal_closure(Subspace.from_vectors(n, [s]))
        if 0 < w.dim < n:
            proper = w
            break
    if g.is_abelian() or proper is not None:
        return SimplicityVerdict("NotSimple", proper)
    gens = ads + [g.alpha]
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
        for lam, eig in dense_eigenpairs(z):
            if eig.dim != 1:
                continue
            spin = ideal_closure(eig)
            if spin.dim < n:
                return SimplicityVerdict("NotSimple", spin)
            cokernel = kernel((z - Matrix.identity(n).scale(lam)).transpose())
            if cokernel.dim != 1:
                continue
            tspin = dense_closure(tgens, cokernel)
            if tspin.dim < n:
                annihilator = kernel(tspin.basis)
                if 0 < annihilator.dim < n and ideal_closure(annihilator) == annihilator:
                    return SimplicityVerdict("NotSimple", annihilator)
                continue
            return SimplicityVerdict("Simple")
    return SimplicityVerdict("Unknown")


def loop_twist_skew_rows(q: QuadraticHomAlgebra, lam: Fraction) -> list[dict[int, Fraction]]:
    """Sparse linear rows in the entries of D (row major): first
    (a D a - lam D)[i][j], then (D^T gram + gram D)[i][j], for all i, j, with
    a the twist of q."""
    n = q.dim
    a, gram = q.alpha, q.gram
    a_rows = [[(r, x) for r, x in enumerate(a.data[i]) if x] for i in range(n)]
    a_cols = [[(s, x) for s, x in enumerate(a.col(j)) if x] for j in range(n)]
    rows = [
        sparse_row(chain(
            ((r * n + s, x * y) for r, x in a_rows[i] for s, y in a_cols[j]),
            [(i * n + j, -lam)],
        ))
        for i in range(n)
        for j in range(n)
    ]
    rows += [
        sparse_row(chain(
            ((r * n + i, gram[r, j]) for r in range(n)),
            ((r * n + j, gram[i, r]) for r in range(n)),
        ))
        for i in range(n)
        for j in range(n)
    ]
    return rows


def _unflatten(v, n: int) -> Matrix:
    """The n x n matrix whose entries, row major, are v."""
    return Matrix([v[i * n : (i + 1) * n] for i in range(n)])


def loop_extension_delta_space(q: QuadraticHomAlgebra, lam: Fraction, x0):
    """``catalog.extension_delta_space`` with every equation written out as an index loop."""
    n = q.dim
    g = q.algebra
    a = q.alpha
    adx0 = g.ad_vec(x0)
    # (a delta a)[i][j] - lam delta[i][j] = ad(x0)[i][j]; delta skew for the form
    rows = loop_twist_skew_rows(q, lam)
    for row, rhs in zip(rows, (x for r in adx0.data for x in r)):
        if rhs:
            row[n * n] = rhs
    # lam delta([x_r,x_s]) + [x0,[x_r,x_s]] = [delta x_r, a x_s] + [a x_r, delta x_s];
    # the x_k coefficient of [x_p, a x_s] is sum over t of a[t][s] [x_p, x_t]_k
    a_cols = [[(t, x) for t, x in enumerate(a.col(j)) if x] for j in range(n)]
    ad = g.ad_entries()  # (k, t) -> (p, [x_p, x_t]_k)
    for r in range(n):
        for s in range(r + 1, n):
            c_rs = g.basis_bracket(r, s)
            adc = adx0.apply(c_rs)
            for k in range(n):
                rows.append(sparse_row(chain(
                    ((k * n + m, lam * c) for m, c in enumerate(c_rs) if c),
                    ((p * n + r, -x * c) for t, x in a_cols[s] for p, c in ad.get((k, t), ())),
                    ((p * n + s, x * c) for t, x in a_cols[r] for p, c in ad.get((k, t), ())),
                    [(n * n, -adc[k])],
                )))
    particular, homogeneous = solve_rows(rows, n * n)
    if particular is None:
        return None, []
    return _unflatten(particular, n), [_unflatten(v, n) for v in homogeneous.vectors()]


def loop_involutive_action_space(v: QuadraticHomAlgebra, eps: Fraction) -> list[Matrix]:
    """``catalog.involutive_action_space`` with every equation written out as an index loop."""
    n = v.dim
    g = v.algebra
    a = v.alpha
    rows = loop_twist_skew_rows(v, eps)
    a_rows = [[(p, x) for p, x in enumerate(a.data[k]) if x] for k in range(n)]
    a_cols = [[(m, x) for m, x in enumerate(a.col(j)) if x] for j in range(n)]
    ad = g.ad_entries()  # (k, s) -> (p, [x_p, x_s]_k)
    for r in range(n):
        for s in range(r + 1, n):
            c_rs = [(m, c) for m, c in enumerate(g.basis_bracket(r, s)) if c]
            for k in range(n):
                # a[k,p] c_rs[m] - a[m,r] [x_p, x_s]_k - a[m,s] [x_r, x_p]_k at D[p][m]
                rows.append(sparse_row(chain(
                    ((p * n + m, x * c) for p, x in a_rows[k] for m, c in c_rs),
                    ((p * n + m, -x * c) for m, x in a_cols[r] for p, c in ad.get((k, s), ())),
                    ((p * n + m, x * c) for m, x in a_cols[s] for p, c in ad.get((k, r), ())),
                )))
    return [_unflatten(vv, n) for vv in solve_rows(rows, n * n)[1].vectors()]
