"""Constructions producing new (quadratic) Hom-Lie algebras.

Twists by endomorphisms, derived algebras, semidirect sums, duals,
T*-extensions, current algebras, and the one-dimensional and involutive
double extensions.  Every construction validates its hypotheses exactly and
reports the first violating index tuple on failure.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .errors import (
    AlphaNotInCentroid,
    AnnihilatorConditionFailed,
    CenterConditionFailed,
    ConditionFailed,
    DimensionMismatch,
    InvolutiveDataInvalid,
    NotAutomorphism,
    NotCommutativeAssociative,
    NotEndomorphism,
    NotInCentroid,
    NotInvolutive,
    NotLie,
    NotRegular,
    NotRepresentation,
    NotSymmetric,
    ReconstructionFailed,
)
from .exactlin import (
    Matrix,
    combine_rows,
    first_mismatch,
    unit_vec,
)
from .homalg import (
    AssocAlgebra,
    BilinearForm,
    ExtensionData1D,
    HomAlgebra,
    InvolutiveExtensionData,
    QuadraticHomAlgebra,
    Representation,
    annihilator,
    bracket_mismatch,
    bracket_rows,
    center,
    check_hom_lie,
    check_hom_associative,
    check_quadratic,
    check_representation,
    is_multiplicative,
    product_mismatch,
    representation_witness,
    require_multiplicative,
)

_ONE = Fraction(1)

# the largest dimension ``catalog emit`` builds and ``construct tensor-current``
# writes: near it, sl_n_transpose 16 (dimension 255) takes 11-16 s on a 2-core
# machine and writes a 16 MB file, while a few more parameter digits would
# exhaust memory
MAX_OUTPUT_DIM = 256


# ---------------------------------------------------------------------------
# plumbing: direct sums and base changes
# ---------------------------------------------------------------------------

# the writers below fill in the sparse rows of a bracket being assembled, a defaultdict(dict)
def _put_bracket(table: dict, off: int, g: HomAlgebra):
    """Copy the bracket of g onto the basis vectors off .. off + g.dim - 1."""
    for (i, j), row in g.table.items():
        if i < j:
            table[(off + i, off + j)].update({off + k: c for k, c in row.items()})


def _put_action(table: dict, x_off: int, v_off: int, mats):
    """Write [x_i, v] = mats[i] v for module basis vectors v (and so [v, x_i] = -mats[i] v).

    x_i is basis vector x_off + i and the module occupies v_off onwards, after
    every x_i.
    """
    for i, mat in enumerate(mats):
        for u, col in enumerate(mat.col_dicts()):
            if col:
                table[(x_off + i, v_off + u)].update({v_off + k: c for k, c in col.items()})


def _put_pairing(table: dict, v_off: int, out_off: int, mats, gram: Matrix):
    """Give [x_i, x_j] the component B(mats[r] x_i, x_j) on basis vector out_off + r.

    Each mats[r] must be skew for the form, so that the pairing is skew.
    """
    for r, mat in enumerate(mats):
        for i, row in enumerate((mat.transpose() @ gram).row_dicts):
            for j, c in row.items():
                if j > i:
                    table[(v_off + i, v_off + j)][out_off + r] = c


def _mapped(m: Matrix, rows) -> dict:
    """The sparse rows of the pairs i < j in rows, each mapped through m."""
    cols = m.col_dicts()
    return {ij: combine_rows((c, cols[k]) for k, c in row.items()) for ij, row in rows.items() if ij[0] < ij[1]}


def _extension_gram(gamma: Matrix, base: Matrix) -> Matrix:
    """Gram matrix on A + V + A*: gamma on A, base on V, A paired with A* by duality."""
    m, n = gamma.rows, base.rows
    rows = [list(r) for r in Matrix.block_diagonal([gamma, base, Matrix.zeros(m, m)]).data]
    for r in range(m):
        rows[r][m + n + r] = _ONE
        rows[m + n + r][r] = _ONE
    return Matrix(rows)


def _coadjoint(g: HomAlgebra) -> tuple[Matrix, ...]:
    """Action matrices -ad(x_i)^T of the coadjoint action on the dual."""
    return tuple(-m.transpose() for m in g.ad_matrices())


def direct_sum(g: HomAlgebra, h: HomAlgebra) -> HomAlgebra:
    """Direct sum of Hom-algebras with blockwise bracket and twist."""
    bracket = defaultdict(dict)
    _put_bracket(bracket, 0, g)
    _put_bracket(bracket, g.dim, h)
    return HomAlgebra(g.dim + h.dim, bracket, Matrix.block_diagonal([g.alpha, h.alpha]))


def orthogonal_sum(q1: QuadraticHomAlgebra, q2: QuadraticHomAlgebra) -> QuadraticHomAlgebra:
    alg = direct_sum(q1.algebra, q2.algebra)
    gram = Matrix.block_diagonal([q1.gram, q2.gram])
    return QuadraticHomAlgebra(alg, BilinearForm(alg.dim, gram))


def change_basis(g: HomAlgebra, p: Matrix) -> HomAlgebra:
    """Transport structure to the basis whose vectors are the columns of p."""
    pinv = p.inverse()
    if pinv is None:
        raise NotAutomorphism("change of basis must be invertible")
    return HomAlgebra(g.dim, _mapped(pinv, bracket_rows(g, p, p)), pinv @ g.alpha @ p)


def change_basis_quadratic(q: QuadraticHomAlgebra, p: Matrix) -> QuadraticHomAlgebra:
    alg = change_basis(q.algebra, p)
    gram = p.transpose() @ q.gram @ p
    return QuadraticHomAlgebra(alg, BilinearForm(q.dim, gram))


def block_algebra(t: QuadraticHomAlgebra, lo: int, hi: int) -> QuadraticHomAlgebra:
    """The bracket, twist and form of t on basis vectors lo .. hi - 1.

    Every component outside the block is dropped, so on an invariant span of
    basis vectors (as ``change_basis_quadratic`` lays one out) this is the
    structure t induces there.  The result is validated as quadratic.
    """
    if not 0 <= lo < hi <= t.dim:
        raise DimensionMismatch(f"block {lo}..{hi} outside dimension {t.dim}")
    k = hi - lo
    pairs = t.algebra.table.items()
    bracket = {
        (i - lo, j - lo): {c - lo: x for c, x in row.items() if lo <= c < hi}
        for (i, j), row in pairs if lo <= i < j < hi
    }
    alpha, gram = (Matrix([r[lo:hi] for r in m.data[lo:hi]]) for m in (t.alpha, t.gram))
    return QuadraticHomAlgebra(HomAlgebra(k, bracket, alpha), BilinearForm(k, gram))


def _require_lie(g: HomAlgebra, where: str):
    if not g.alpha.is_identity():
        raise NotLie(f"{where}: input twist map must be the identity")
    rep = check_hom_lie(g)
    if not rep.hom_jacobi:
        raise NotLie(f"{where}: Jacobi fails", witness=rep.jacobi_witness)


# ---------------------------------------------------------------------------
# twists and untwists
# ---------------------------------------------------------------------------

def yau_twist(g: HomAlgebra, endo: Matrix) -> HomAlgebra:
    """Twist a Lie algebra by a bracket endomorphism: new bracket endo o [.,.].

    The output twist map is endo itself; it is a Hom-Lie algebra, and a
    multiplicative one whenever endo is an automorphism.
    """
    _require_lie(g, "yau_twist")
    if endo.shape != (g.dim, g.dim):
        raise DimensionMismatch("endomorphism must be dim x dim")
    w = bracket_mismatch(g, g, endo, ((endo, endo),))
    if w is not None:
        raise NotEndomorphism("map does not preserve the bracket", witness=w)
    return HomAlgebra(g.dim, _mapped(endo, g.table), endo)


def untwist_regular(g: HomAlgebra) -> HomAlgebra:
    """Compose the bracket with the inverse twist: alpha^{-1} o [.,.].

    For a regular Hom-Lie algebra (invertible automorphism twist) the result
    is a Lie algebra; the Jacobi identity is verified and failure reported,
    since invertibility alone does not guarantee it.
    """
    inv = g.alpha.inverse()
    if inv is None:
        raise NotRegular("twist map is not invertible")
    out = HomAlgebra(g.dim, _mapped(inv, g.table), Matrix.identity(g.dim))
    rep = check_hom_lie(out)
    if not rep.hom_jacobi:
        raise NotRegular(
            "untwisted bracket fails Jacobi (twist is not an automorphism)",
            witness=rep.jacobi_witness,
        )
    return out


def derived_hom_algebra(g: HomAlgebra, n: int) -> HomAlgebra:
    """n-th derived Hom-algebra: bracket a^n o [.,.], twist a^(n+1)."""
    if n < 0:
        raise ValueError("derived index must be >= 0")
    require_multiplicative(g)
    p = g.alpha.power(n)
    return HomAlgebra(g.dim, _mapped(p, g.table), p @ g.alpha)


def centroid_twists(g: HomAlgebra, theta: Matrix) -> tuple[HomAlgebra, HomAlgebra]:
    """Two Hom-Lie twists of a Lie algebra by a centroid element theta.

    The first has bracket {x,y} = [theta(x), y], the second [theta(x), theta(y)];
    both carry theta as their twist map.
    """
    _require_lie(g, "centroid_twists")
    w = _centroid_witness(g, theta)
    if w is not None:
        raise NotInCentroid("theta[x,y] != [theta(x),y]", witness=w)
    n = g.dim
    b1 = bracket_rows(g, theta, Matrix.identity(n))
    b2 = bracket_rows(g, theta, theta)
    return HomAlgebra(n, b1, theta), HomAlgebra(n, b2, theta)


def _centroid_witness(g: HomAlgebra, theta: Matrix):
    if theta.shape != (g.dim, g.dim):
        raise DimensionMismatch("theta must be dim x dim")
    for i in range(g.dim):
        ad = g.ad_vec(theta.col(i))
        for j in range(g.dim):
            if theta.apply(g.basis_bracket(i, j)) != ad.col(j):
                return (i, j)
    return None


def untwist_involutive(
    h: HomAlgebra, b: BilinearForm | None = None
) -> tuple[HomAlgebra, BilinearForm | None]:
    """Recover the Lie algebra behind an involutive multiplicative Hom-Lie algebra.

    New bracket [x,y] = [theta(x), theta(y)]_h with identity twist; a given
    invariant form transports to T(x,y) = b(theta(x), y).  Twisting the result
    back by theta reproduces h exactly.
    """
    if not h.alpha.power(2).is_identity():
        raise NotInvolutive("twist map squared is not the identity")
    require_multiplicative(h)
    n = h.dim
    theta = h.alpha
    lie = HomAlgebra(n, bracket_rows(h, theta, theta), Matrix.identity(n))
    t = None
    if b is not None:
        qrep = check_quadratic(h, b)
        if not qrep.ok:
            raise NotSymmetric("given form is not a quadratic structure on h")
        t = BilinearForm(n, theta.transpose() @ b.gram)
    return lie, t


def centroid_untwist(
    h: HomAlgebra, b: BilinearForm | None = None
) -> tuple[HomAlgebra, HomAlgebra, BilinearForm | None]:
    """Lie algebras {x,y} = [a(x),y] and [a(x),a(y)] from a centroid twist.

    Requires the twist map of h to lie in its centroid.  When a form is given
    it must be a quadratic structure with invertible twist; the transported
    form b(a(x), y) is invariant for both output brackets.
    """
    theta = h.alpha
    w = _centroid_witness(h, theta)
    if w is not None:
        raise AlphaNotInCentroid("twist is not in the centroid", witness=w)
    n = h.dim
    l1 = HomAlgebra(n, bracket_rows(h, theta, Matrix.identity(n)), Matrix.identity(n))
    l2 = HomAlgebra(n, bracket_rows(h, theta, theta), Matrix.identity(n))
    form = None
    if b is not None:
        if theta.inverse() is None:
            raise NotRegular("twist must be invertible to transport the form")
        qrep = check_quadratic(h, b)
        if not qrep.ok:
            raise NotSymmetric("given form is not a quadratic structure on h")
        form = BilinearForm(n, theta.transpose() @ b.gram)
    return l1, l2, form


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def adjoint_rep(g: HomAlgebra) -> Representation:
    """Adjoint representation (g, ad, alpha)."""
    return Representation(g.dim, g.dim, tuple(g.ad_matrices()), g.alpha)


def coadjoint_rep(g: HomAlgebra) -> tuple[Representation, bool]:
    """Coadjoint action on the dual: rho(x) = -ad(x)^T with twist alpha^T.

    Returns the representation data together with its validity, which holds
    exactly when the coadjoint identity does.
    """
    rep = Representation(g.dim, g.dim, _coadjoint(g), g.alpha.transpose())
    return rep, check_representation(g, rep)


def semidirect_sum(g: HomAlgebra, r: Representation) -> HomAlgebra:
    """Hom-Lie algebra on g + V with bracket [x+u,y+w] = [x,y] + x.w - y.u."""
    w = representation_witness(g, r)
    if w is not None:
        raise NotRepresentation("module axiom fails", witness=w)
    dim = g.dim + r.module_dim
    bracket = defaultdict(dict)
    _put_bracket(bracket, 0, g)
    _put_action(bracket, 0, g.dim, r.rho)
    return HomAlgebra(dim, bracket, Matrix.block_diagonal([g.alpha, r.beta]))


# ---------------------------------------------------------------------------
# quadratic constructions
# ---------------------------------------------------------------------------

def quadratic_yau_twist(q: QuadraticHomAlgebra, endo: Matrix) -> QuadraticHomAlgebra:
    """Twist of a quadratic Lie algebra by a symmetric automorphism.

    New bracket [a(x), a(y)], twist a, and form B_a(x,y) = B(a(x), y).
    """
    g = q.algebra
    _require_lie(g, "quadratic_yau_twist")
    w = bracket_mismatch(g, g, endo, ((endo, endo),))
    if w is not None or endo.inverse() is None:
        raise NotAutomorphism("twist must be a bracket automorphism", witness=w)
    if endo.transpose() @ q.gram != q.gram @ endo:
        raise NotSymmetric("automorphism is not symmetric for the form")
    alg = HomAlgebra(g.dim, bracket_rows(g, endo, endo), endo)
    return QuadraticHomAlgebra(alg, BilinearForm(g.dim, endo.transpose() @ q.gram))


def quadratic_derived(q: QuadraticHomAlgebra, n: int) -> QuadraticHomAlgebra:
    """n-th derived algebra of a regular multiplicative quadratic Hom-Lie algebra."""
    g = q.algebra
    require_multiplicative(g)
    if g.alpha.inverse() is None:
        raise NotRegular("twist map must be invertible")
    if n < 0:
        raise ValueError("derived index must be >= 0")
    p = g.alpha.power(n)
    alg = HomAlgebra(g.dim, _mapped(p, g.table), p @ g.alpha)
    return QuadraticHomAlgebra(alg, BilinearForm(g.dim, p.transpose() @ q.gram))


def tstar_extension(g: HomAlgebra) -> QuadraticHomAlgebra:
    """Quadratic Lie algebra on g + g* with the coadjoint action.

    Bracket [x+f, y+h] = [x,y] + f o ad(y) - h o ad(x); hyperbolic pairing
    B0(x+f, y+h) = f(y) + h(x).  Basis order: g-basis then dual basis.
    """
    _require_lie(g, "tstar_extension")
    n = g.dim
    dim = 2 * n
    bracket = defaultdict(dict)
    _put_bracket(bracket, 0, g)
    _put_action(bracket, 0, n, _coadjoint(g))
    gram = _extension_gram(Matrix.zeros(n, n), Matrix.zeros(0, 0))
    alg = HomAlgebra(dim, bracket, Matrix.identity(dim))
    return QuadraticHomAlgebra(alg, BilinearForm(dim, gram))


def omega_map(g: HomAlgebra, a: Matrix) -> tuple[QuadraticHomAlgebra, Matrix]:
    """T*-extension of a Lie algebra and the map acting as a on g, a^T on g*."""
    if a.shape != (g.dim, g.dim):
        raise DimensionMismatch(f"a must be {g.dim} x {g.dim}, got {a.rows} x {a.cols}")
    tstar = tstar_extension(g)
    omega = Matrix.block_diagonal([a, a.transpose()])
    return tstar, omega


def omega_extension(g: HomAlgebra, a: Matrix | None = None) -> QuadraticHomAlgebra:
    """Regular quadratic Hom-Lie algebra from a Lie algebra and an automorphism.

    Requires Im(a^2 - id) inside the center of g; then the blockwise map
    Omega = (a, a^T) is a symmetric automorphism of the T*-extension and the
    quadratic twist by Omega is returned.
    """
    if a is None:
        a = g.alpha
        g = g.with_alpha(Matrix.identity(g.dim))
    _require_lie(g, "omega_extension")
    w = bracket_mismatch(g, g, a, ((a, a),))
    if w is not None or a.inverse() is None:
        raise NotAutomorphism("a must be a bracket automorphism", witness=w)
    z = center(g)
    defect = a @ a - Matrix.identity(g.dim)
    for j in range(g.dim):
        col = defect.col(j)
        if not z.contains_vector(col):
            raise CenterConditionFailed(
                "Im(a^2 - id) is not contained in the center", witness=col
            )
    tstar, omega = omega_map(g, a)
    return quadratic_yau_twist(tstar, omega)


def tensor_current(
    g: HomAlgebra, a: AssocAlgebra, theta: Matrix
) -> tuple[HomAlgebra, Matrix]:
    """Current Lie algebra g (x) A with [x(x)a, y(x)b] = [x,y] (x) ab.

    A must be commutative associative and theta an algebra automorphism with
    Im(theta^2 - id) inside the annihilator of A.  Returns the Lie algebra
    (basis x_i (x) a_r ordered with r fastest) and the automorphism
    id (x) theta, whose square defect lands in the center.
    """
    _require_lie(g, "tensor_current")
    if not a.is_commutative() or not check_hom_associative(
        AssocAlgebra(a.dim, a.table, Matrix.identity(a.dim))
    ):
        raise NotCommutativeAssociative("A must be commutative associative")
    if theta.shape != (a.dim, a.dim):
        raise DimensionMismatch(f"theta must be {a.dim} x {a.dim}, got {theta.rows} x {theta.cols}")
    if theta.inverse() is None:
        raise NotAutomorphism("theta must be invertible on A")
    w = product_mismatch(a, theta)
    if w is not None:
        raise NotAutomorphism("theta does not preserve the product", witness=w)
    m = a.dim
    ann = annihilator(a)
    defect = theta @ theta - Matrix.identity(m)
    for j in range(m):
        col = defect.col(j)
        if not ann.contains_vector(col):
            raise AnnihilatorConditionFailed(
                "Im(theta^2 - id) is not contained in the annihilator", witness=col
            )
    dim = g.dim * m
    # [x_i (x) a_r, x_j (x) a_s] = [x_i, x_j] (x) a_r a_s, on basis index i * m + r
    bracket = {
        (i * m + r, j * m + s): {k * m + t: c * p for k, c in cg.items() for t, p in ab.items()}
        for (i, j), cg in g.table.items()
        if i < j
        for (r, s), ab in a.table.items()
    }
    lie = HomAlgebra(dim, bracket, Matrix.identity(dim))
    theta_tilde = Matrix.block_diagonal([theta] * g.dim)
    z = center(lie)
    # theta_tilde = diag(theta, ..., theta), so its square defect is diag(defect, ..., defect)
    big_defect = Matrix.block_diagonal([defect] * g.dim)
    for j in range(dim):
        col = big_defect.col(j)
        if not z.contains_vector(col):
            raise AnnihilatorConditionFailed(
                "internal: square defect of id(x)theta escaped the center",
                witness=col,
            )
    return lie, theta_tilde


# ---------------------------------------------------------------------------
# double extensions
# ---------------------------------------------------------------------------

def double_extension_conditions(
    v: QuadraticHomAlgebra, d: ExtensionData1D
) -> list[tuple[str, tuple]]:
    """All violated conditions of the one-dimensional double extension.

    DE1:  a o delta o a - lam delta = [x0, .]
    DE2:  [a, delta^2] = [delta(x0), .]
    DE3:  (lam delta + [x0,.])([x,y]) = [delta x, a y] + [a x, delta y]
    skew: B(delta x, y) = -B(x, delta y)
    mult: compatibility forcing the extension to stay multiplicative
    """
    g, gram = v.algebra, v.gram
    a, dl = g.alpha, d.delta
    n = g.dim
    if dl.shape != (n, n) or len(d.x0) != n:
        raise DimensionMismatch("extension data sized for a different algebra")
    bad = []
    lhs = a @ dl @ a - dl.scale(d.lam)
    rhs = g.ad_vec(d.x0)
    w = first_mismatch(lhs, rhs)
    if w is not None:
        bad.append(("DE1", w))
    d2 = dl @ dl
    w = first_mismatch(a @ d2 - d2 @ a, g.ad_vec(dl.apply(d.x0)))
    if w is not None:
        bad.append(("DE2", w))
    op = dl.scale(d.lam) + g.ad_vec(d.x0)
    w = bracket_mismatch(g, g, op, ((dl, a), (a, dl)))
    if w is not None:
        bad.append(("DE3", w))
    w = first_mismatch(dl.transpose() @ gram, (gram @ dl).scale(-1))
    if w is not None:
        bad.append(("NotSkew", w))
    # multiplicativity of the extension needs two extra identities beyond the
    # displayed conditions; both hold automatically for involution-compatible
    # data and for data extracted from a multiplicative algebra.
    w = first_mismatch(a @ dl, op @ a)
    if w is not None:
        bad.append(("DEmult", w))
    else:
        lhs_vec = (dl.transpose() @ gram).apply(d.x0)
        rhs_vec = (a.transpose() @ gram).apply(dl.apply(d.x0))
        if lhs_vec != rhs_vec:
            bad.append(("DEmult", next(i for i in range(n) if lhs_vec[i] != rhs_vec[i])))
    return bad


def double_extension_1d(
    v: QuadraticHomAlgebra, d: ExtensionData1D, require_involutive: bool = False
) -> QuadraticHomAlgebra:
    """One-dimensional double extension of a quadratic multiplicative algebra.

    Output basis order (b, V-basis, e) with [b,x] = delta(x),
    [x,y] = [x,y]_V + B(delta x, y) e, B(b,e) = 1, twist acting by
    a(b) = lam b + x0 + lam0 e, a(x) = a_V(x) + B(x0,x) e, a(e) = lam e.
    """
    g = v.algebra
    require_multiplicative(g, what="base twist")
    bad = double_extension_conditions(v, d)
    if bad:
        name, witness = bad[0]
        raise ConditionFailed(name, witness=witness)
    if require_involutive:
        if not g.alpha.power(2).is_identity():
            raise NotInvolutive("base twist is not an involution")
        b00 = v.form.value(d.x0, d.x0)
        ok = (
            d.lam in (Fraction(1), Fraction(-1))
            and g.alpha.apply(d.x0) == tuple(-d.lam * x for x in d.x0)
            and d.lam0 == -b00 / (2 * d.lam)
        )
        if not ok:
            raise InvolutiveDataInvalid("involution constraints on (lam, x0, lam0) fail")
    n = g.dim
    dim = n + 2
    E, B0 = n + 1, 0  # e index, b index
    bracket = defaultdict(dict)
    _put_bracket(bracket, 1, g)
    _put_pairing(bracket, 1, E, [d.delta], v.gram)
    _put_action(bracket, B0, 1, [d.delta])
    lam = Matrix([[d.lam]])
    alpha_rows = [list(r) for r in Matrix.block_diagonal([lam, g.alpha, lam]).data]
    for k in range(n):
        alpha_rows[1 + k][B0] = d.x0[k]
        alpha_rows[E][1 + k] = v.form.value(d.x0, unit_vec(n, k))
    alpha_rows[E][B0] = d.lam0
    alg = HomAlgebra(dim, bracket, Matrix(alpha_rows))
    gram = _extension_gram(Matrix.zeros(1, 1), v.gram)
    return QuadraticHomAlgebra(alg, BilinearForm(dim, gram))


def double_extension_parts(
    q: QuadraticHomAlgebra, b, vs, e
) -> tuple[QuadraticHomAlgebra, ExtensionData1D]:
    """The base and data of q as a double extension in the frame (b, vs, e).

    Inverts ``double_extension_1d``: q is carried to the basis b, vs, e, the
    base is the block on vs, delta is the vs-part of [b, .], and alpha(b)
    gives lam, x0 and lam0 as its b-, vs- and e-coordinates.  Raises
    ``ReconstructionFailed`` unless rebuilding from them gives the carried
    algebra exactly.
    """
    n = len(vs)
    t = change_basis_quadratic(q, Matrix([b, *vs, e]).transpose())
    base = block_algebra(t, 1, n + 1)
    delta = Matrix.from_cols([t.algebra.basis_bracket(0, 1 + u)[1 : n + 1] for u in range(n)])
    ab = t.alpha.col(0)
    data = ExtensionData1D(delta, ab[1 : n + 1], ab[0], ab[n + 1])
    if double_extension_1d(base, data) != t:
        raise ReconstructionFailed("rebuilt extension does not match the input")
    return base, data


def _check_involutive_extension(v, a, d):
    gv = v.algebra
    n, m = gv.dim, a.dim
    if len(d.phi) != m or any(p.shape != (n, n) for p in d.phi):
        raise DimensionMismatch("phi needs one n x n matrix per basis vector of A")
    if d.gamma.dim != m:
        raise DimensionMismatch("gamma must be a form on A")
    if not gv.alpha.power(2).is_identity() or not is_multiplicative(gv):
        raise ConditionFailed("NotInvolutive", "base algebra is not involutive multiplicative")
    if not a.alpha.power(2).is_identity() or not is_multiplicative(a):
        raise ConditionFailed("NotInvolutive", "extending algebra is not involutive multiplicative")
    arep = check_hom_lie(a)
    if not arep.ok:
        raise ConditionFailed("NotInvolutive", "extending algebra is not Hom-Lie", witness=arep.jacobi_witness)
    rep = Representation(m, n, d.phi, gv.alpha)
    w = representation_witness(a, rep)
    if w is not None:
        raise NotRepresentation("phi is not a module action with twist alpha_V", witness=w)
    av, gram = gv.alpha, v.gram
    ident = Matrix.identity(n)
    for r, p in enumerate(d.phi):
        pav = p @ av
        w = bracket_mismatch(gv, gv, av @ p, ((pav, ident), (ident, pav)))
        if w is not None:
            raise ConditionFailed("TDE1", witness=(r,) + w)
    for r in range(m):
        lhs = rep.rho_vec(a.alpha.col(r))
        rhs = av @ d.phi[r] @ av
        w = first_mismatch(lhs, rhs)
        if w is not None:
            raise ConditionFailed("TDE2", witness=(r,) + w)
    for r in range(m):
        w = first_mismatch(d.phi[r].transpose() @ gram, (gram @ d.phi[r]).scale(-1))
        if w is not None:
            raise ConditionFailed("TDE3", witness=(r,) + w)
    qrep = check_quadratic(a, d.gamma)
    if not qrep.symmetric:
        raise ConditionFailed("GammaInvalid", "gamma is not symmetric")
    if not qrep.invariant:
        raise ConditionFailed("GammaInvalid", witness=qrep.invariant_witness)
    if not qrep.alpha_symmetric:
        raise ConditionFailed("GammaInvalid", "gamma is not alpha_A-symmetric")


def _involutive_extension_parts(v, a, d, include_action: bool):
    gv = v.algebra
    n, m = gv.dim, a.dim
    dim = m + n + m  # A, V, A* blocks
    A0, V0, F0 = 0, m, m + n
    bracket = defaultdict(dict)
    _put_bracket(bracket, A0, a)
    _put_action(bracket, A0, F0, _coadjoint(a))
    if include_action:
        _put_action(bracket, A0, V0, d.phi)
    _put_bracket(bracket, V0, gv)
    _put_pairing(bracket, V0, F0, d.phi, v.gram)
    alpha = Matrix.block_diagonal([a.alpha, gv.alpha, a.alpha.transpose()])
    gram = _extension_gram(d.gamma.gram, v.gram)
    return HomAlgebra(dim, bracket, alpha), BilinearForm(dim, gram)


def involutive_double_extension(
    v: QuadraticHomAlgebra, a: HomAlgebra, d: InvolutiveExtensionData
) -> QuadraticHomAlgebra:
    """Double extension of an involutive quadratic algebra by an involutive algebra.

    Underlying space A + V + A* with the coadjoint action on A*, the module
    action of A on V, the pairing map psi(x,y)(a) = B(phi(a)x, y) into A*, and
    form B_V + hyperbolic A pairing + gamma.
    """
    _check_involutive_extension(v, a, d)
    alg, form = _involutive_extension_parts(v, a, d, include_action=True)
    return QuadraticHomAlgebra(alg, form)


def involutive_double_extension_literal(
    v: QuadraticHomAlgebra, a: HomAlgebra, d: InvolutiveExtensionData
) -> tuple[HomAlgebra, BilinearForm]:
    """Variant without the module action terms between A and V, unvalidated.

    Kept for comparison: with a generically acting phi this bracket fails the
    twisted Jacobi identity, while the full construction passes.
    """
    _check_involutive_extension(v, a, d)
    return _involutive_extension_parts(v, a, d, include_action=False)


def involutive_extension_discrepancy(
    v: QuadraticHomAlgebra, a: HomAlgebra, d: InvolutiveExtensionData
) -> dict:
    """Compare the full bracket against the action-free variant on one dataset."""
    full = involutive_double_extension(v, a, d)
    full_report = check_hom_lie(full.algebra)
    lit_alg, _ = involutive_double_extension_literal(v, a, d)
    lit_report = check_hom_lie(lit_alg)
    return {
        "corrected_hom_jacobi": full_report.hom_jacobi,
        "literal_hom_jacobi": lit_report.hom_jacobi,
        "literal_witness": lit_report.jacobi_witness,
        "literal_residual": lit_report.jacobi_residual,
    }
