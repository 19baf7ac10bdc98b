"""Named fixtures and seeded random generators.

Classical example algebras parameterized over exact rationals, plus
deterministic pseudorandom instances feeding the property suites.  Fixture
names are part of the CLI contract.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

from .build import (
    change_basis,
    change_basis_quadratic,
    direct_sum,
    double_extension_1d,
    double_extension_conditions,
    ExtensionData1D,
    orthogonal_sum,
    quadratic_yau_twist,
    yau_twist,
)
from .errors import BadParams, UnknownFixture
from .exactlin import Matrix, frac, solve_rows, sparse_row, unit_vec, zero_vec
from .homalg import AssocAlgebra, BilinearForm, HomAlgebra, QuadraticHomAlgebra

_ONE = Fraction(1)
_ZERO = Fraction(0)


def _size(x) -> int:
    """A size parameter as an int; BadParams unless it is an integer."""
    try:
        value = frac(x)
    except (TypeError, ValueError):
        raise BadParams(f"size parameter must be an integer, got {x!r}") from None
    if value.denominator != 1:
        raise BadParams(f"size parameter must be an integer, got {value}")
    return int(value)


# ---------------------------------------------------------------------------
# basic Lie algebras
# ---------------------------------------------------------------------------

def abelian(n: int) -> HomAlgebra:
    """Zero bracket with identity twist."""
    n = _size(n)
    if n < 1:
        raise BadParams("dimension must be >= 1")
    return HomAlgebra(n, {}, Matrix.identity(n))


def heis3() -> HomAlgebra:
    """Heisenberg algebra: [x1,x2] = x3."""
    return HomAlgebra(3, {(0, 1): [0, 0, 1]}, Matrix.identity(3))


def sl2() -> HomAlgebra:
    """sl2 in the basis (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    return sl_n(2)


def _sln_basis(n: int) -> list[dict[tuple[int, int], Fraction]]:
    """The basis matrices of sl_n as {(row, col): entry}, in the order of ``sl_n``."""
    mats = [{(i, j): _ONE} for i in range(n) for j in range(n) if i != j]
    return mats + [{(k, k): _ONE, (k + 1, k + 1): -_ONE} for k in range(n - 1)]


def _sln_coords(n: int, m: dict[tuple[int, int], Fraction]) -> list[Fraction]:
    """Coordinates of a traceless matrix, given by its nonzero entries, in that basis.

    E_ij has coordinate m[i][j]; H_k has m[0][0] + ... + m[k][k].
    """
    coords = [_ZERO] * (n * n - 1)
    diag = [_ZERO] * n
    for (i, j), x in m.items():
        if i == j:
            diag[i] = x
        else:
            coords[i * (n - 1) + j - (j > i)] = x
    partial = _ZERO
    for k in range(n - 1):
        partial += diag[k]
        coords[n * (n - 1) + k] = partial
    return coords


def _sln_commutator(a: dict, b: dict) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of ab - ba, for matrices given by their nonzero entries."""
    return sparse_row(
        ((i, j), c * x * y)
        for c, u, v in ((_ONE, a, b), (-_ONE, b, a))
        for (i, t), x in u.items()
        for (s, j), y in v.items()
        if t == s
    )


def sl_n(n: int) -> HomAlgebra:
    """sl_n with basis E_ij (i != j, row major) then H_k = E_kk - E_(k+1)(k+1)."""
    n = _size(n)
    if n < 2:
        raise BadParams("sl_n needs n >= 2")
    basis = _sln_basis(n)
    dim = len(basis)
    bracket = {}
    for p, a in enumerate(basis):
        for q in range(p + 1, dim):
            comm = _sln_commutator(a, basis[q])
            if comm:
                bracket[(p, q)] = _sln_coords(n, comm)
    return HomAlgebra(dim, bracket, Matrix.identity(dim))


def sl_n_killing(n: int) -> BilinearForm:
    """Killing form of sl_n: K(x, y) = 2n tr(xy)."""
    n = _size(n)
    basis = _sln_basis(n)
    gram = [
        [2 * n * sum((x * b.get((t, i), _ZERO) for (i, t), x in a.items()), _ZERO) for b in basis]
        for a in basis
    ]
    return BilinearForm(len(basis), Matrix(gram))


def sl_n_neg_transpose(n: int) -> Matrix:
    """The involution x -> -x^T of sl_n, in the standard basis."""
    n = _size(n)
    return Matrix.from_cols(
        [_sln_coords(n, {(j, i): -x for (i, j), x in m.items()}) for m in _sln_basis(n)]
    )


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------

def ex_1_2(a, b, c, d) -> HomAlgebra:
    """Three-dimensional Hom-Lie family: [x1,x2]=a x1+b x3, [x1,x3]=c x2,
    [x2,x3]=d x1+2a x3, twist diag(1,2,2)."""
    a, b, c, d = frac(a), frac(b), frac(c), frac(d)
    pairs = {
        (0, 1): [a, _ZERO, b],
        (0, 2): [_ZERO, c, _ZERO],
        (1, 2): [d, _ZERO, 2 * a],
    }
    return HomAlgebra(3, pairs, Matrix.diagonal([1, 2, 2]))


def jackson_sl2(q) -> HomAlgebra:
    """Jackson sl2: [x1,x2]=-2q x2, [x1,x3]=2 x3, [x2,x3]=-(1+q)/2 x1,
    twist diag(q, q^2, q).  q = 1 recovers the classical sl2."""
    q = frac(q)
    if q == 0:
        raise BadParams("q must be nonzero")
    pairs = {
        (0, 1): [_ZERO, -2 * q, _ZERO],
        (0, 2): [_ZERO, _ZERO, frac(2)],
        (1, 2): [-(1 + q) / 2, _ZERO, _ZERO],
    }
    return HomAlgebra(3, pairs, Matrix.diagonal([q, q * q, q]))


def sl_n_transpose(n) -> QuadraticHomAlgebra:
    """sl_n twisted by x -> -x^T, with the twisted Killing form."""
    n = _size(n)
    base = QuadraticHomAlgebra(sl_n(n), sl_n_killing(n))
    return quadratic_yau_twist(base, sl_n_neg_transpose(n))


def swap_double(n=2) -> HomAlgebra:
    """sl_n + sl_n twisted by the factor swap automorphism."""
    n = _size(n)
    g = sl_n(n)
    l = direct_sum(g, g)
    swap = Matrix([unit_vec(l.dim, (i + g.dim) % l.dim) for i in range(l.dim)])
    return yau_twist(l, swap)


def filiform(n, lam) -> HomAlgebra:
    """Filiform nilpotent algebra on x0..xn: [x0,xi] = x(i+1) for 1 <= i < n,
    with the automorphism x0 -> x0 + lam xn fixing the other basis vectors."""
    n = _size(n)
    lam = frac(lam)
    if n < 2:
        raise BadParams("filiform needs n >= 2")
    dim = n + 1
    pairs = {}
    for i in range(1, n):
        v = [_ZERO] * dim
        v[i + 1] = _ONE
        pairs[(0, i)] = v
    alpha_rows = [list(unit_vec(dim, i)) for i in range(dim)]
    alpha_rows[n][0] = lam
    return HomAlgebra(dim, pairs, Matrix(alpha_rows))


def two_nilpotent(dim_v, dim_z, *entries) -> HomAlgebra:
    """Two-step nilpotent algebra V + Z with [v(2i-1), v(2i)] landing in Z and
    the automorphism v -> v + lam(v), z -> z given by a dim_z x dim_v table."""
    dim_v, dim_z = _size(dim_v), _size(dim_z)
    if dim_v < 2 or dim_z < 1:
        raise BadParams("need dim_v >= 2 and dim_z >= 1")
    dim = dim_v + dim_z
    entries = [frac(e) for e in entries]
    if entries and len(entries) != dim_v * dim_z:
        raise BadParams("lambda table must have dim_z * dim_v entries")
    if not entries:
        entries = [_ZERO] * (dim_v * dim_z)
        entries[0] = _ONE
    pairs = {}
    for i in range(dim_v // 2):
        v = [_ZERO] * dim
        v[dim_v + (i % dim_z)] = _ONE
        pairs[(2 * i, 2 * i + 1)] = v
    alpha_rows = [list(unit_vec(dim, i)) for i in range(dim)]
    for r in range(dim_z):
        for c in range(dim_v):
            alpha_rows[dim_v + r][c] = entries[r * dim_v + c]
    return HomAlgebra(dim, pairs, Matrix(alpha_rows))


def assoc_a(q) -> AssocAlgebra:
    """Commutative associative algebra on (e,f,h,t): ee=f, ef=h, eh=t, ff=t,
    carrying the automorphism e -> e + q t."""
    q = frac(q)
    if q == 0:
        raise BadParams("q must be nonzero")
    prod = [[list(zero_vec(4)) for _ in range(4)] for _ in range(4)]

    def put(i, j, k):
        prod[i][j][k] = _ONE
        prod[j][i][k] = _ONE

    put(0, 0, 1)  # ee = f
    put(0, 1, 2)  # ef = fe = h
    put(0, 2, 3)  # eh = he = t
    put(1, 1, 3)  # ff = t
    alpha_rows = [list(unit_vec(4, i)) for i in range(4)]
    alpha_rows[3][0] = q
    return AssocAlgebra(4, prod, Matrix(alpha_rows))


_FIXTURES = {
    "ex_1_2": ("a b c d", ex_1_2, 4),
    "jackson_sl2": ("q", jackson_sl2, 1),
    "sl2": ("", lambda: sl2(), 0),
    "heis3": ("", lambda: heis3(), 0),
    "abelian": ("n", abelian, 1),
    "sl_n_transpose": ("n", sl_n_transpose, 1),
    "swap_double": ("n", swap_double, 1),
    "filiform": ("n lambda", filiform, 2),
    "two_nilpotent": ("dim_v dim_z lambda-entries...", two_nilpotent, -1),
    "assoc_a": ("q", assoc_a, 1),
}


def fixture_names() -> list[tuple[str, str]]:
    return [(name, sig) for name, (sig, _, _) in sorted(_FIXTURES.items())]


# the largest dimension ``emit`` builds: near it, sl_n_transpose 16 (dimension
# 255) takes 11-16 s on a 2-core machine and writes a 16 MB file, while a few
# more parameter digits would exhaust memory
MAX_EMIT_DIM = 256

# sized fixture -> (number of leading size parameters, dimension from them)
_DIMENSIONS = {
    "abelian": (1, lambda n: n),
    "sl_n_transpose": (1, lambda n: n * n - 1),
    "swap_double": (1, lambda n: 2 * (n * n - 1)),
    "filiform": (1, lambda n: n + 1),
    "two_nilpotent": (2, lambda dim_v, dim_z: dim_v + dim_z),
}


def emit(name: str, *params):
    """Build a registered fixture; raises UnknownFixture / BadParams.

    A sized fixture's dimension is worked out from its parameters first,
    and one over ``MAX_EMIT_DIM`` raises BadParams before anything is built.
    """
    if name not in _FIXTURES:
        raise UnknownFixture(name)
    _, builder, arity = _FIXTURES[name]
    if arity >= 0 and len(params) != arity:
        raise BadParams(f"{name} expects {arity} parameter(s)")
    if name in _DIMENSIONS:
        k, dimension = _DIMENSIONS[name]
        if len(params) < k:
            raise BadParams(f"{name} expects at least {k} parameters")
        sizes = [_size(p) for p in params[:k]]
        dim = dimension(*sizes)
        # a size below the fixture's minimum is left to the builder's own error
        if min(sizes) > 0 and dim > MAX_EMIT_DIM:
            raise BadParams(f"{name} would have dimension {dim}, over the limit {MAX_EMIT_DIM}")
    return builder(*params)


def basis_names(name: str, *params) -> list[str] | None:
    """Display names for a fixture's basis, when natural ones exist."""
    if name in ("ex_1_2", "jackson_sl2"):
        return ["x1", "x2", "x3"]
    if name == "sl2":
        return ["e", "f", "h"]
    if name == "heis3":
        return ["x1", "x2", "x3"]
    if name == "filiform":
        return [f"x{i}" for i in range(_size(params[0]) + 1)]
    if name == "assoc_a":
        return ["e", "f", "h", "t"]
    return None


# ---------------------------------------------------------------------------
# deterministic random instances
# ---------------------------------------------------------------------------

def _rand_fraction(rng: random.Random, small=False) -> Fraction:
    num = rng.randrange(-4, 5) if small else rng.randrange(-9, 10)
    den = rng.choice((1, 1, 2, 3))
    return Fraction(num, den)


def _rand_unimodular(rng: random.Random, n: int) -> Matrix:
    """Random integer matrix with determinant +-1 (product of shears and swaps)."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        shear = [list(unit_vec(n, r)) for r in range(n)]
        shear[i][j] = Fraction(rng.randrange(-2, 3))
        m = m @ Matrix(shear)
    perm = list(range(n))
    rng.shuffle(perm)
    p = Matrix([unit_vec(n, perm[r]) for r in range(n)])
    return m @ p


def _lie_block(rng: random.Random, size: int) -> HomAlgebra:
    pick = rng.choice(("sl2", "heis3", "filiform", "abelian")) if size >= 3 else "abelian"
    if pick in ("sl2", "heis3"):
        head = sl2() if pick == "sl2" else heis3()
        return direct_sum(head, abelian(size - 3)) if size > 3 else head
    if pick == "filiform":
        return filiform(size - 1, 0).with_alpha(Matrix.identity(size))
    return abelian(size)


def _lie_blocks(rng: random.Random, dim: int) -> HomAlgebra:
    out = None
    remaining = dim
    while remaining:
        size = rng.randrange(1, remaining + 1)
        block = _lie_block(rng, size)
        out = block if out is None else direct_sum(out, block)
        remaining = dim - out.dim
    return out


def _hom_lie_block(rng: random.Random, size: int) -> HomAlgebra:
    if size >= 3 and rng.random() < 0.7:
        pick = rng.choice(("jackson", "ex12", "twisted_sl2", "filiform"))
        if pick == "jackson":
            head = jackson_sl2(_rand_fraction(rng, small=True) or Fraction(2))
        elif pick == "ex12":
            head = ex_1_2(*(_rand_fraction(rng, small=True) for _ in range(4)))
        elif pick == "twisted_sl2":
            head = sl_n_transpose(2).algebra
        else:
            head = filiform(size - 1, _rand_fraction(rng, small=True) or _ONE)
            return head
        rest = size - 3
        return direct_sum(head, abelian(rest)) if rest else head
    signs = Matrix.diagonal([rng.choice((1, -1, 2)) for _ in range(size)])
    return abelian(size).with_alpha(signs)


def _involution_on_abelian(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """A pair (alpha, gram) on an abelian block: involutive, alpha-symmetric."""
    signs = [rng.choice((_ONE, -_ONE)) for _ in range(n)]
    alpha = Matrix.diagonal(signs)
    diag = [Fraction(rng.choice((1, 2, 3, -1, -2))) for _ in range(n)]
    gram = Matrix.diagonal(diag)
    return alpha, gram


def _nilpotent_block(size: int) -> QuadraticHomAlgebra:
    """Abelian block with a single nilpotent Jordan twist and antidiagonal form."""
    rows = [[_ZERO] * size for _ in range(size)]
    for i in range(size - 1):
        rows[i][i + 1] = _ONE
    gram = [unit_vec(size, size - 1 - i) for i in range(size)]
    alg = abelian(size).with_alpha(Matrix(rows))
    return QuadraticHomAlgebra(alg, BilinearForm(size, Matrix(gram)))


def _twist_skew_rows(q: QuadraticHomAlgebra, lam: Fraction) -> list[dict[int, Fraction]]:
    """Sparse linear rows in the entries of D (row major): first
    (a D a - lam D)[i][j], then (D^T gram + gram D)[i][j], for all i, j, with
    a the twist of q."""
    n = q.dim
    a, gram = q.alpha, q.gram
    a_rows = [[(r, x) for r, x in enumerate(a.row(i)) if x] for i in range(n)]
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


def extension_delta_space(q: QuadraticHomAlgebra, lam: Fraction, x0) -> tuple[Matrix, list[Matrix]]:
    """Solutions delta of the linear extension constraints over a given base.

    Solves, exactly and simultaneously, a delta a - lam delta = [x0, .],
    skewness of delta for the form, and the compatibility of lam delta + [x0,.]
    with the bracket; returns a particular solution and a basis of the
    homogeneous solution space.  The quadratic constraint on delta^2 and the
    multiplicativity compatibilities are not linear and must be checked on
    each candidate afterwards.
    """
    n = q.dim
    g = q.algebra
    a = q.alpha
    adx0 = g.ad_vec(x0)
    # (a delta a)[i][j] - lam delta[i][j] = ad(x0)[i][j]; delta skew for the form
    rows = _twist_skew_rows(q, lam)
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


def random_extension_data(
    rng: random.Random,
    q: QuadraticHomAlgebra,
    lam: Fraction,
    x0=None,
    involutive: bool = False,
):
    """A valid one-dimensional extension datum over q, or None.

    Draws delta, up to eight times, from the exact solution space of the
    linear constraints and filters through the full condition set (the
    remaining conditions are not linear in delta).  With ``involutive`` the
    scalar lam0 is pinned to the involution-compatible value, otherwise it
    is drawn at random; an involutive datum needs lam = 1 or -1, else
    ``BadParams``.
    """
    if involutive and lam not in (1, -1):
        raise BadParams(f"involutive extension data needs lambda 1 or -1, got {lam}")
    n = q.dim
    x0 = tuple(x0) if x0 is not None else zero_vec(n)
    part, hom = extension_delta_space(q, lam, x0)
    if part is None:
        return None
    for _ in range(8):
        delta = part
        for h in hom:
            c = Fraction(rng.randrange(-3, 4))
            if c:
                delta = delta + h.scale(c)
        if involutive:
            lam0 = -q.form.value(x0, x0) / (2 * lam)
        else:
            lam0 = _rand_fraction(rng, small=True)
        data = ExtensionData1D(delta, x0, lam, lam0)
        if not double_extension_conditions(q, data):
            return data
    return None


def involutive_action_space(
    v: QuadraticHomAlgebra, eps: Fraction
) -> list[Matrix]:
    """Action matrices for a one-dimensional involutive extender with twist eps.

    Returns a basis of the space of maps D with a D a = eps D, D skew for the
    form, and a D([x,y]) = [D a x, y] + [x, D a y] on the base bracket; every
    element yields valid involutive-extension data (the module axiom is
    automatic for a one-dimensional extender).
    """
    n = v.dim
    g = v.algebra
    a = v.alpha
    rows = _twist_skew_rows(v, eps)
    a_rows = [[(p, x) for p, x in enumerate(a.row(k)) if x] for k in range(n)]
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


def _quadratic_blocks(rng: random.Random, dim: int, involutive_only: bool) -> QuadraticHomAlgebra:
    out = None
    while out is None or out.dim < dim:
        remaining = dim - (out.dim if out else 0)
        options = [("abelian_inv", 1)]
        if remaining >= 2:
            options.append(("abelian_inv", 2))
            if not involutive_only:
                options += [("nilp", 2), ("abelian_scaled", 2)]
        if remaining >= 3:
            options += [("twisted_sl2", 3)] * 2
            if not involutive_only:
                options.append(("nilp", 3))
        if remaining >= 4:
            options.append(("dext", 4))
        kind, size = rng.choice(options)
        if kind == "twisted_sl2":
            block = sl_n_transpose(2)
        elif kind == "nilp":
            block = _nilpotent_block(size)
        elif kind == "abelian_scaled":
            c = Fraction(rng.choice((2, 3, -2)))
            alg = abelian(size).with_alpha(Matrix.identity(size).scale(c))
            block = QuadraticHomAlgebra(
                alg, BilinearForm(size, Matrix.diagonal([1] * size))
            )
        elif kind == "dext":
            base_alpha, base_gram = _involution_on_abelian(rng, 2)
            base = QuadraticHomAlgebra(
                abelian(2).with_alpha(base_alpha), BilinearForm(2, base_gram)
            )
            lam = Fraction(rng.choice((1, -1)))
            # x0 in the (-lam)-eigenspace of the involution keeps the data valid
            eig = [
                _rand_fraction(rng, small=True) if base_alpha[k, k] == -lam else _ZERO
                for k in range(2)
            ]
            data = random_extension_data(
                rng, base, lam, x0=eig, involutive=involutive_only
            )
            if data is None:
                data = ExtensionData1D(
                    Matrix.zeros(2, 2), zero_vec(2), lam, _ZERO if involutive_only else _rand_fraction(rng, small=True)
                )
            block = double_extension_1d(base, data)
        else:
            alpha, gram = _involution_on_abelian(rng, size)
            block = QuadraticHomAlgebra(
                abelian(size).with_alpha(alpha), BilinearForm(size, gram)
            )
        out = block if out is None else orthogonal_sum(out, block)
    return out


def random_instance(seed: int, dim: int, kind: str):
    """Deterministic random instance of the requested kind.

    Reachable classes: ``lie`` draws direct sums of sl2, Heisenberg, filiform
    and abelian blocks under a unimodular base change; ``hom_lie`` assembles
    Hom-Lie blocks (Jackson sl2, the three-dimensional family, twisted sl2,
    twisted filiform, abelian with diagonal twists); ``quadratic`` and
    ``involutive_quadratic`` assemble orthogonal sums of twisted sl2, abelian
    blocks with compatible involutions, nilpotent-twist blocks and double
    extensions, then change basis.  Construction guarantees the checks each
    kind promises; the same seed always yields the same instance.
    """
    if dim < 1:
        raise BadParams("dim must be >= 1")
    rng = random.Random(f"{seed}:{dim}:{kind}")
    if kind == "lie":
        g = _lie_blocks(rng, dim)
        return change_basis(g, _rand_unimodular(rng, dim))
    if kind == "hom_lie":
        out = None
        while out is None or out.dim < dim:
            remaining = dim - (out.dim if out else 0)
            block = _hom_lie_block(rng, rng.randrange(1, remaining + 1))
            out = block if out is None else direct_sum(out, block)
        return change_basis(out, _rand_unimodular(rng, dim))
    if kind == "quadratic":
        q = _quadratic_blocks(rng, dim, involutive_only=False)
        return change_basis_quadratic(q, _rand_unimodular(rng, dim))
    if kind == "involutive_quadratic":
        q = _quadratic_blocks(rng, dim, involutive_only=True)
        return change_basis_quadratic(q, _rand_unimodular(rng, dim))
    raise BadParams(f"unknown kind {kind!r}")
