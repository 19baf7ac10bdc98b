"""Named fixtures and seeded random generators.

Classical example algebras parameterized over exact rationals, plus
deterministic pseudorandom instances feeding the property suites.  Fixture
names are part of the CLI contract.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product

from .build import (
    MAX_OUTPUT_DIM,
    change_basis,
    change_basis_quadratic,
    direct_sum,
    double_extension_1d,
    double_extension_conditions,
    orthogonal_sum,
    quadratic_yau_twist,
    yau_twist,
)
from .errors import BadParams, UnknownFixture
from .exactlin import Matrix, combine_rows, frac, solve_rows, sparse_row, unit_vec, zero_vec
from .homalg import AssocAlgebra, BilinearForm, ExtensionData1D, HomAlgebra, QuadraticHomAlgebra

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


def _x1_to_x3(*_):
    return ["x1", "x2", "x3"]


# name -> (signature, builder, arity or -1 for any, (number of leading size
# parameters, dimension from them) or None, basis names from the parameters
# when natural ones exist, else None)
_FIXTURES = {
    "ex_1_2": ("a b c d", ex_1_2, 4, None, _x1_to_x3),
    "jackson_sl2": ("q", jackson_sl2, 1, None, _x1_to_x3),
    "sl2": ("", sl2, 0, None, lambda *_: ["e", "f", "h"]),
    "heis3": ("", heis3, 0, None, _x1_to_x3),
    "abelian": ("n", abelian, 1, (1, lambda n: n), None),
    "sl_n_transpose": ("n", sl_n_transpose, 1, (1, lambda n: n * n - 1), None),
    "swap_double": ("n", swap_double, 1, (1, lambda n: 2 * (n * n - 1)), None),
    "filiform": ("n lambda", filiform, 2, (1, lambda n: n + 1), lambda *p: [f"x{i}" for i in range(_size(p[0]) + 1)]),
    "two_nilpotent": ("dim_v dim_z lambda-entries...", two_nilpotent, -1, (2, lambda dim_v, dim_z: dim_v + dim_z), None),
    "assoc_a": ("q", assoc_a, 1, None, lambda *_: ["e", "f", "h", "t"]),
}


def fixture_names() -> list[tuple[str, str]]:
    return [(name, entry[0]) for name, entry in sorted(_FIXTURES.items())]


def emit(name: str, *params):
    """Build a registered fixture; raises UnknownFixture / BadParams.

    A sized fixture's dimension is worked out from its parameters first,
    and one over ``build.MAX_OUTPUT_DIM`` raises BadParams before anything is built.
    """
    if name not in _FIXTURES:
        raise UnknownFixture(name)
    _, builder, arity, sized, _ = _FIXTURES[name]
    if arity >= 0 and len(params) != arity:
        raise BadParams(f"{name} expects {arity} parameter(s)")
    if sized:
        k, dimension = sized
        if len(params) < k:
            raise BadParams(f"{name} expects at least {k} parameters")
        sizes = [_size(p) for p in params[:k]]
        dim = dimension(*sizes)
        # a size below the fixture's minimum is left to the builder's own error
        if min(sizes) > 0 and dim > MAX_OUTPUT_DIM:
            raise BadParams(f"{name} would have dimension {dim}, over the limit {MAX_OUTPUT_DIM}")
    return builder(*params)


def basis_names(name: str, *params) -> list[str] | None:
    """Display names for a fixture's basis, when natural ones exist."""
    entry = _FIXTURES.get(name)
    return entry[4](*params) if entry and entry[4] else None


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


def _solutions(n: int, equations) -> tuple[Matrix | None, list[Matrix]]:
    """Solutions D, n x n, of equations (terms, w) meaning sum u^T D v = w over the (u, v) in terms.

    Only this code flattens D (row major).  Returns a particular solution and
    a homogeneous basis, or (None, []) when the system is inconsistent.
    """
    rows = [
        sparse_row(chain(
            ((i * n + j, x * y) for u, v in terms for i, x in u.items() for j, y in v.items()), [(n * n, w)]
        ))
        for terms, w in equations
    ]
    particular, homogeneous = solve_rows(rows, n * n)
    if particular is None:
        return None, []
    square = [Matrix([v[i * n : (i + 1) * n] for i in range(n)]) for v in (particular, *homogeneous.vectors())]
    return square[0], square[1:]


def _twist_skew_equations(q: QuadraticHomAlgebra, lam: Fraction, r: Matrix):
    """(a D a - lam D)[i][j] = r[i][j] and B(D x_i, x_j) + B(x_i, D x_j) = 0, a and B of q.

    These are DE1 and skewness of a one-dimensional double extension, and
    TDE2 and TDE3 of an involutive one with a one-dimensional extender.
    """
    n, gram_rows = q.dim, q.gram.row_dicts  # the form is symmetric
    a_rows, a_cols = q.alpha.row_dicts, q.alpha.col_dicts()
    for i, j in product(range(n), repeat=2):
        yield [(a_rows[i], a_cols[j]), ({i: 1}, {j: -lam})], r[i, j]
    for i, j in combinations_with_replacement(range(n), 2):  # the form identity is symmetric in i, j
        yield [(gram_rows[j], {i: 1}), (gram_rows[i], {j: 1})], 0


def _bracket_equations(g: HomAlgebra, left: Matrix, p: Matrix, q: Matrix, r: Matrix):
    """L D [x_s, x_t] = [D P x_s, Q x_t] + [Q x_s, D P x_t] + R [x_s, x_t] for s < t.

    This is the identity ``homalg.bracket_mismatch`` checks, one equation per
    coordinate k.  The x_k coordinate of [y, Q x_t] is sum_m y_m [x_m, Q x_t]_k,
    so right_q[t][k] = {m: [x_m, Q x_t]_k}.
    """
    n, ad = g.dim, g.ad_entries()  # ad: (k, t) -> (m, [x_m, x_t]_k)
    left_rows, r_cols = left.row_dicts, r.col_dicts()
    p_cols, neg_p_cols = p.col_dicts(), (-p).col_dicts()
    right_q = [
        [combine_rows((c, dict(ad.get((k, t), ()))) for t, c in q_col.items()) for k in range(n)]
        for q_col in q.col_dicts()
    ]
    for s, t in combinations(range(n), 2):
        c_st = {m: x for m, x in enumerate(g.bracket.get((s, t), ())) if x}
        rhs = combine_rows((x, r_cols[m]) for m, x in c_st.items())
        for k in range(n):
            yield [(left_rows[k], c_st), (right_q[t][k], neg_p_cols[s]), (right_q[s][k], p_cols[t])], rhs.get(k, 0)


def extension_delta_space(q: QuadraticHomAlgebra, lam: Fraction, x0) -> tuple[Matrix, list[Matrix]]:
    """Solutions delta of the linear extension constraints over a given base.

    Solves, exactly and simultaneously, a delta a - lam delta = [x0, .],
    skewness of delta for the form, and the compatibility of lam delta + [x0,.]
    with the bracket; returns a particular solution and a basis of the
    homogeneous solution space.  The quadratic constraint on delta^2 and the
    multiplicativity compatibilities are not linear and must be checked on
    each candidate afterwards.
    """
    ident, adx0 = Matrix.identity(q.dim), q.algebra.ad_vec(x0)
    return _solutions(q.dim, chain(
        _twist_skew_equations(q, lam, adx0), _bracket_equations(q.algebra, ident.scale(lam), ident, q.alpha, -adx0)
    ))


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
    n, a, zero = v.dim, v.alpha, Matrix.zeros(v.dim, v.dim)
    return _solutions(n, chain(
        _twist_skew_equations(v, eps, zero), _bracket_equations(v.algebra, a, a, Matrix.identity(n), zero)
    ))[1]


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
