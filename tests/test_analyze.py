import random
import tracemalloc
from fractions import Fraction

import pytest

from homlie import analyze, catalog, exactlin
from homlie.analyze import (
    center,
    centroid,
    decompose_irreducible,
    fitting_decomposition,
    ideal_closure,
    is_ideal,
    is_solvable,
    orthogonal_ideal,
    orthogonal_subspace,
    radical_involutive,
    recognize_double_extension,
    simplicity_verdict,
    trace_form,
    verify_centerless_involution,
)
from homlie.build import (
    ExtensionData1D,
    block_algebra,
    change_basis_quadratic,
    direct_sum,
    double_extension_1d,
    orthogonal_sum,
    tstar_extension,
    untwist_involutive,
    yau_twist,
)
from homlie.catalog import _nilpotent_block, _rand_unimodular
from homlie.errors import (
    CenterTrivial,
    DimensionMismatch,
    NoIsotropicCentralVector,
    NoRationalCentralEigenvector,
    NotAnIdeal,
    NotInvolutive,
    PreconditionFailed,
)
from homlie.exactlin import Matrix, Subspace
from homlie.homalg import (
    BilinearForm,
    HomAlgebra,
    QuadraticHomAlgebra,
    check_quadratic,
)

from dense_elimination import dense_centroid
from dense_structures import dense_sln_basis, dense_sln_coords

F = Fraction


def abelian_quadratic(n, gram=None):
    return QuadraticHomAlgebra(
        catalog.abelian(n),
        BilinearForm(n, gram if gram is not None else Matrix.identity(n)),
    )


# -- center / centroid / ideals ----------------------------------------------

def test_center_basics():
    assert center(catalog.abelian(4)).is_full()
    assert center(catalog.sl2()).is_zero()
    z = center(catalog.filiform(5, 1))
    assert z == Subspace.from_vectors(6, [[0, 0, 0, 0, 0, 1]])


def test_center_is_ideal_for_multiplicative_quadratic():
    for q in (
        catalog.sl_n_transpose(2),
        tstar_extension(catalog.heis3()),
        orthogonal_sum(catalog.sl_n_transpose(2), abelian_quadratic(2)),
    ):
        z = center(q.algebra)
        assert ideal_closure(q.algebra, z) == z


def test_centroid_dimensions():
    assert centroid(catalog.abelian(3)).dim == 9
    sl2_cent = centroid(catalog.sl2())
    assert sl2_cent.dim == 1
    flat_id = [F(1) if i % 4 == 0 else F(0) for i in range(9)]
    assert sl2_cent.contains_vector(flat_id)
    assert centroid(direct_sum(catalog.sl2(), catalog.abelian(1))).dim == 2


CENTROID_CASES = {
    "sl_n_transpose 3": lambda: catalog.sl_n_transpose(3).algebra,
    "sl_n_transpose 4": lambda: catalog.sl_n_transpose(4).algebra,
    "sl_n 3": lambda: catalog.sl_n(3),
    "filiform 10 2/3": lambda: catalog.filiform(10, F(2, 3)),
    "lie 1": lambda: catalog.random_instance(1, 6, "lie"),
    "hom_lie 2": lambda: catalog.random_instance(2, 7, "hom_lie"),
    "quadratic 3": lambda: catalog.random_instance(3, 6, "quadratic").algebra,
    "involutive_quadratic 4": lambda: catalog.random_instance(4, 7, "involutive_quadratic").algebra,
}


@pytest.mark.parametrize("case", sorted(CENTROID_CASES))
def test_centroid_matches_dense_oracle(case):
    g = CENTROID_CASES[case]()
    c = centroid(g)
    assert (c.basis.data, c.pivots) == dense_centroid(g)


def test_centroid_memory_stays_sparse():
    # the n^3 x n^2 system is streamed as sparse rows, never held as a dense matrix
    g = catalog.sl_n_transpose(4).algebra
    tracemalloc.start()
    try:
        c = centroid(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.dim == 1
    assert peak < 8 * 2**20


def test_centroid_builds_no_dense_basis(monkeypatch):
    # the 900-dimensional centroid of abelian(30) is kept as integer rows until its basis is read
    def forbidden(*args):
        raise AssertionError("exactlin._rref_row called")

    monkeypatch.setattr(exactlin, "_rref_row", forbidden)
    c = centroid(catalog.abelian(30))
    assert c.dim == c.ambient_dim == 900


def test_ideal_closure():
    g = catalog.filiform(5, 1)
    assert ideal_closure(g, Subspace.zero(6)).is_zero()
    assert ideal_closure(g, Subspace.full(6)).is_full()
    seed = Subspace.from_vectors(6, [[0, 1, 0, 0, 0, 0]])
    closed = ideal_closure(g, seed)
    assert closed == Subspace.from_vectors(
        6, [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    )


def test_ideal_closure_rejects_a_seed_in_another_space():
    g = catalog.filiform(5, 1)
    for seed in (Subspace.zero(5), Subspace.from_vectors(7, [[1, 0, 0, 0, 0, 0, 0]]), Subspace.full(3)):
        with pytest.raises(DimensionMismatch):
            ideal_closure(g, seed)
        with pytest.raises(DimensionMismatch):
            is_ideal(g, seed)


def test_ideal_closure_builds_no_dense_ad_matrix(monkeypatch):
    cases = []
    for g in (catalog.filiform(5, 1), catalog.sl_n_transpose(3).algebra, catalog.heis3()):
        n = g.dim
        seeds = [Subspace.zero(n), Subspace.full(n), center(g)]
        seeds += [Subspace.from_vectors(n, [row]) for row in Matrix.identity(n).data]
        cases.append((g, seeds))
    expected = [[(ideal_closure(g, s), is_ideal(g, s)) for s in seeds] for g, seeds in cases]

    def forbidden(self):
        raise AssertionError("HomAlgebra.ad_matrices called")

    monkeypatch.setattr(HomAlgebra, "ad_matrices", forbidden)
    got = [[(ideal_closure(g, s), is_ideal(g, s)) for s in seeds] for g, seeds in cases]
    assert got == expected


def test_orthogonal_ideal():
    q = catalog.sl_n_transpose(2)
    assert orthogonal_ideal(q, Subspace.zero(3)).is_full()
    assert orthogonal_ideal(q, Subspace.full(3)).is_zero()
    t = tstar_extension(catalog.heis3())
    dual = Subspace.from_vectors(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
    orth = orthogonal_ideal(t, dual)
    assert orth == dual
    assert orth.dim + dual.dim == t.dim
    assert orthogonal_ideal(t, orth) == dual
    with pytest.raises(NotAnIdeal):
        orthogonal_ideal(t, Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0]]))


def test_orthogonal_subspace_rejects_another_ambient_space():
    q = catalog.sl_n_transpose(2)
    for w in (Subspace.zero(5), Subspace.full(5), Subspace.zero(2)):
        with pytest.raises(DimensionMismatch):
            orthogonal_subspace(q, w)
    assert orthogonal_subspace(q, Subspace.zero(3)).is_full()


def test_orthogonal_ideal_dimension_formula():
    rng = random.Random(2)
    for seed in range(4):
        q = catalog.random_instance(seed, 5, "quadratic")
        z = ideal_closure(q.algebra, center(q.algebra))
        orth = orthogonal_ideal(q, z)
        assert z.dim + orth.dim == q.dim
        assert is_ideal(q.algebra, orth)


# -- fitting ------------------------------------------------------------------

def test_fitting_invertible_and_nilpotent_extremes():
    q = catalog.sl_n_transpose(2)
    fs = fitting_decomposition(q)
    assert fs.i_part.is_zero() and fs.j_part.is_full() and fs.n == 1
    nil = _nilpotent_block(3)
    fs = fitting_decomposition(nil)
    assert fs.i_part.is_full() and fs.j_part.is_zero()


def test_fitting_mixed_blocks():
    q = orthogonal_sum(_nilpotent_block(2), catalog.sl_n_transpose(2))
    fs = fitting_decomposition(q)
    assert fs.i_part == Subspace.from_vectors(5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    assert fs.j_part == Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    assert fs.i_part.sum(fs.j_part).is_full()


def test_fitting_restricted_quadratic():
    q = orthogonal_sum(_nilpotent_block(2), catalog.sl_n_transpose(2))
    fs = fitting_decomposition(q)
    p = Matrix(fs.i_part.vectors() + fs.j_part.vectors()).transpose()
    j_alg = block_algebra(change_basis_quadratic(q, p), fs.i_part.dim, q.dim)
    assert check_quadratic(j_alg.algebra, j_alg.form).ok


# -- decompose ----------------------------------------------------------------

def test_decompose_two_blocks():
    q = orthogonal_sum(catalog.sl_n_transpose(2), abelian_quadratic(2))
    parts = decompose_irreducible(q)
    assert sorted(p.dim for _, p in parts) == [2, 3]


def test_decompose_irreducible_singletons():
    assert [p.dim for _, p in decompose_irreducible(catalog.sl_n_transpose(2))] == [3]
    one = abelian_quadratic(1, Matrix([[2]]))
    assert [p.dim for _, p in decompose_irreducible(one)] == [1]


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog.sl_n_transpose(2),
        lambda: orthogonal_sum(catalog.sl_n_transpose(2), abelian_quadratic(2)),
        lambda: catalog.random_instance(0, 8, "quadratic"),  # four summands
    ],
    ids=["sl_n_transpose_2", "two_blocks", "random_quadratic_0_8"],
)
def test_decompose_forms_one_orthogonal_per_split(monkeypatch, make):
    q = make()
    calls = []
    orthogonal = analyze.orthogonal_subspace

    def counted(q, w):
        calls.append(w)
        return orthogonal(q, w)

    monkeypatch.setattr(analyze, "orthogonal_subspace", counted)
    parts = decompose_irreducible(q)
    assert len(calls) == len(parts) - 1


def test_decompose_forms_candidates_only_when_reached(monkeypatch):
    # the Fitting kernel (the nilpotent block) splits first, so no center is
    # formed before the first change of basis
    q = orthogonal_sum(_nilpotent_block(2), catalog.sl_n_transpose(2))
    log = []

    def logged(name):
        orig = getattr(analyze, name)

        def wrapper(*args):
            log.append(name)
            return orig(*args)

        monkeypatch.setattr(analyze, name, wrapper)

    logged("center")
    logged("change_basis_quadratic")
    decompose_irreducible(q)
    assert log[0] == "change_basis_quadratic"


def test_decompose_makes_no_fitting_image(monkeypatch):
    # the Fitting kernel is ker(alpha^dim); no image is formed only to be dropped
    q = catalog.random_instance(0, 8, "quadratic")
    calls = []
    column_space = exactlin.column_space

    def counted(a):
        calls.append(a.shape)
        return column_space(a)

    monkeypatch.setattr(exactlin, "column_space", counted)
    assert len(decompose_irreducible(q)) == 4
    assert calls == []


def test_decompose_reassembly():
    rng = random.Random(9)
    q = orthogonal_sum(catalog.sl_n_transpose(2), abelian_quadratic(2))
    q = change_basis_quadratic(q, _rand_unimodular(rng, 5))
    parts = decompose_irreducible(q)
    assert sum(piece.dim for _, piece in parts) == q.dim
    stacked = Matrix([row for sub, _ in parts for row in sub.basis.data]).transpose()
    transported = change_basis_quadratic(q, stacked)
    offset = 0
    for sub, piece in parts:
        k = piece.dim
        for i in range(k):
            for j in range(k):
                assert transported.gram[offset + i, offset + j] == piece.gram[i, j]
        # off-block form entries vanish
        for i in range(k):
            for j in range(q.dim):
                if not offset <= j < offset + k:
                    assert transported.gram[offset + i, j] == 0
        offset += k
    for _, piece in parts:
        assert piece.gram.rank() == piece.dim


# -- solvability / radical -----------------------------------------------------

def test_is_solvable():
    assert is_solvable(catalog.abelian(3))
    assert is_solvable(catalog.filiform(5, 1))
    assert is_solvable(catalog.heis3())
    assert not is_solvable(catalog.sl2())
    assert not is_solvable(catalog.sl_n_transpose(2).algebra)


def test_is_solvable_subalgebra():
    g = direct_sum(catalog.sl2(), catalog.abelian(2))
    ab = Subspace.from_vectors(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    assert is_solvable(g, ab)
    sl2_part = Subspace.from_vectors(5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert not is_solvable(g, sl2_part)


def test_radical_involutive():
    assert radical_involutive(catalog.sl_n_transpose(2).algebra).is_zero()
    assert radical_involutive(catalog.abelian(3)).is_full()
    swap2 = Matrix([[0, 1], [1, 0]])
    mixed = direct_sum(
        catalog.sl_n_transpose(2).algebra, catalog.abelian(2).with_alpha(swap2)
    )
    rad = radical_involutive(mixed)
    assert rad == Subspace.from_vectors(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    with pytest.raises(NotInvolutive):
        radical_involutive(catalog.filiform(4, 1))


def test_radical_of_swap_double_is_zero():
    assert radical_involutive(catalog.swap_double(2)).is_zero()


# -- trace form ----------------------------------------------------------------

def test_trace_form_abelian_zero():
    assert trace_form(catalog.abelian(3)).gram.is_zero()


@pytest.mark.parametrize("case", ["sl_n 3", "hom_lie 2", "quadratic 3", "filiform 10 2/3"])
def test_trace_form_is_trace_of_ad_products(case):
    g = CENTROID_CASES[case]()
    ads = g.ad_matrices()

    def trace(m):
        return sum((m.data[i][i] for i in range(m.rows)), Fraction(0))

    assert trace_form(g).gram == Matrix([[trace(x @ y) for y in ads] for x in ads])


def test_trace_form_sl2_killing():
    assert trace_form(catalog.sl2()).gram == catalog.sl_n_killing(2).gram


def test_trace_form_identity_on_simple_involutive():
    for g in (catalog.sl_n_transpose(2).algebra, catalog.swap_double(2)):
        tf = trace_form(g)
        lie = untwist_involutive(g)[0]
        killing = trace_form(lie)
        assert tf.gram == killing.gram @ g.alpha
        assert tf.gram == g.alpha.transpose() @ killing.gram
        assert check_quadratic(g, tf).ok


# -- simplicity -----------------------------------------------------------------

def test_simplicity_catalog():
    assert simplicity_verdict(catalog.sl_n_transpose(2).algebra).tag == "Simple"
    assert simplicity_verdict(catalog.swap_double(2)).tag == "Simple"
    assert simplicity_verdict(catalog.sl2()).tag == "Simple"

    v = simplicity_verdict(catalog.abelian(3))
    assert v.tag == "NotSimple"
    assert v.witness is not None and 0 < v.witness.dim < 3

    v = simplicity_verdict(catalog.abelian(1))
    assert v.tag == "NotSimple" and v.witness is None

    v = simplicity_verdict(catalog.filiform(4, 1))
    assert v.tag == "NotSimple"
    assert is_ideal(catalog.filiform(4, 1), v.witness)
    assert 0 < v.witness.dim < 5


def test_simplicity_forms_candidates_only_when_reached(monkeypatch):
    # sl_n(3) is certified by one of its ad matrices, so no product a @ b is formed
    depth = [0]
    calls = []
    matmul, charpoly = Matrix.__matmul__, Matrix.charpoly

    def counted_matmul(self, other):
        if not depth[0]:
            calls.append((self.shape, other.shape))
        return matmul(self, other)

    def counted_charpoly(self):
        depth[0] += 1
        try:
            return charpoly(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(Matrix, "charpoly", counted_charpoly)
    assert simplicity_verdict(catalog.sl_n(3)).tag == "Simple"
    assert calls == []


def test_simplicity_forms_no_identity_matrix(monkeypatch):
    # eigenspaces and the Norton cokernel shift the diagonal of sparse rows
    g = catalog.sl_n_transpose(3).algebra
    calls = []
    identity = Matrix.identity

    def counted(cls, n):
        calls.append(n)
        return identity(n)

    monkeypatch.setattr(Matrix, "identity", classmethod(counted))
    assert simplicity_verdict(g).tag == "Simple"
    assert calls == []


def test_simplicity_witness_soundness():
    for seed in range(3):
        g = catalog.random_instance(seed, 4, "hom_lie")
        v = simplicity_verdict(g)
        if v.tag == "NotSimple" and v.witness is not None:
            assert ideal_closure(g, v.witness) == v.witness
            assert 0 < v.witness.dim < g.dim


def test_simplicity_twist_of_simple_is_simple():
    # composition with any automorphism preserves simplicity
    g = catalog.sl2()
    theta = catalog.sl_n_neg_transpose(2)
    assert simplicity_verdict(yau_twist(g, theta)).tag == "Simple"
    rng = random.Random(4)
    p = _rand_unimodular(rng, 2)
    conj_cols = []
    basis = dense_sln_basis(2)
    pinv = p.inverse()
    for m in basis:
        moved = [
            [
                sum(p[i, a] * m[a][b] * pinv[b, j] for a in range(2) for b in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        conj_cols.append(dense_sln_coords(2, moved))
    conj = Matrix.from_cols(conj_cols)
    assert simplicity_verdict(yau_twist(g, conj)).tag == "Simple"


# -- recognize double extension -------------------------------------------------

def test_recognize_roundtrip_basic():
    base = abelian_quadratic(2)
    data = ExtensionData1D(Matrix([[0, 1], [-1, 0]]), (0, 0), F(1), F(0))
    q = double_extension_1d(base, data)
    w = recognize_double_extension(q)
    assert w.base.dim == 2
    assert w.data.lam == 1
    rebuilt = double_extension_1d(w.base, w.data)
    p = Matrix([list(w.b_vec)] + [list(r) for r in w.v_basis.vectors()] + [list(w.e_vec)]).transpose()
    transported = change_basis_quadratic(q, p)
    assert transported.algebra.bracket == rebuilt.algebra.bracket
    assert transported.alpha == rebuilt.alpha
    assert transported.gram == rebuilt.gram


def test_recognize_center_trivial():
    with pytest.raises(CenterTrivial):
        recognize_double_extension(catalog.sl_n_transpose(2))


def test_recognize_no_rational_eigenvector():
    rot = catalog.abelian(2).with_alpha(Matrix([[0, -1], [1, 0]]))
    rotq = QuadraticHomAlgebra(rot, BilinearForm(2, Matrix.diagonal([1, -1])))
    bad = orthogonal_sum(rotq, catalog.sl_n_transpose(2))
    with pytest.raises(NoRationalCentralEigenvector):
        recognize_double_extension(bad)


def test_recognize_no_isotropic_vector():
    one = abelian_quadratic(1, Matrix([[1]]))
    bad = orthogonal_sum(one, catalog.sl_n_transpose(2))
    with pytest.raises(NoIsotropicCentralVector):
        recognize_double_extension(bad)


# -- centerless involution -------------------------------------------------------

def test_verify_centerless_involution():
    assert verify_centerless_involution(catalog.sl_n_transpose(2))
    g = catalog.swap_double(2)
    assert verify_centerless_involution(QuadraticHomAlgebra(g, trace_form(g)))
    with pytest.raises(PreconditionFailed):
        verify_centerless_involution(abelian_quadratic(2))


def test_recognize_isotropic_pencil_search():
    # no central eigenvector basis row is isotropic, but a pencil combo is:
    # B = diag(1, -4) on a 2-dim center gives e1 +- (1/2) e2 with square zero
    blockq = abelian_quadratic(2, Matrix.diagonal([1, -4]))
    tw = catalog.sl_n_transpose(2)
    q = orthogonal_sum(blockq, tw)
    w = recognize_double_extension(q)
    assert q.form.value(w.e_vec, w.e_vec) == 0
    rebuilt = double_extension_1d(w.base, w.data)
    p = Matrix(
        [list(w.b_vec)] + [list(r) for r in w.v_basis.vectors()] + [list(w.e_vec)]
    ).transpose()
    transported = change_basis_quadratic(q, p)
    assert transported.algebra.bracket == rebuilt.algebra.bracket
    assert transported.alpha == rebuilt.alpha
    assert transported.gram == rebuilt.gram


def test_simplicity_hidden_direct_sum():
    # after a generic base change no basis vector lies in either factor, so
    # only the kernel-certificate search can exhibit the hidden ideals
    from homlie.build import change_basis

    g = direct_sum(catalog.sl2(), catalog.sl2())
    rng = random.Random(13)
    for _ in range(3):
        hidden = change_basis(g, _rand_unimodular(rng, 6))
        v = simplicity_verdict(hidden)
        assert v.tag == "NotSimple"
        assert v.witness.dim == 3
        assert ideal_closure(hidden, v.witness) == v.witness


def test_simplicity_rational_form_so3():
    # cross-product algebra: simple over the rationals
    from homlie.homalg import HomAlgebra

    so3 = HomAlgebra(
        3,
        {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]},
        Matrix.identity(3),
    )
    assert simplicity_verdict(so3).tag == "Simple"


def _reduce_to_centerless(q):
    """Peel one-dimensional double extensions / summands until centerless."""
    if center(q.algebra).dim == 0:
        return [q]
    parts = decompose_irreducible(q)
    if len(parts) > 1:
        out = []
        for _, p in parts:
            out += _reduce_to_centerless(p)
        return out
    if q.dim <= 2:
        return [q]
    w = recognize_double_extension(q)
    return _reduce_to_centerless(w.base)


def test_reduction_peels_extension_towers():
    # regular quadratic algebras built by extension reduce back to centerless
    # cores (or the minimal hyperbolic planes) through exact recognition
    from homlie.build import omega_extension

    cases = [
        (omega_extension(catalog.filiform(4, 1)), [2]),
        (omega_extension(catalog.two_nilpotent(4, 2)), [2]),
        (tstar_extension(catalog.heis3()), [2]),
    ]
    for q, expected_dims in cases:
        terminals = _reduce_to_centerless(q)
        assert sorted(t.dim for t in terminals) == expected_dims
        for t in terminals:
            assert center(t.algebra).dim == 0 or t.dim <= 2


def test_reduction_mixed_semisimple_solvable():
    mixed = orthogonal_sum(catalog.sl_n_transpose(2), tstar_extension(catalog.heis3()))
    terminals = _reduce_to_centerless(mixed)
    dims = sorted(t.dim for t in terminals)
    assert 3 in dims  # the twisted simple block survives as a centerless core
    for t in terminals:
        if center(t.algebra).dim == 0 and t.algebra.alpha.inverse() is not None:
            # centerless regular cores are involutive
            assert t.alpha.power(2).is_identity()


def test_second_invariant_form_from_centroid():
    # a non-scalar symmetric centroid element yields a second, independent
    # invariant scalar product: the hallmark of quadratic dimension above one
    g = direct_sum(catalog.sl2(), catalog.sl2())
    k = catalog.sl_n_killing(2).gram
    b = Matrix.block_diagonal([k, k])
    theta = Matrix.block_diagonal([Matrix.identity(3), Matrix.identity(3).scale(2)])
    flat = [theta[i, j] for i in range(6) for j in range(6)]
    assert centroid(g).contains_vector(flat)
    assert theta.transpose() @ b == b @ theta  # symmetric for the form
    b_theta = theta.transpose() @ b
    from homlie.homalg import check_quadratic

    assert check_quadratic(g, BilinearForm(6, b)).ok
    assert check_quadratic(g, BilinearForm(6, Matrix(b_theta.data))).ok
    # not proportional: quadratic dimension at least two
    ratios = {
        (b_theta[i, j], b[i, j])
        for i in range(6)
        for j in range(6)
        if b[i, j] != 0
    }
    assert len({p / q for p, q in ratios}) > 1


def test_centerless_irreducible_iqh_taxonomy():
    # centerless irreducible involutive quadratic instances are simple
    from homlie.homalg import classify_alpha

    swap = catalog.swap_double(2)
    cases = [
        catalog.sl_n_transpose(2),
        catalog.sl_n_transpose(3),
        QuadraticHomAlgebra(swap, trace_form(swap)),
    ]
    for q in cases:
        assert center(q.algebra).is_zero()
        assert len(decompose_irreducible(q)) == 1
        assert classify_alpha(q.algebra).involutive
        assert simplicity_verdict(q.algebra).tag == "Simple"


def test_radical_contains_center_and_solvable_blocks():
    swap2 = Matrix([[0, 1], [1, 0]])
    g = direct_sum(
        catalog.sl_n_transpose(2).algebra, catalog.abelian(3).with_alpha(
            Matrix.block_diagonal([swap2, Matrix.identity(1)])
        )
    )
    rad = radical_involutive(g)
    z = center(g)
    assert rad.contains(z)
    assert is_solvable(g, rad)
    assert is_ideal(g, rad)


def test_irreducible_summands_twist_dichotomy():
    # on every irreducible summand of a multiplicative quadratic instance the
    # twist is either nilpotent or invertible
    from homlie.homalg import is_nilpotent_matrix

    for seed in range(6):
        q = catalog.random_instance(seed, 6, "quadratic")
        for _, piece in decompose_irreducible(q):
            alpha = piece.algebra.alpha
            assert is_nilpotent_matrix(alpha) or alpha.inverse() is not None
