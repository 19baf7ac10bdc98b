"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything here is exact rational arithmetic; every assertion is equality,
never approximate.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from homlie import catalog
from homlie import serialize as ser
from homlie.analyze import (
    center,
    fitting_decomposition,
    ideal_closure,
    recognize_double_extension,
    simplicity_verdict,
    trace_form,
)
from homlie.build import (
    ExtensionData1D,
    InvolutiveExtensionData,
    change_basis_quadratic,
    double_extension_1d,
    involutive_double_extension,
    involutive_extension_discrepancy,
    omega_extension,
    omega_map,
    orthogonal_sum,
    quadratic_derived,
    untwist_involutive,
)
from homlie.catalog import _rand_unimodular, random_extension_data
from homlie.exactlin import Matrix, Subspace, is_zero_vec
from homlie.homalg import (
    BilinearForm,
    QuadraticHomAlgebra,
    check_hom_lie,
    check_morphism,
    check_quadratic,
    classify_alpha,
    is_lie_algebra,
    jacobiator,
)

F = Fraction


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{label}]: FAIL")
        raise
    print(f"criterion {num:2d} [{label}]: PASS")


def rand_fraction(rng, nonzero=False):
    while True:
        x = F(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3)))
        if not nonzero or x != 0:
            return x


def test_criterion_1_three_dim_family_exactness():
    with criterion(1, "three-dim family jacobiator"):
        rng = random.Random(101)
        for _ in range(20):
            a, b, c, d = (rand_fraction(rng) for _ in range(4))
            g = catalog.ex_1_2(a, b, c, d)
            gid = g.with_alpha(Matrix.identity(3))
            assert jacobiator(gid, 0, 1, 2) == (0, a * c, 0)
            assert jacobiator(g, 0, 1, 2) == (0, 0, 0)
            assert check_hom_lie(g).ok


def test_criterion_2_jackson_sl2():
    with criterion(2, "Jackson sl2"):
        rng = random.Random(202)
        count = 0
        while count < 20:
            q = rand_fraction(rng, nonzero=True)
            if q in (1, -1):
                continue
            count += 1
            g = catalog.jackson_sl2(q)
            assert check_hom_lie(g).ok
            assert not is_lie_algebra(g)
        assert is_lie_algebra(catalog.jackson_sl2(1))
        # the classical Jacobi residual is proportional to 1 - q^2, so the
        # degenerate point q = -1 is also a Lie algebra; recorded explicitly
        assert is_lie_algebra(catalog.jackson_sl2(-1))


def test_criterion_3_omega_extension_iff():
    with criterion(3, "omega extension on filiform, both directions"):
        for n, lam in ((4, F(1)), (5, F(2, 3)), (6, F(-2))):
            fil = catalog.filiform(n, lam)
            z = center(fil)
            defect = fil.alpha @ fil.alpha - Matrix.identity(n + 1)
            assert not defect.is_zero()
            for j in range(n + 1):
                assert z.contains_vector(defect.col(j))
            q = omega_extension(fil)
            assert q.dim == 2 * (n + 1)
            assert check_hom_lie(q.algebra).ok
            assert check_quadratic(q.algebra, q.form).ok
            cls = classify_alpha(q.algebra)
            assert cls.regular and cls.multiplicative
            # converse direction: perturb the automorphism so that
            # Im(a^2 - id) escapes the center, and watch Omega fail
            lie = fil.with_alpha(Matrix.identity(n + 1))
            rows = [
                [F(1) if i == j else F(0) for j in range(n + 1)] for i in range(n + 1)
            ]
            rows[1][0] = lam  # x0 -> x0 + lam x1 with x1 not central
            bad = Matrix(rows)
            bad_defect = bad @ bad - Matrix.identity(n + 1)
            assert any(
                not z.contains_vector(bad_defect.col(j)) for j in range(n + 1)
            )
            tstar, omega = omega_map(lie, bad)
            assert not check_morphism(tstar.algebra, tstar.algebra, omega)
            good_tstar, good_omega = omega_map(lie, fil.alpha)
            assert check_morphism(good_tstar.algebra, good_tstar.algebra, good_omega)


def _centerless_pool(count):
    """Quadratic multiplicative instances with invertible twist, no center."""
    swap = catalog.swap_double(2)
    blocks = {
        "tw2": catalog.sl_n_transpose(2),
        "tw3": catalog.sl_n_transpose(3),
        "swap": QuadraticHomAlgebra(swap, trace_form(swap)),
        "derived": quadratic_derived(catalog.sl_n_transpose(2), 1),
    }
    sizes = {name: q.dim for name, q in blocks.items()}
    rng = random.Random(404)
    out = []
    while len(out) < count:
        names = [rng.choice(list(blocks))]
        if sizes[names[0]] <= 6 and rng.random() < 0.6:
            second = rng.choice([n for n in blocks if sizes[n] + sizes[names[0]] <= 9])
            names.append(second)
        q = blocks[names[0]]
        for name in names[1:]:
            q = orthogonal_sum(q, blocks[name])
        q = change_basis_quadratic(q, _rand_unimodular(rng, q.dim))
        out.append(q)
    return out


def test_criterion_4_centerless_implies_involution():
    with criterion(4, "centerless regular quadratic => involutive"):
        qualifying = 0
        for q in _centerless_pool(52):
            g = q.algebra
            assert classify_alpha(g).multiplicative
            assert g.alpha.inverse() is not None
            assert center(g).is_zero()
            qualifying += 1
            assert g.alpha.power(2).is_identity()
        # sweep the random generator as well, filtering on the preconditions
        for seed in range(8):
            q = catalog.random_instance(seed, 6, "involutive_quadratic")
            g = q.algebra
            if (
                classify_alpha(g).multiplicative
                and g.alpha.inverse() is not None
                and center(g).is_zero()
            ):
                qualifying += 1
                assert g.alpha.power(2).is_identity()
        assert qualifying >= 50


def _extension_instances(count):
    """Valid one-dimensional extension data over catalog bases."""
    rng = random.Random(505)
    out = []
    grams = (
        Matrix.identity(2),
        Matrix.diagonal([1, -1]),
        Matrix.diagonal([2, 3]),
        Matrix.identity(4),
        Matrix.diagonal([1, 1, -1, 2]),
    )
    twists = {
        2: (Matrix.identity(2), Matrix.diagonal([1, -1]), Matrix.identity(2).scale(-1)),
        4: (Matrix.identity(4), Matrix.diagonal([1, -1, 1, -1])),
    }
    # a nonabelian base with nontrivial center: extension of twisted sl2
    tw = catalog.sl_n_transpose(2)
    seed_data = ExtensionData1D(
        tw.algebra.ad_vec((F(2), F(-2), F(0))), (0, 0, 0), F(1), F(0)
    )
    layered = double_extension_1d(tw, seed_data)
    central = center(layered.algebra).vectors()[0]
    while len(out) < count:
        style = rng.randrange(4)
        if style in (0, 1):
            gram = rng.choice(grams)
            n = gram.rows
            alpha = rng.choice(twists[n])
            base = QuadraticHomAlgebra(
                catalog.abelian(n).with_alpha(alpha), BilinearForm(n, gram)
            )
            lam = F(rng.choice((1, -1)))
            x0 = tuple(
                rand_fraction(rng) if alpha[k, k] == -lam else F(0) for k in range(n)
            )
            data = random_extension_data(
                rng, base, lam, x0=x0, involutive=rng.random() < 0.5
            )
        elif style == 2:
            base = tw
            t = rand_fraction(rng)
            delta = base.algebra.ad_vec((t, -t, F(0)))  # ad of the fixed vector e-f
            lam0 = F(0) if rng.random() < 0.5 else rand_fraction(rng)
            data = ExtensionData1D(delta, (0, 0, 0), F(1), lam0)
        else:
            base = layered
            x0 = tuple(rand_fraction(rng) * v for v in central)
            data = random_extension_data(
                rng, base, F(-1), x0=x0, involutive=rng.random() < 0.5
            )
        if data is not None:
            out.append((base, data))
    return out


def test_criterion_5_double_extension_roundtrip():
    with criterion(5, "double extension recognize/rebuild roundtrip"):
        instances = _extension_instances(52)
        assert len(instances) >= 50
        for base, data in instances:
            ext = double_extension_1d(base, data)
            assert check_hom_lie(ext.algebra).ok
            assert classify_alpha(ext.algebra).multiplicative
            assert check_quadratic(ext.algebra, ext.form).ok
            # the twist is an involution exactly when the data satisfies the
            # involution constraints (base twists here are involutions)
            involution_compatible = (
                data.lam in (F(1), F(-1))
                and base.alpha.apply(data.x0) == tuple(-data.lam * x for x in data.x0)
                and data.lam0 == -base.form.value(data.x0, data.x0) / (2 * data.lam)
            )
            assert ext.alpha.power(2).is_identity() == involution_compatible
            w = recognize_double_extension(ext)
            rebuilt = double_extension_1d(w.base, w.data)
            p = Matrix(
                [list(w.b_vec)]
                + [list(r) for r in w.v_basis.vectors()]
                + [list(w.e_vec)]
            ).transpose()
            transported = change_basis_quadratic(ext, p)
            assert transported.algebra.bracket == rebuilt.algebra.bracket
            assert transported.alpha == rebuilt.alpha
            assert transported.gram == rebuilt.gram


def test_criterion_6_trace_form_identity():
    with criterion(6, "trace form equals twisted Killing form"):
        for g in (catalog.sl_n_transpose(2).algebra, catalog.swap_double(2)):
            tf = trace_form(g)
            killing = trace_form(untwist_involutive(g)[0])
            assert tf.gram == killing.gram @ g.alpha
            assert check_quadratic(g, tf).ok


def test_criterion_7_fitting_invariants():
    with criterion(7, "fitting decomposition invariants"):
        checked = 0
        for seed in range(16):
            for dim in (4, 6):
                q = catalog.random_instance(seed, dim, "quadratic")
                g = q.algebra
                assert classify_alpha(g).multiplicative
                fs = fitting_decomposition(q)
                assert fs.i_part.sum(fs.j_part).is_full()
                assert fs.i_part.intersect(fs.j_part).is_zero()
                for u in fs.i_part.vectors():
                    for v in fs.j_part.vectors():
                        assert is_zero_vec(g.bracket_vec(u, v))
                        assert q.form.value(u, v) == 0
                power = g.alpha.power(g.dim)
                for u in fs.i_part.vectors():
                    assert is_zero_vec(power.apply(u))
                mapped = Subspace.from_vectors(
                    g.dim, [g.alpha.apply(v) for v in fs.j_part.vectors()]
                )
                assert mapped == fs.j_part
                checked += 1
        assert checked >= 30


def test_criterion_8_simplicity():
    with criterion(8, "simplicity verdicts"):
        assert simplicity_verdict(catalog.sl_n_transpose(2).algebra).tag == "Simple"
        assert simplicity_verdict(catalog.swap_double(2)).tag == "Simple"
        for g in (catalog.abelian(3), catalog.abelian(5), catalog.filiform(4, 1), catalog.filiform(5, 1)):
            v = simplicity_verdict(g)
            assert v.tag == "NotSimple"
            if v.witness is not None:
                assert 0 < v.witness.dim < g.dim
                assert ideal_closure(g, v.witness) == v.witness
            else:
                assert g.dim == 1
        # deterministic under the fixed seed schedule
        first = simplicity_verdict(catalog.filiform(4, 1))
        second = simplicity_verdict(catalog.filiform(4, 1))
        assert first == second


def _involutive_extension_instances():
    sl2 = catalog.sl2()
    k = catalog.sl_n_killing(2)
    kg = k.gram
    ad = tuple(sl2.ad_matrices())
    out = []
    # sl2 acting on its Killing module, varied forms on the extending algebra
    for gamma in (Matrix.zeros(3, 3), kg, kg.scale(2)):
        v = QuadraticHomAlgebra(catalog.abelian(3), k)
        out.append((v, sl2, InvolutiveExtensionData(ad, BilinearForm(3, gamma))))
    # scaled module form
    v = QuadraticHomAlgebra(catalog.abelian(3), BilinearForm(3, kg.scale(2)))
    out.append((v, sl2, InvolutiveExtensionData(ad, BilinearForm(3, kg))))
    # doubled module
    v6 = QuadraticHomAlgebra(
        catalog.abelian(6), BilinearForm(6, Matrix.block_diagonal([kg, kg]))
    )
    phi2 = tuple(Matrix.block_diagonal([m, m]) for m in ad)
    out.append((v6, sl2, InvolutiveExtensionData(phi2, BilinearForm(3, kg))))
    # module with an inert orthogonal tail
    v5 = QuadraticHomAlgebra(
        catalog.abelian(5),
        BilinearForm(5, Matrix.block_diagonal([kg, Matrix.identity(2)])),
    )
    phi3 = tuple(Matrix.block_diagonal([m, Matrix.zeros(2, 2)]) for m in ad)
    out.append((v5, sl2, InvolutiveExtensionData(phi3, BilinearForm(3, kg))))
    # negated-involution module: phi = -ad is a module action for beta = -id
    vneg = QuadraticHomAlgebra(
        catalog.abelian(3).with_alpha(Matrix.identity(3).scale(-1)), k
    )
    phineg = tuple(m.scale(-1) for m in ad)
    out.append((vneg, sl2, InvolutiveExtensionData(phineg, BilinearForm(3, kg))))
    # one-dimensional abelian extenders with rotation actions
    for t in (F(1), F(2), F(-1, 2)):
        v2 = QuadraticHomAlgebra(catalog.abelian(2), BilinearForm(2, Matrix.identity(2)))
        rot = (Matrix([[0, t], [-t, 0]]),)
        out.append(
            (v2, catalog.abelian(1), InvolutiveExtensionData(rot, BilinearForm(1, Matrix([[1]]))))
        )
    # two-dimensional extender with a sign involution killing one action slot
    v2 = QuadraticHomAlgebra(catalog.abelian(2), BilinearForm(2, Matrix.diagonal([1, 3])))
    a2 = catalog.abelian(2).with_alpha(Matrix.diagonal([1, -1]))
    phi_pair = (Matrix([[0, 3], [-1, 0]]), Matrix.zeros(2, 2))
    out.append((v2, a2, InvolutiveExtensionData(phi_pair, BilinearForm(2, Matrix.zeros(2, 2)))))
    return out


def test_criterion_9_involutive_double_extension():
    with criterion(9, "involutive double extension, corrected bracket"):
        instances = _involutive_extension_instances()
        assert len(instances) >= 10
        literal_failures = 0
        for v, a, d in instances:
            q = involutive_double_extension(v, a, d)
            assert check_hom_lie(q.algebra).ok
            assert check_quadratic(q.algebra, q.form).ok
            cls = classify_alpha(q.algebra)
            assert cls.involutive and cls.multiplicative
            assert q.alpha.power(2).is_identity()
        report = involutive_extension_discrepancy(*instances[1])
        print("involutive extension discrepancy report:", report)
        assert report["corrected_hom_jacobi"] is True
        assert report["literal_hom_jacobi"] is False
        assert report["literal_witness"] is not None


def _run_cli(args, cwd):
    # The child runs in cwd, so a relative PYTHONPATH would not resolve there;
    # put this checkout's src first, ahead of any installed copy of homlie.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "homlie", *args],
        cwd=str(cwd), text=True, capture_output=True, env=env,
    )


def test_criterion_10_cli_goldens(tmp_path):
    with criterion(10, "CLI golden transcripts"):
        r = _run_cli(["catalog", "emit", "jackson_sl2", "2", "--out", "jackson_sl2.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = _run_cli(["check", "jackson_sl2.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "skew: PASS\nhom_jacobi: PASS\n"

        g = catalog.ex_1_2(1, 2, 3, 4).with_alpha(Matrix.identity(3))
        ser.save_path(
            tmp_path / "ex12_alpha_id.json",
            ser.algebra_to_dict(g, None, ["x1", "x2", "x3"]),
        )
        r = _run_cli(["check", "ex12_alpha_id.json"], tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stdout == "skew: PASS\nhom_jacobi: FAIL witness=(1,2,3) residual=3*x2\n"
        j = _run_cli(["check", "ex12_alpha_id.json", "--json"], tmp_path)
        payload = json.loads(j.stdout)
        assert payload["checks"][1]["witness"] == [1, 2, 3]

        r = _run_cli(["catalog", "emit", "filiform", "5", "1", "--out", "filiform5.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = _run_cli(["analyze", "center", "filiform5.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "center: dim 1\n  x5\n"
