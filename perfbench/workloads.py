"""Workloads: inputs built through the public homlie library, and job lists.

A workload is a set-up function that writes its input files into a
directory, and a fixed list of ``homlie`` invocations over those files, each
with the reference check of its exit code and JSON report.  Both are derived
from the seed alone, so the same seed gives the same inputs and jobs.
Sizes are chosen so that one round of jobs takes 9-16 s on a 2-core
machine, so that a 34-second run measures two or three whole rounds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import reference as ref

Check = Callable[[int, dict], Optional[str]]


@dataclass(frozen=True)
class Job:
    """One ``homlie`` invocation (without ``--json``) and its output check."""

    args: tuple
    check: Check


def _rng(seed, tag):
    return random.Random(f"perfbench:{seed}:{tag}")


def _rational(rng, nonzero=True):
    while True:
        x = Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3)))
        if x or not nonzero:
            return x


# ---------------------------------------------------------------------------
# inputs built in process
# ---------------------------------------------------------------------------

class Writer:
    """Writes algebra and data files through homlie.serialize."""

    def __init__(self, homlie, directory):
        self.h = homlie
        self.dir = directory

    def path(self, name):
        return os.path.join(self.dir, name)

    def algebra(self, name, obj, form=None):
        ser = self.h.serialize
        if isinstance(obj, self.h.QuadraticHomAlgebra):
            obj, form = obj.algebra, obj.form
        ser.save_path(self.path(name), ser.algebra_to_dict(obj, form))

    def assoc(self, name, obj):
        self.h.serialize.save_path(self.path(name), self.h.serialize.assoc_to_dict(obj))

    def ext_data(self, name, data):
        self.h.serialize.save_path(self.path(name), self.h.serialize.extension_data_to_dict(data))

    def inv_data(self, name, data):
        self.h.serialize.save_path(self.path(name), self.h.serialize.inv_extension_data_to_dict(data))


def truncated_polynomials(h, m, q):
    """t K[t]/(t^(m+1)) on t..t^m with the automorphism t -> t + q t^m.

    Commutative and associative; the square of the automorphism differs from
    the identity only by a map into the annihilator K t^m, as tensor-current
    requires.
    """
    prod = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i + j + 1 < m:
                prod[i][j][i + j + 1] = Fraction(1)
    rows = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    rows[m - 1][0] = q
    return h.AssocAlgebra(m, prod, h.Matrix(rows))


def double_extension(h, rng, involutive):
    """A seeded one-dimensional double extension of a fixed 5-dimensional base.

    Finding extension data solves an exact system in n^2 unknowns whose cost
    varies widely between random bases, so the base is fixed (a quadratic or
    an involutive quadratic instance with a 2-dimensional center) and the
    seed draws the data from its solution space.
    """
    kind, base_seed = ("involutive_quadratic", 2) if involutive else ("quadratic", 0)
    q = h.catalog.random_instance(base_seed, 5, kind)
    lam = Fraction(rng.choice((1, -1)))
    data = h.catalog.random_extension_data(rng, q, lam, involutive=involutive)
    if data is None:
        lam0 = Fraction(0) if involutive else _rational(rng, nonzero=False)
        data = h.ExtensionData1D(h.Matrix.zeros(q.dim, q.dim), [0] * q.dim, lam, lam0)
    return h.double_extension_1d(q, data)


# ---------------------------------------------------------------------------
# check builders
# ---------------------------------------------------------------------------

def check_job(w, name, flags=()):
    path = w.path(name)
    opts = {f.lstrip("-"): True for f in flags}
    return Job(("check", path, *flags), lambda rc, rep: ref.check_check(rc, rep, path, **opts))


def analyze_job(w, op, name, **kw):
    path = w.path(name)
    fn = {
        "center": ref.check_center,
        "centroid": ref.check_centroid,
        "fitting": ref.check_fitting,
        "radical": ref.check_radical,
        "decompose": ref.check_decompose,
        "simple": ref.check_simple,
        "trace-form": ref.check_trace_form,
        "recognize-dext": ref.check_recognize,
    }[op]
    return Job(("analyze", op, path), lambda rc, rep: fn(rc, rep, path, **kw))


def construct_job(w, op, inputs, out, dim_of, form, lie=False, extra=()):
    """``dim_of`` maps the dimensions of the algebra inputs (every input but
    the ``*.data.json`` extension data) to the promised output dimension."""
    paths = [w.path(x) for x in inputs]
    out_path = w.path(out)

    def check(rc, rep):
        dims = [ref.load_alg(p).n for p in paths if not p.endswith(".data.json")]
        return ref.check_construct(rc, rep, out_path, dim_of(*dims), form, lie)

    return Job(("construct", op, *extra, *paths, "--out", out_path), check)


def emit_job(w, name, params):
    out = w.path(f"emit_{name}.json")
    params = tuple(str(p) for p in params)
    return Job(
        ("catalog", "emit", name, *params, "--out", out),
        lambda rc, rep: ref.check_catalog_emit(rc, rep, out, name, params),
    )


# ---------------------------------------------------------------------------
# analysis: exact elimination in structure analysis
# ---------------------------------------------------------------------------

def analysis_setup(h, w, seed):
    cat = h.catalog
    w.algebra("slt3.json", cat.sl_n_transpose(3))
    w.algebra("slt4.json", cat.sl_n_transpose(4))
    w.algebra("sl3.json", cat.sl_n(3))
    w.algebra("swap3.json", cat.swap_double(3))
    w.algebra("fil10.json", cat.filiform(10, _rational(_rng(seed, "fil10"))))
    base = seed * 16
    w.algebra("q6.json", cat.random_instance(base + 1, 6, "quadratic"))
    w.algebra("iq8.json", cat.random_instance(base + 2, 8, "involutive_quadratic"))
    w.algebra("iq12.json", cat.random_instance(base + 4, 12, "involutive_quadratic"))
    w.algebra("dq7.json", double_extension(h, _rng(seed, "dq7"), involutive=False))
    w.algebra("diq7.json", double_extension(h, _rng(seed, "diq7"), involutive=True))


def analysis_jobs(w, seed):
    """Three long jobs, nine middle jobs and five short jobs on seeded inputs.

    The middle jobs (0.3-0.55 s, on inputs of dim 8-16 that are fixed but for
    the filiform parameter) are reductions and closures more than start-up,
    and their cost barely depends on the seed.  Since the short jobs outnumber the long ones by only two, the
    median job wall time falls inside this cluster, away from its edges,
    and does not hop to an unlike job when a seeded job costs more or the
    machine is slower.  The one ``construct`` job makes the serialize.save and
    check_hom_lie layers show here too.
    """
    a = lambda op, name, **kw: analyze_job(w, op, name, **kw)  # noqa: E731
    return [
        # long
        a("centroid", "slt4.json"),
        a("simple", "slt3.json", expect="Simple"),
        a("simple", "sl3.json", expect="Simple"),
        # middle
        a("centroid", "fil10.json"),
        a("decompose", "slt4.json"),
        a("radical", "slt4.json"),
        a("fitting", "slt4.json"),
        a("trace-form", "slt4.json"),
        a("centroid", "slt3.json"),
        a("centroid", "sl3.json"),
        a("radical", "swap3.json"),
        a("trace-form", "swap3.json"),
        # short, on seeded inputs
        a("simple", "q6.json", expect="NotSimple"),
        a("center", "iq12.json"),
        a("recognize-dext", "dq7.json"),
        a("recognize-dext", "diq7.json"),
        construct_job(w, "untwist", ["iq8.json"], "untwist.json", lambda n: n, True, lie=True),
    ]


# ---------------------------------------------------------------------------
# construction: dense dim^3 structure tensors in constructors and scans
# ---------------------------------------------------------------------------

def construction_setup(h, w, seed):
    rng = _rng(seed, "construction")
    cat = h.catalog
    sl4, sl5 = cat.sl_n(4), cat.sl_n(5)
    neg5 = cat.sl_n_neg_transpose(5)
    w.algebra("sl3.json", cat.sl_n(3))
    w.algebra("sl4.json", sl4)
    w.algebra("sla4.json", sl4.with_alpha(cat.sl_n_neg_transpose(4)))
    w.algebra("sla5.json", sl5.with_alpha(neg5))
    slt5 = h.quadratic_yau_twist(h.QuadraticHomAlgebra(sl5, cat.sl_n_killing(5)), neg5)
    w.algebra("slt5.json", slt5)
    w.assoc("a8.json", truncated_polynomials(h, 8, _rational(rng)))
    n = slt5.dim
    lam = Fraction(rng.choice((1, -1)))
    w.ext_data("dext.data.json", h.ExtensionData1D(h.Matrix.zeros(n, n), [0] * n, lam, _rational(rng)))
    w.algebra("ext1.json", h.catalog.abelian(1).with_alpha(h.Matrix([[rng.choice((1, -1))]])))
    # a one-dimensional extender acting on slt5 by zero
    gamma = h.BilinearForm(1, h.Matrix([[_rational(rng)]]))
    w.inv_data("inv.data.json", h.InvolutiveExtensionData((h.Matrix.zeros(n, n),), gamma))
    w.algebra("dq7.json", double_extension(h, _rng(seed, "dq7"), involutive=False))


def construction_jobs(w, seed):
    """Nine constructions and scans of 0.6-2.7 s and four short analyses.

    The two ``check`` jobs on ``sl_n_transpose`` 5 and ``construct twist``
    take about 0.85 s each and sit in the middle of the sorted job times,
    so the median job wall time falls inside that cluster rather than at
    the gap to the 1.0 s jobs above it.
    """
    c = lambda *a, **kw: construct_job(w, *a, **kw)  # noqa: E731
    return [
        c("tensor-current", ["sl3.json", "a8.json"], "tc.json", lambda g, a: g * a, False),
        c("tstar", ["sl4.json"], "tstar.json", lambda n: 2 * n, True, lie=True),
        c("omega-ext", ["sla4.json"], "omega.json", lambda n: 2 * n, True),
        c("double-ext", ["slt5.json", "dext.data.json"], "dext.json", lambda n: n + 2, True),
        c("inv-double-ext", ["slt5.json", "ext1.json", "inv.data.json"], "idext.json",
          lambda n, m: n + 2 * m, True),
        c("twist", ["sla5.json"], "twist.json", lambda n: n, False),
        c("untwist", ["slt5.json"], "untwist.json", lambda n: n, True, lie=True),
        c("derived", ["slt5.json"], "derived.json", lambda n: n, True, extra=("1",)),
        check_job(w, "slt5.json", ("--quadratic", "--multiplicative", "--involutive")),
        check_job(w, "slt5.json", ("--quadratic",)),
        # a few short analyses, so that every layer's time is measured here too
        analyze_job(w, "simple", "dext.json", expect="NotSimple"),
        analyze_job(w, "centroid", "sl3.json"),
        analyze_job(w, "decompose", "dq7.json"),
        analyze_job(w, "recognize-dext", "dq7.json"),
    ]


# ---------------------------------------------------------------------------
# small-files: start-up, parsing and reporting on fixtures of dim 2-9
# ---------------------------------------------------------------------------

def small_setup(h, w, seed):
    rng = _rng(seed, "small")
    cat = h.catalog
    w.algebra("jackson.json", cat.jackson_sl2(_rational(rng)))
    w.algebra("ex12.json", cat.ex_1_2(*(_rational(rng, nonzero=False) for _ in range(4))))
    w.algebra("sl2.json", cat.sl2())
    w.algebra("heis3.json", cat.heis3())
    w.algebra("filiform5.json", cat.filiform(5, _rational(rng)))
    w.algebra("filiform4.json", cat.filiform(4, 1))
    w.algebra("two_nil.json", cat.two_nilpotent(4, 2))
    w.algebra("slt2.json", cat.sl_n_transpose(2))
    w.algebra("slt3.json", cat.sl_n_transpose(3))
    w.algebra("swap.json", cat.swap_double(2))
    w.algebra("sla2.json", cat.sl2().with_alpha(cat.sl_n_neg_transpose(2)))
    w.assoc("assoc.json", cat.assoc_a(_rational(rng)))
    q5 = cat.random_instance(seed * 16 + 5, 5, "quadratic")
    iq6 = cat.random_instance(seed * 16 + 6, 6, "involutive_quadratic")
    w.algebra("q5.json", q5)
    w.algebra("iq6.json", iq6)
    w.algebra("dq7.json", double_extension(h, _rng(seed, "dq7"), involutive=False))
    w.algebra("diq7.json", double_extension(h, _rng(seed, "diq7"), involutive=True))
    base2 = h.QuadraticHomAlgebra(cat.abelian(2), h.BilinearForm(2, h.Matrix.identity(2)))
    w.algebra("base2.json", base2)
    c = _rational(rng)
    w.ext_data("rot.data.json", h.ExtensionData1D(h.Matrix([[0, c], [-c, 0]]), [0, 0], 1, _rational(rng)))
    w.ext_data("zero3.data.json", h.ExtensionData1D(h.Matrix.zeros(3, 3), [0] * 3, -1, _rational(rng)))
    # involutive extension of a fixed base (see double_extension) by a
    # one-dimensional algebra acting through a seeded element of the action space
    iq5 = cat.random_instance(2, 5, "involutive_quadratic")
    w.algebra("iq5.json", iq5)
    eps = Fraction(rng.choice((1, -1)))
    actions = cat.involutive_action_space(iq5, eps)
    phi = h.Matrix.zeros(5, 5)
    for d in actions:
        phi = phi + d.scale(rng.randrange(-2, 3))
    w.algebra("ext1.json", cat.abelian(1).with_alpha(h.Matrix([[eps]])))
    w.inv_data("inv.data.json", h.InvolutiveExtensionData(
        (phi,), h.BilinearForm(1, h.Matrix([[_rational(rng)]]))))
    # negative verdicts: a degenerate form, and sl2 under a twist breaking Jacobi
    w.algebra("degenerate.json", cat.abelian(2), form=h.BilinearForm(2, h.Matrix.zeros(2, 2)))
    w.algebra("broken.json", cat.sl2().with_alpha(h.Matrix.diagonal([1, 2, 3])))


def small_jobs(w, seed):
    a = lambda op, name, **kw: analyze_job(w, op, name, **kw)  # noqa: E731
    c = lambda *args, **kw: construct_job(w, *args, **kw)  # noqa: E731
    k = lambda name, *flags: check_job(w, name, flags)  # noqa: E731
    rng = _rng(seed, "small-params")
    # argparse reads a negative fraction such as -3/2 as an option, so the
    # emitted parameters stay nonnegative (see CHANGES.md)
    r = lambda: str(abs(_rational(rng)))  # noqa: E731
    list_job = Job(("catalog", "list"), ref.check_catalog_list)
    return [
        list_job,
        emit_job(w, "abelian", (3,)),
        emit_job(w, "assoc_a", (r(),)),
        emit_job(w, "ex_1_2", (r(), r(), r(), r())),
        emit_job(w, "filiform", (5, r())),
        emit_job(w, "heis3", ()),
        emit_job(w, "jackson_sl2", (r(),)),
        emit_job(w, "sl2", ()),
        emit_job(w, "sl_n_transpose", (3,)),
        emit_job(w, "swap_double", (2,)),
        emit_job(w, "two_nilpotent", (4, 2)),
        k("jackson.json"),
        k("jackson.json", "--multiplicative", "--involutive"),
        k("ex12.json", "--multiplicative"),
        k("sl2.json", "--multiplicative", "--involutive"),
        k("filiform5.json", "--multiplicative"),
        k("slt3.json", "--quadratic", "--multiplicative", "--involutive"),
        k("swap.json", "--multiplicative", "--involutive"),
        k("iq6.json", "--quadratic", "--multiplicative", "--involutive"),
        k("dq7.json", "--quadratic", "--multiplicative"),
        k("degenerate.json", "--quadratic"),
        k("broken.json"),
        a("center", "heis3.json"),
        a("center", "two_nil.json"),
        a("center", "q5.json"),
        a("centroid", "sl2.json"),
        a("centroid", "slt2.json"),
        a("fitting", "q5.json"),
        a("fitting", "dq7.json"),
        a("radical", "iq6.json"),
        a("radical", "swap.json"),
        a("decompose", "slt3.json"),
        a("decompose", "iq6.json"),
        a("simple", "slt2.json", expect="Simple"),
        a("simple", "heis3.json", expect="NotSimple"),
        a("trace-form", "sl2.json"),
        a("trace-form", "q5.json"),
        a("recognize-dext", "dq7.json"),
        a("recognize-dext", "diq7.json"),
        c("twist", ["sla2.json"], "twist.json", lambda n: n, False),
        c("tstar", ["heis3.json"], "tstar_heis3.json", lambda n: 2 * n, True, lie=True),
        c("tstar", ["filiform4.json"], "tstar_fil4.json", lambda n: 2 * n, True, lie=True),
        c("omega-ext", ["filiform4.json"], "omega_fil4.json", lambda n: 2 * n, True),
        c("double-ext", ["base2.json", "rot.data.json"], "dext2.json", lambda n: n + 2, True),
        c("double-ext", ["slt2.json", "zero3.data.json"], "dext3.json", lambda n: n + 2, True),
        c("inv-double-ext", ["iq5.json", "ext1.json", "inv.data.json"], "idext.json",
          lambda n, m: n + 2 * m, True),
        c("tensor-current", ["sl2.json", "assoc.json"], "tc_sl2.json", lambda g, a: g * a, False),
        c("untwist", ["slt3.json"], "untwist3.json", lambda n: n, True, lie=True),
        c("derived", ["iq6.json"], "derived_iq6.json", lambda n: n, True, extra=("2",)),
    ]


WORKLOADS = {
    "analysis": (analysis_setup, analysis_jobs),
    "construction": (construction_setup, construction_jobs),
    "small-files": (small_setup, small_jobs),
}
