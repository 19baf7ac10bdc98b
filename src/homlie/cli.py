"""Command line interface.

Subcommands: ``check``, ``construct``, ``analyze``, ``catalog``.  Exit codes:
0 success / all requested checks passed, 1 a requested check or mathematical
precondition failed, 2 input or usage error, a report over its size limit, or
memory or recursion depth exhausted.  ``--json`` switches to a
machine-readable report {command, checks, outputs, result}.  Basis indices in
reports are one-based to match the conventional x1..xn naming; files stay
zero-based.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import homlie

from . import serialize as ser
from .errors import BadParams, HomLieError, PreconditionFailed
from .exactlin import Matrix
from .homalg import (
    AssocAlgebra,
    BilinearForm,
    QuadraticHomAlgebra,
    check_hom_lie,
    check_quadratic,
    multiplicativity_witness,
)

# the most basis entries (dimension x n^2) an ``analyze centroid`` report prints
MAX_CENTROID_ENTRIES = 10**6


def _wit(t) -> str:
    if t is None:
        return "()"
    return "(" + ",".join(str(i + 1) for i in t) + ")"


def _lincomb(coeffs, names) -> str:
    terms = []
    for c, name in zip(coeffs, names):
        c = Fraction(c)
        if c == 0:
            continue
        if c == 1:
            terms.append(("+", name))
        elif c == -1:
            terms.append(("-", name))
        elif c > 0:
            terms.append(("+", f"{ser.format_rational(c)}*{name}"))
        else:
            terms.append(("-", f"{ser.format_rational(-c)}*{name}"))
    if not terms:
        return "0"
    sign, first = terms[0]
    out = ("-" if sign == "-" else "") + first
    for sign, term in terms[1:]:
        out += f" {sign} {term}"
    return out


class Reporter:
    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.checks = []
        self.outputs = []
        self.result = {}
        self.lines = []

    def check(self, name: str, passed: bool, witness=None, residual=None, names=None):
        entry = {
            "name": name,
            "passed": passed,
            "witness": None if witness is None else [i + 1 for i in witness],
        }
        if residual is not None:
            entry["residual"] = [ser.format_rational(x) for x in residual]
        self.checks.append(entry)
        if passed:
            self.lines.append(f"{name}: PASS")
        else:
            line = f"{name}: FAIL witness={_wit(witness)}"
            if residual is not None and names is not None:
                line += f" residual={_lincomb(residual, names)}"
            self.lines.append(line)

    def text(self, line: str):
        self.lines.append(line)

    def wrote(self, path: str):
        self.outputs.append(str(path))
        self.lines.append(f"wrote {path}")

    def emit(self) -> int:
        if self.as_json:
            payload = {
                "command": self.command,
                "checks": self.checks,
                "outputs": self.outputs,
            }
            if self.result:
                payload["result"] = self.result
            print(json.dumps(payload, indent=2))
        else:
            for line in self.lines:
                print(line)
        return 0 if all(c["passed"] for c in self.checks) else 1


def _need(part, message: str):
    """A part of a parsed file, or malformed input (exit 2) when the file lacks it."""
    if part is None:
        raise ser.ParseError(message)
    return part


def _need_algebra(parsed: ser.ParsedFile):
    return _need(parsed.algebra, "expected a Hom-Lie algebra file, found an associative one")


def _cmd_check(args) -> int:
    parsed = ser.load_path(args.file)
    g = _need_algebra(parsed)
    names = parsed.names()
    rep = Reporter("check", args.json)
    hl = check_hom_lie(g)
    rep.check("skew", hl.skew, hl.skew_witness)
    rep.check("hom_jacobi", hl.hom_jacobi, hl.jacobi_witness, hl.jacobi_residual, names)
    if args.quadratic:
        q = check_quadratic(g, _need(parsed.form, "--quadratic needs a form in the file"))
        rep.check("symmetric", q.symmetric, q.symmetric_witness)
        rep.check(
            "nondegenerate",
            q.nondegenerate,
            None,
            q.degenerate_witness,
            names,
        )
        rep.check("invariant", q.invariant, q.invariant_witness)
        rep.check("alpha_symmetric", q.alpha_symmetric, q.alpha_witness)
    if args.multiplicative:
        w = multiplicativity_witness(g)
        rep.check("multiplicative", w is None, w)
    if args.involutive:
        rep.check("involutive", g.alpha.power(2).is_identity())
    return rep.emit()


def _subspace_lines(rep: Reporter, label, sub, names):
    rows = sub.vectors()
    rep.text(f"{label}: dim {sub.dim}")
    for row in rows:
        rep.text(f"  {_lincomb(row, names)}")
    rep.result[label.replace(" ", "_")] = {
        "dim": sub.dim,
        "basis": [[ser.format_rational(x) for x in row] for row in rows],
    }


def _cmd_analyze(args) -> int:
    an = homlie.analyze
    parsed = ser.load_path(args.file)
    g = _need_algebra(parsed)
    names = parsed.names()
    rep = Reporter("analyze", args.json)
    op = args.operation
    if op == "center":
        _subspace_lines(rep, "center", an.center(g), names)
    elif op == "centroid":
        sub = an.centroid(g)
        entries = sub.dim * sub.ambient_dim
        if entries > MAX_CENTROID_ENTRIES:
            print(
                f"error: the centroid has dimension {sub.dim} in Q^{sub.ambient_dim},"
                f" {entries} basis entries, over the limit {MAX_CENTROID_ENTRIES}",
                file=sys.stderr,
            )
            return 2
        rep.text(f"centroid: dim {sub.dim}")
        rep.result["centroid"] = {
            "dim": sub.dim,
            "basis": [[ser.format_rational(x) for x in row] for row in sub.vectors()],
        }
    elif op == "radical":
        _subspace_lines(rep, "radical", an.radical_involutive(g), names)
    elif op == "trace-form":
        gram = an.trace_form(g).gram.data
        rep.text("trace form gram:")
        for row in gram:
            rep.text("  [" + ", ".join(ser.format_rational(x) for x in row) + "]")
        rep.result["gram"] = [[ser.format_rational(x) for x in r] for r in gram]
    elif op == "simple":
        verdict = an.simplicity_verdict(g)
        rep.text(f"simplicity: {verdict.tag}")
        rep.result["simplicity"] = verdict.tag
        if verdict.witness is not None:
            rows = verdict.witness.vectors()
            rep.result["witness"] = [[ser.format_rational(x) for x in row] for row in rows]
            for row in rows:
                rep.text(f"  {_lincomb(row, names)}")
    elif op in ("fitting", "decompose", "recognize-dext"):
        q = QuadraticHomAlgebra(g, _need(parsed.form, f"{op} needs a form in the file"))
        if op == "fitting":
            fs = an.fitting_decomposition(q)
            rep.text(f"fitting: stable power {fs.n}")
            _subspace_lines(rep, "nilpotent part", fs.i_part, names)
            _subspace_lines(rep, "invertible part", fs.j_part, names)
            rep.result["stable_power"] = fs.n
        elif op == "decompose":
            parts = an.decompose_irreducible(q)
            rep.text(f"decompose: {len(parts)} summand(s)")
            rep.result["summands"] = []
            for idx, (sub, piece) in enumerate(parts, start=1):
                _subspace_lines(rep, f"summand {idx}", sub, names)
                rep.result["summands"].append({"dim": piece.dim})
        else:
            w = an.recognize_double_extension(q)
            rep.text(
                f"double extension: lambda={ser.format_rational(w.data.lam)}"
                f" lambda0={ser.format_rational(w.data.lam0)}"
            )
            rep.text(f"  e = {_lincomb(w.e_vec, names)}")
            rep.text(f"  b = {_lincomb(w.b_vec, names)}")
            rep.text(f"  base dim {w.base.dim}")
            rep.result["lambda"] = ser.format_rational(w.data.lam)
            rep.result["lambda0"] = ser.format_rational(w.data.lam0)
            rep.result["e"] = [ser.format_rational(x) for x in w.e_vec]
            rep.result["b"] = [ser.format_rational(x) for x in w.b_vec]
            rep.result["base_dim"] = w.base.dim
    return rep.emit()


def _write_algebra(rep, path, alg, form=None, basis_names=None):
    ser.save_path(path, ser.algebra_to_dict(alg, form, basis_names))
    rep.wrote(path)


def _cmd_construct(args) -> int:
    bd = homlie.build
    rep = Reporter("construct", args.json)
    op = args.operation
    parsed = ser.load_path(args.file)
    g = _need_algebra(parsed)
    if op == "twist":
        out = bd.yau_twist(g.with_alpha(Matrix.identity(g.dim)), g.alpha)
        _write_algebra(rep, args.out, out)
    elif op == "derived":
        if args.n < 0:
            print("error: derived index must be >= 0", file=sys.stderr)
            return 2
        if parsed.form is not None:
            q = bd.quadratic_derived(QuadraticHomAlgebra(g, parsed.form), args.n)
            _write_algebra(rep, args.out, q.algebra, q.form)
        else:
            _write_algebra(rep, args.out, bd.derived_hom_algebra(g, args.n))
    elif op == "tstar":
        q = bd.tstar_extension(g.with_alpha(Matrix.identity(g.dim)))
        _write_algebra(rep, args.out, q.algebra, q.form)
    elif op == "omega-ext":
        q = bd.omega_extension(g)
        _write_algebra(rep, args.out, q.algebra, q.form)
    elif op == "double-ext":
        form = _need(parsed.form, "double-ext needs a form in the base file")
        data = ser.parse_extension_data(ser.read_json(args.data), g.dim)
        q = bd.double_extension_1d(QuadraticHomAlgebra(g, form), data)
        _write_algebra(rep, args.out, q.algebra, q.form)
    elif op == "inv-double-ext":
        form = _need(parsed.form, "inv-double-ext needs a form in the base file")
        other = _need_algebra(ser.load_path(args.algebra))
        data = ser.parse_inv_extension_data(ser.read_json(args.data), g.dim, other.dim)
        q = bd.involutive_double_extension(QuadraticHomAlgebra(g, form), other, data)
        _write_algebra(rep, args.out, q.algebra, q.form)
    elif op == "tensor-current":
        assoc = _need(
            ser.load_path(args.algebra).assoc, "tensor-current needs an associative algebra file"
        )
        dim = g.dim * assoc.dim
        if dim > bd.MAX_OUTPUT_DIM:
            raise BadParams(f"tensor-current would have dimension {dim}, over the limit {bd.MAX_OUTPUT_DIM}")
        lie, theta = bd.tensor_current(g.with_alpha(Matrix.identity(g.dim)), assoc, assoc.alpha)
        _write_algebra(rep, args.out, lie.with_alpha(theta))
    elif op == "untwist":
        out = bd.untwist_regular(g)
        form = None
        if (
            parsed.form is not None
            and g.alpha.power(2).is_identity()
            and check_quadratic(g, parsed.form).ok
        ):
            form = BilinearForm(g.dim, g.alpha.transpose() @ parsed.form.gram)
        _write_algebra(rep, args.out, out, form)
    return rep.emit()


def _cmd_catalog(args) -> int:
    cat = homlie.catalog
    rep = Reporter("catalog", args.json)
    if args.operation == "list":
        for name, sig in cat.fixture_names():
            rep.text(f"{name} {sig}".rstrip())
        rep.result["fixtures"] = [name for name, _ in cat.fixture_names()]
        return rep.emit()
    params = [ser.parse_rational(p) for p in args.params]
    obj = cat.emit(args.name, *params)
    names = cat.basis_names(args.name, *params)
    if isinstance(obj, QuadraticHomAlgebra):
        payload = ser.algebra_to_dict(obj.algebra, obj.form, names)
    elif isinstance(obj, AssocAlgebra):
        payload = ser.assoc_to_dict(obj, names)
    else:
        payload = ser.algebra_to_dict(obj, None, names)
    ser.save_path(args.out, payload)
    rep.wrote(args.out)
    return rep.emit()


# each construct operation's positional arguments with their add_argument options, in help order
_CONSTRUCTIONS = {
    "twist": {"file": {}},
    "tstar": {"file": {}},
    "omega-ext": {"file": {}},
    "untwist": {"file": {}},
    "derived": {"n": {"type": int}, "file": {}},
    "double-ext": {"file": {}, "data": {}},
    "inv-double-ext": {
        "file": {"help": "base quadratic algebra file"}, "algebra": {"help": "extending algebra file"}, "data": {}
    },
    "tensor-current": {
        "file": {"help": "Lie algebra file"}, "algebra": {"help": "commutative associative algebra file"}
    },
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homlie",
        description="Exact computer algebra for Hom-Lie algebras with invariant forms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify axioms of an algebra file")
    c.add_argument("file")
    c.add_argument("--quadratic", action="store_true")
    c.add_argument("--multiplicative", action="store_true")
    c.add_argument("--involutive", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_check)

    a = sub.add_parser("analyze", help="structural analysis of an algebra file")
    a.add_argument(
        "operation",
        choices=[
            "center",
            "centroid",
            "fitting",
            "radical",
            "decompose",
            "simple",
            "trace-form",
            "recognize-dext",
        ],
    )
    a.add_argument("file")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=_cmd_analyze)

    b = sub.add_parser("construct", help="build a new algebra from files")
    bsub = b.add_subparsers(dest="operation", required=True)
    for name, positionals in _CONSTRUCTIONS.items():
        sp = bsub.add_parser(name)
        for arg, options in positionals.items():
            sp.add_argument(arg, **options)
        sp.add_argument("--out", required=True)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=_cmd_construct)

    k = sub.add_parser("catalog", help="list or emit named fixtures")
    ksub = k.add_subparsers(dest="operation", required=True)
    kl = ksub.add_parser("list")
    kl.add_argument("--json", action="store_true")
    kl.set_defaults(func=_cmd_catalog)
    ke = ksub.add_parser("emit")
    # argparse reads "-1/2" as an option; like "-4", a negative rational is a parameter
    ke._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    ke.add_argument("name")
    ke.add_argument("params", nargs="*")
    ke.add_argument("--out", required=True)
    ke.add_argument("--json", action="store_true")
    ke.set_defaults(func=_cmd_catalog)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PreconditionFailed, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except HomLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"error: input too large to process ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
