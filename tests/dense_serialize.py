"""The dense file reader and writer, kept as the oracle for homlie.serialize's.

They are how ``homlie.serialize`` read and wrote algebra files before the
structure tables stayed sparse from file to file: the reader made a Fraction
of every literal through ``Fraction(s)``, "0" included, and handed each entry
to the constructor as a dense coefficient vector and each matrix as dense
rows; the writer formatted every entry of the dense ``bracket`` or
``product`` vectors and of the dense matrix rows as ``str(Fraction(x))``.

The reader takes valid files only: checking the format is the job of the
reader under test, and the oracle shares none of its code.
"""

import json
from fractions import Fraction

from homlie.exactlin import Matrix
from homlie.homalg import AssocAlgebra, BilinearForm, HomAlgebra


def dense_parse_rational(s: str) -> Fraction:
    return Fraction(s)


def dense_format_rational(x) -> str:
    return str(Fraction(x))


def _matrix(raw) -> Matrix:
    return Matrix([[dense_parse_rational(s) for s in row] for row in raw])


def dense_parse_dict(data: dict):
    """(algebra, form, basis_names) of a valid file; an AssocAlgebra for a product file."""
    dim = data["dim"]
    form = None
    if data.get("form") is not None:
        form = BilinearForm(dim, _matrix(data["form"]))
    key, cls = ("product", AssocAlgebra) if "product" in data else ("bracket", HomAlgebra)
    pairs = {
        (e["i"], e["j"]): tuple(dense_parse_rational(s) for s in e["coeffs"])
        for e in data.get(key, [])
    }
    return cls(dim, pairs, _matrix(data["alpha"])), form, data.get("basis_names")


def _format_matrix(m: Matrix) -> list:
    return [[dense_format_rational(x) for x in row] for row in m.data]


def _entries(table) -> list:
    return [
        {"i": i, "j": j, "coeffs": [dense_format_rational(x) for x in v]}
        for (i, j), v in table.items()
    ]


def dense_algebra_to_dict(g: HomAlgebra, form=None, basis_names=None) -> dict:
    out = {"dim": g.dim, "bracket": _entries(g.bracket), "alpha": _format_matrix(g.alpha)}
    if form is not None:
        out["form"] = _format_matrix(form.gram)
    if basis_names is not None:
        out["basis_names"] = list(basis_names)
    return out


def dense_assoc_to_dict(a: AssocAlgebra, basis_names=None) -> dict:
    out = {"dim": a.dim, "product": _entries(a.product), "alpha": _format_matrix(a.alpha)}
    if basis_names is not None:
        out["basis_names"] = list(basis_names)
    return out


def dense_dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"
