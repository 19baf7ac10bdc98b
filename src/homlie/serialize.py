"""JSON file format with string-encoded rationals.

Brackets are stored sparsely as entries {i, j, coeffs} for i < j only (the
rest follows by skew-symmetry); every scalar is a string "p" or "p/q" with
q > 0, never a float, so files round-trip bit exactly.  Indices in files are
zero-based.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import HomLieError, ParseError
from .exactlin import Matrix
from .homalg import (
    AssocAlgebra,
    BilinearForm,
    ExtensionData1D,
    HomAlgebra,
    InvolutiveExtensionData,
    Record,
)

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9][0-9]*)?$")


def format_rational(x: Fraction) -> str:
    """The one formatter of report and file values, "p" or "p/q"."""
    try:
        return str(Fraction(x))
    except ValueError:  # more digits than Python converts to a string
        raise HomLieError(
            f"a result value has more than {sys.get_int_max_str_digits()} digits, too long to print"
        ) from None


def parse_rational(s) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
        raise ParseError(f"bad rational literal {s!r} (expected 'p' or 'p/q', q > 0)")
    try:
        return Fraction(s)
    except ValueError:  # more digits than Python converts to an int
        raise ParseError(f"rational literal of {len(s)} characters is too long") from None


def _format_vector(v) -> list[str]:
    return [format_rational(x) for x in v]


def _format_matrix(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.data]


def _parse_matrix(raw, rows: int, cols: int, what: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != rows:
        raise ParseError(f"{what} must have exactly {rows} rows")
    out = []
    for row in raw:
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{what} rows must have exactly {cols} entries")
        out.append([parse_rational(x) for x in row])
    return Matrix(out)


def _parse_vector(raw, n: int, what: str) -> tuple[Fraction, ...]:
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"{what} must have exactly {n} entries")
    return tuple(parse_rational(x) for x in raw)


class ParsedFile(Record):
    """The decoded content of an algebra file."""

    algebra: HomAlgebra | None
    assoc: AssocAlgebra | None
    form: BilinearForm | None
    basis_names: list[str] | None

    @property
    def kind(self) -> str:
        return "assoc" if self.assoc is not None else "hom_lie"

    def names(self) -> list[str]:
        if self.basis_names:
            return list(self.basis_names)
        obj = self.assoc if self.assoc is not None else self.algebra
        return [f"x{i + 1}" for i in range(obj.dim)]


def algebra_to_dict(
    g: HomAlgebra,
    form: BilinearForm | None = None,
    basis_names: list[str] | None = None,
) -> dict:
    entries = [
        {"i": i, "j": j, "coeffs": _format_vector(v)} for (i, j), v in g.bracket.items()
    ]
    out = {"dim": g.dim, "bracket": entries, "alpha": _format_matrix(g.alpha)}
    if form is not None:
        out["form"] = _format_matrix(form.gram)
    if basis_names is not None:
        out["basis_names"] = list(basis_names)
    return out


def assoc_to_dict(a: AssocAlgebra, basis_names: list[str] | None = None) -> dict:
    entries = [
        {"i": i, "j": j, "coeffs": _format_vector(v)} for (i, j), v in a.product.items()
    ]
    out = {"dim": a.dim, "product": entries, "alpha": _format_matrix(a.alpha)}
    if basis_names is not None:
        out["basis_names"] = list(basis_names)
    return out


def parse_dict(data) -> ParsedFile:
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    dim = data.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ParseError("dim must be a positive integer")
    names = data.get("basis_names")
    if names is not None and (
        not isinstance(names, list)
        or len(names) != dim
        or any(not isinstance(s, str) for s in names)
    ):
        raise ParseError("basis_names must list exactly dim strings")
    alpha = _parse_matrix(data.get("alpha"), dim, dim, "alpha")
    form = None
    if data.get("form") is not None:
        form = BilinearForm(dim, _parse_matrix(data["form"], dim, dim, "form"))
    assoc = "product" in data
    if assoc and "bracket" in data:
        raise ParseError("a file lists either product or bracket entries, not both")
    key = "product" if assoc else "bracket"
    pairs = {}
    for entry in _entries(data, key):
        i, j, coeffs = _entry_parts(entry, dim, ordered=not assoc)
        if (i, j) in pairs:
            raise ParseError(f"duplicate {key} entry ({i},{j})")
        pairs[(i, j)] = coeffs
    if assoc:
        return ParsedFile(None, AssocAlgebra(dim, pairs, alpha), form, names)
    return ParsedFile(HomAlgebra(dim, pairs, alpha), None, form, names)


def _is_int(x) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _entries(data, key):
    raw = data.get(key, [])
    if not isinstance(raw, list):
        raise ParseError(f"{key} must be a list of entries")
    return raw


def _entry_parts(entry, dim, ordered):
    if not isinstance(entry, dict):
        raise ParseError("entries must be objects with i, j, coeffs")
    i, j = entry.get("i"), entry.get("j")
    if not _is_int(i) or not _is_int(j):
        raise ParseError("entry indices must be integers")
    if not (0 <= i < dim and 0 <= j < dim):
        raise ParseError(f"entry index out of range: ({i},{j})")
    if ordered and not i < j:
        raise ParseError(f"bracket entries need i < j, got ({i},{j})")
    coeffs = _parse_vector(entry.get("coeffs"), dim, "coeffs")
    return i, j, coeffs


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _decode(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep nesting and too long integers
        raise ParseError(f"malformed JSON: {exc}") from exc


def loads(text: str) -> ParsedFile:
    return parse_dict(_decode(text))


def read_json(path):
    """The JSON value in a UTF-8 file; every way the file can fail to read or decode is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return _decode(text)


def load_path(path) -> ParsedFile:
    return parse_dict(read_json(path))


def save_path(path, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


# extension data files -------------------------------------------------------

def extension_data_to_dict(d: ExtensionData1D) -> dict:
    return {
        "delta": _format_matrix(d.delta),
        "x0": _format_vector(d.x0),
        "lambda": format_rational(d.lam),
        "lambda0": format_rational(d.lam0),
    }


def parse_extension_data(data, n: int) -> ExtensionData1D:
    if not isinstance(data, dict):
        raise ParseError("extension data must be a JSON object")
    return ExtensionData1D(
        _parse_matrix(data.get("delta"), n, n, "delta"),
        _parse_vector(data.get("x0"), n, "x0"),
        parse_rational(data.get("lambda")),
        parse_rational(data.get("lambda0")),
    )


def inv_extension_data_to_dict(d: InvolutiveExtensionData) -> dict:
    return {
        "phi": [_format_matrix(p) for p in d.phi],
        "gamma": _format_matrix(d.gamma.gram),
    }


def parse_inv_extension_data(data, module_dim: int, algebra_dim: int) -> InvolutiveExtensionData:
    if not isinstance(data, dict):
        raise ParseError("extension data must be a JSON object")
    raw_phi = data.get("phi")
    if not isinstance(raw_phi, list) or len(raw_phi) != algebra_dim:
        raise ParseError("phi must list one matrix per basis vector of A")
    phi = tuple(
        _parse_matrix(p, module_dim, module_dim, "phi entry") for p in raw_phi
    )
    gamma = BilinearForm(
        algebra_dim, _parse_matrix(data.get("gamma"), algebra_dim, algebra_dim, "gamma")
    )
    return InvolutiveExtensionData(phi, gamma)
