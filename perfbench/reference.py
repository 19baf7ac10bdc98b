"""Reference mathematics for checking homlie outputs, written apart from homlie.

Everything here reads the JSON files and reports directly and recomputes
what a command promises with plain ``fractions.Fraction`` arithmetic over
sparse structure constants.  Nothing imports ``homlie``.  Completeness of a
computed kernel (center, centroid) is shown with a rank modulo a large prime:
reduction mod p can only lower a rank, so a nullity mod p that equals the
number of verified independent kernel vectors proves the kernel complete.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

PRIME = 2**31 - 1
_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

class Alg:
    """An algebra file: sparse bracket (or product), twist and optional form.

    ``br[(i, j)]`` maps k to the nonzero coefficient of x_k in [x_i, x_j]
    (both orders stored); ``alpha[r][c]`` is row r, column c of the twist,
    whose column c is the image of x_c; ``form`` is the Gram matrix or None.
    """

    def __init__(self, n, br, alpha, form, assoc=False):
        self.n = n
        self.br = br
        self.alpha = alpha
        self.form = form
        self.assoc = assoc

    def bracket(self, u, v):
        """[u, v] for coefficient vectors given as dicts index -> value."""
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                row = self.br.get((i, j))
                if row:
                    c = a * b
                    for k, x in row.items():
                        out[k] = out.get(k, _ZERO) + c * x
        return {k: x for k, x in out.items() if x}

    def alpha_of(self, v):
        out = {}
        for c, x in v.items():
            for r in range(self.n):
                a = self.alpha[r][c]
                if a:
                    out[r] = out.get(r, _ZERO) + a * x
        return {k: y for k, y in out.items() if y}

    def form_value(self, u, v):
        return sum((a * self.form[i][j] * b for i, a in u.items() for j, b in v.items()), _ZERO)


def _matrix(raw):
    return [[Fraction(x) for x in row] for row in raw]


def load_alg(path) -> Alg:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    n = data["dim"]
    assoc = "product" in data
    br = {}
    for entry in data["product" if assoc else "bracket"]:
        i, j = entry["i"], entry["j"]
        row = {k: Fraction(x) for k, x in enumerate(entry["coeffs"]) if Fraction(x)}
        if not row:
            continue
        br[(i, j)] = row
        if not assoc:
            br[(j, i)] = {k: -x for k, x in row.items()}
    form = _matrix(data["form"]) if data.get("form") is not None else None
    return Alg(n, br, _matrix(data["alpha"]), form, assoc)


def vec_dict(v):
    return {k: Fraction(x) for k, x in enumerate(v) if Fraction(x)}


def unit(k):
    return {k: Fraction(1)}


# ---------------------------------------------------------------------------
# exact and modular linear algebra
# ---------------------------------------------------------------------------

class Span:
    """Span of rational vectors of length n, kept as echelon rows."""

    def __init__(self, n, vectors=()):
        self.n = n
        self.rows = []  # (pivot, dict) with the pivot entry equal to 1
        for v in vectors:
            self.add(v)

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        w = dict(v)
        for p, row in self.rows:
            f = w.get(p)
            if f:
                for k, x in row.items():
                    y = w.get(k, _ZERO) - f * x
                    if y:
                        w[k] = y
                    else:
                        w.pop(k, None)
        return w

    def add(self, v) -> bool:
        w = self.reduce(v)
        if not w:
            return False
        p = min(w)
        inv = 1 / w[p]
        self.rows.append((p, {k: x * inv for k, x in w.items()}))
        return True

    def contains(self, v) -> bool:
        return not self.reduce(v)


def rank_exact(vectors, n) -> int:
    return Span(n, vectors).dim


def _mod(x: Fraction) -> int:
    if x.denominator % PRIME == 0:
        raise ValueError("denominator divisible by the check prime")
    return x.numerator % PRIME * pow(x.denominator, -1, PRIME) % PRIME


def rank_mod_p(rows, ncols) -> int:
    """Rank mod PRIME of the matrix whose rows are dicts col -> Fraction."""
    m = np.zeros((len(rows), ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, x in row.items():
            m[r, c] = _mod(x)
    rank = 0
    for c in range(ncols):
        if rank == m.shape[0]:
            break
        nz = np.nonzero(m[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), -1, PRIME) % PRIME
        below = m[rank + 1:]
        hit = np.nonzero(below[:, c])[0]
        if hit.size:
            f = below[hit, c].copy()
            below[hit] = (below[hit] - f[:, None] * m[rank]) % PRIME
        rank += 1
    return rank


def mat_mul(a, b):
    n, m, k = len(a), len(b), len(b[0]) if b else 0
    out = [[_ZERO] * k for _ in range(n)]
    for i in range(n):
        oi = out[i]
        for t in range(m):
            x = a[i][t]
            if x:
                bt = b[t]
                for j in range(k):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def mat_pow(a, e):
    n = len(a)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = mat_mul(out, a)
    return out


def columns(a):
    return [{r: a[r][c] for r in range(len(a)) if a[r][c]} for c in range(len(a[0]))]


# ---------------------------------------------------------------------------
# axiom checks, each giving the lexicographically first violation
# ---------------------------------------------------------------------------

def _ad_alpha(g: Alg):
    """[alpha(x_i), x_m] as dicts, for every i and m."""
    out = []
    for i in range(g.n):
        col = {p: g.alpha[p][i] for p in range(g.n) if g.alpha[p][i]}
        out.append({m: g.bracket(col, unit(m)) for m in range(g.n)})
    return out


def jacobi_violation(g: Alg):
    """First i < j < k where the twisted Jacobi identity fails, with its residual."""
    ada = _ad_alpha(g)
    acc = {}
    for (a, b), row in g.br.items():
        if a > b:
            continue
        for c in range(g.n):
            if c == a or c == b:
                continue
            key = tuple(sorted((a, b, c)))
            sign = -1 if key[1] == c else 1
            vec = acc.setdefault(key, {})
            adc = ada[c]
            for m, x in row.items():
                for k, y in adc[m].items():
                    vec[k] = vec.get(k, _ZERO) + sign * x * y
    bad = [key for key, v in acc.items() if any(v.values())]
    if not bad:
        return None
    key = min(bad)
    return key, [acc[key].get(k, _ZERO) for k in range(g.n)]


def multiplicative_violation(g: Alg):
    """First i < j with alpha([x_i, x_j]) != [alpha(x_i), alpha(x_j)]."""
    cols = columns(g.alpha)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            lhs = g.alpha_of(g.br.get((i, j), {}))
            if lhs != g.bracket(cols[i], cols[j]):
                return (i, j)
    return None


def is_involutive(g: Alg) -> bool:
    sq = mat_mul(g.alpha, g.alpha)
    return all(sq[i][j] == (1 if i == j else 0) for i in range(g.n) for j in range(g.n))


def quadratic_report(g: Alg):
    """(symmetric witness, degenerate?, invariance witness, alpha witness)."""
    n, gram = g.n, g.form
    sym = next(((i, j) for i in range(n) for j in range(i + 1, n) if gram[i][j] != gram[j][i]), None)
    degenerate = rank_exact([vec_dict(r) for r in gram], n) < n
    # invariance: B([x_i,x_j],x_k) == B(x_i,[x_j,x_k]) over all ordered triples
    left, right = {}, {}
    for (i, j), row in g.br.items():
        for k in range(n):
            lv = sum((x * gram[m][k] for m, x in row.items()), _ZERO)
            if lv:
                left[(i, j, k)] = lv
            rv = sum((gram[k][m] * x for m, x in row.items()), _ZERO)
            if rv:
                right[(k, i, j)] = rv
    inv_bad = [t for t in set(left) | set(right) if left.get(t, _ZERO) != right.get(t, _ZERO)]
    inv = min(inv_bad) if inv_bad else None
    lhs = mat_mul(gram, g.alpha)
    at = [[g.alpha[j][i] for j in range(n)] for i in range(n)]
    rhs = mat_mul(at, gram)
    alpha_w = next(((i, j) for i in range(n) for j in range(n) if lhs[i][j] != rhs[i][j]), None)
    return sym, degenerate, inv, alpha_w


def is_quadratic(g: Alg) -> bool:
    sym, degenerate, inv, aw = quadratic_report(g)
    return sym is None and not degenerate and inv is None and aw is None


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def _wit(t):
    return None if t is None else [i + 1 for i in t]


def is_rref(vectors) -> bool:
    """Reduced row-echelon form with no zero rows, as homlie prints subspaces."""
    pivots = []
    for v in vectors:
        if not v or v[min(v)] != 1 or (pivots and min(v) <= pivots[-1]):
            return False
        pivots.append(min(v))
    return all(v.get(p, _ZERO) == (a == b) for a, v in enumerate(vectors) for b, p in enumerate(pivots))


def _basis(rows):
    """Vectors of a printed subspace basis; ValueError unless they are in RREF."""
    vectors = [vec_dict(v) for v in rows]
    if not is_rref(vectors):
        raise ValueError("subspace basis is not in reduced row-echelon form")
    return vectors


def _closed(g: Alg, span: Span, vectors) -> bool:
    for v in vectors:
        if not span.contains(g.alpha_of(v)):
            return False
        for i in range(g.n):
            if not span.contains(g.bracket(unit(i), v)):
                return False
    return True


def _independent(vectors, n) -> bool:
    return rank_exact(vectors, n) == len(vectors)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_check(rc, report, path, quadratic=False, multiplicative=False, involutive=False):
    g = load_alg(path)
    jac = jacobi_violation(g)
    want = [("skew", True, None), ("hom_jacobi", jac is None, _wit(jac and jac[0]))]
    if quadratic:
        sym, degenerate, inv, aw = quadratic_report(g)
        want += [
            ("symmetric", sym is None, _wit(sym)),
            ("nondegenerate", not degenerate, None),
            ("invariant", inv is None, _wit(inv)),
            ("alpha_symmetric", aw is None, _wit(aw)),
        ]
    if multiplicative:
        w = multiplicative_violation(g)
        want.append(("multiplicative", w is None, _wit(w)))
    if involutive:
        want.append(("involutive", is_involutive(g), None))
    got = [(c["name"], c["passed"], c["witness"]) for c in report["checks"]]
    if got != want:
        return f"verdicts {got} differ from reference {want}"
    expect_rc = 0 if all(p for _, p, _ in want) else 1
    if rc != expect_rc:
        return f"exit {rc}, expected {expect_rc}"
    for c in report["checks"]:
        if c["name"] == "hom_jacobi" and not c["passed"]:
            if [Fraction(x) for x in c["residual"]] != jac[1]:
                return "Jacobi residual differs from the reference"
        if c["name"] == "nondegenerate" and not c["passed"]:
            v = vec_dict(c["residual"])
            if not v or any(sum((g.form[i][k] * x for k, x in v.items()), _ZERO) for i in range(g.n)):
                return "degeneracy witness is not a nonzero kernel vector of the form"
    return None


def check_construct(rc, report, out_path, dim, form, lie=False):
    """The output is Hom-Lie (Lie when ``lie``), quadratic when a form is
    promised, and of the promised dimension."""
    if rc != 0:
        return f"exit {rc}"
    if report["outputs"] != [str(out_path)]:
        return f"outputs {report['outputs']}"
    g = load_alg(out_path)
    if g.n != dim:
        return f"dimension {g.n}, promised {dim}"
    if (g.form is not None) != form:
        return "form missing" if form else "unexpected form"
    if lie and not all(g.alpha[i][j] == (1 if i == j else 0) for i in range(dim) for j in range(dim)):
        return "twist is not the identity"
    jac = jacobi_violation(g)
    if jac is not None:
        return f"output fails twisted Jacobi at {jac[0]}"
    if form and not is_quadratic(g):
        return "output form is not an invariant alpha-symmetric scalar product"
    return None


def center_system(g: Alg):
    """Rows (j, k) of v -> [v, x_j]_k, columns i."""
    rows = {}
    for (i, j), row in g.br.items():
        for k, x in row.items():
            rows.setdefault((j, k), {})[i] = x
    return list(rows.values())


def check_center(rc, report, path):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    sub = report["result"]["center"]
    vecs = _basis(sub["basis"])
    if sub["dim"] != len(vecs) or not _independent(vecs, g.n):
        return "center basis is not independent"
    for v in vecs:
        for j in range(g.n):
            if g.bracket(v, unit(j)):
                return "a center vector does not commute with the basis"
    if g.n - rank_mod_p(center_system(g), g.n) != len(vecs):
        return "center is incomplete"
    return None


def check_centroid(rc, report, path):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    n = g.n
    sub = report["result"]["centroid"]
    vecs = _basis(sub["basis"])
    if sub["dim"] != len(vecs) or not _independent(vecs, n * n):
        return "centroid basis is not independent"
    for v in vecs:
        theta = [[v.get(r * n + s, _ZERO) for s in range(n)] for r in range(n)]
        cols = columns(theta)
        for i in range(n):
            for j in range(n):
                lhs = {}
                for m, x in g.br.get((i, j), {}).items():
                    for r in range(n):
                        if theta[r][m]:
                            lhs[r] = lhs.get(r, _ZERO) + theta[r][m] * x
                lhs = {k: x for k, x in lhs.items() if x}
                if lhs != g.bracket(cols[i], unit(j)):
                    return f"theta[x_{i + 1},x_{j + 1}] != [theta x_{i + 1}, x_{j + 1}]"
    # theta[x_i,x_j]_k - [theta x_i, x_j]_k = 0, unknown theta[r][s] at r*n+s
    rows = []
    for i in range(n):
        for j in range(n):
            cij = g.br.get((i, j), {})
            for k in range(n):
                row = {}
                for m, x in cij.items():
                    row[k * n + m] = row.get(k * n + m, _ZERO) + x
                for r in range(n):
                    y = g.br.get((r, j), {}).get(k)
                    if y:
                        row[r * n + i] = row.get(r * n + i, _ZERO) - y
                row = {c: x for c, x in row.items() if x}
                if row:
                    rows.append(row)
    if n * n - rank_mod_p(rows, n * n) != len(vecs):
        return "centroid is incomplete"
    return None


def check_fitting(rc, report, path):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    n = g.n
    res = report["result"]
    power = res["stable_power"]
    nil, inv = _basis(res["nilpotent_part"]["basis"]), _basis(res["invertible_part"]["basis"])
    if not (_independent(nil, n) and _independent(inv, n) and len(nil) + len(inv) == n):
        return "parts are not independent or do not fill the space"
    ap = mat_pow(g.alpha, power)
    ap_rows = [vec_dict(r) for r in ap]
    for v in nil:
        if any(sum((x * row.get(k, _ZERO) for k, x in v.items()), _ZERO) for row in ap_rows):
            return "a nilpotent-part vector is not killed by alpha^n"
    image = Span(n, columns(ap))
    if not all(image.contains(w) for w in inv):
        return "an invertible-part vector is outside im(alpha^n)"
    if rank_exact(nil + inv, n) != n:
        return "parts overlap"
    # ker(alpha^n) has dim n - rank(alpha^n) = len(nil): complete, and stable
    if n - image.dim != len(nil):
        return "nilpotent part is incomplete"
    if n - rank_exact(columns(mat_pow(g.alpha, power + 1)), n) != len(nil):
        return "kernel of alpha^n is not stable"
    if power > 1 and n - rank_exact(columns(mat_pow(g.alpha, power - 1)), n) == len(nil):
        return "stable power is not the least one"
    return None


def check_simple(rc, report, path, expect):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    tag = report["result"]["simplicity"]
    if tag != expect:
        return f"verdict {tag}, expected {expect}"
    if tag == "NotSimple":
        if "witness" not in report["result"]:
            return "NotSimple without a witness" if g.n > 1 else None
        w = _basis(report["result"]["witness"])
        span = Span(g.n, w)
        if not 0 < span.dim < g.n:
            return "witness is not a proper nonzero subspace"
        if not _closed(g, span, w):
            return "witness is not closed under ad and alpha"
    return None


def check_decompose(rc, report, path):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    res = report["result"]
    parts = [_basis(res[f"summand_{k + 1}"]["basis"]) for k in range(len(res["summands"]))]
    if [len(p) for p in parts] != [s["dim"] for s in res["summands"]]:
        return "summand dimensions disagree with their bases"
    if sum(len(p) for p in parts) != g.n or rank_exact([v for p in parts for v in p], g.n) != g.n:
        return "summands do not fill the space"
    for p in parts:
        if not _closed(g, Span(g.n, p), p):
            return "a summand is not an ideal"
        gram = [[g.form_value(u, v) for v in p] for u in p]
        if rank_exact([vec_dict(r) for r in gram], len(p)) != len(p):
            return "a summand restricts the form degenerately"
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            if any(g.form_value(u, v) for u in parts[a] for v in parts[b]):
                return "summands are not form-orthogonal"
    return None


def _solvable(g: Alg, vectors) -> bool:
    current = Span(g.n, vectors)
    while current.dim:
        rows = [row for _, row in current.rows]
        derived = Span(g.n, [g.bracket(u, v) for a, u in enumerate(rows) for v in rows[a + 1:]])
        if derived.dim >= current.dim:
            return False
        current = derived
    return True


def check_radical(rc, report, path):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    r = _basis(report["result"]["radical"]["basis"])
    span = Span(g.n, r)
    if span.dim != len(r):
        return "radical basis is not independent"
    if not _closed(g, span, r):
        return "radical is not an alpha-stable ideal"
    if not _solvable(g, r):
        return "radical is not solvable"
    return None


def check_trace_form(rc, report, path):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    n = g.n
    ad = [[[g.br.get((i, m), {}).get(k, _ZERO) for m in range(n)] for k in range(n)] for i in range(n)]
    want = [
        [sum((ad[i][k][m] * ad[j][m][k] for k in range(n) for m in range(n)), _ZERO) for j in range(n)]
        for i in range(n)
    ]
    got = [[Fraction(x) for x in row] for row in report["result"]["gram"]]
    return None if got == want else "trace form differs from tr(ad_i ad_j)"


def check_recognize(rc, report, path):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(path)
    res = report["result"]
    e, b, lam = vec_dict(res["e"]), vec_dict(res["b"]), Fraction(res["lambda"])
    if not e:
        return "e is zero"
    if any(g.bracket(e, unit(j)) for j in range(g.n)):
        return "e is not central"
    if g.alpha_of(e) != {k: lam * x for k, x in e.items() if lam * x}:
        return "alpha(e) != lambda e"
    if (g.form_value(e, e), g.form_value(e, b), g.form_value(b, b)) != (0, 1, 0):
        return "e, b do not span a hyperbolic plane"
    if res["base_dim"] != g.n - 2:
        return "base dimension is not n - 2"
    return None


# catalog ---------------------------------------------------------------------

FIXTURES = (
    "abelian", "assoc_a", "ex_1_2", "filiform", "heis3", "jackson_sl2",
    "sl2", "sl_n_transpose", "swap_double", "two_nilpotent",
)


def fixture_dim(name, params):
    """Dimension each fixture documents for its integer size parameters."""
    p = [int(Fraction(x)) for x in params]
    return {
        "abelian": lambda: p[0],
        "assoc_a": lambda: 4,
        "ex_1_2": lambda: 3,
        "filiform": lambda: p[0] + 1,
        "heis3": lambda: 3,
        "jackson_sl2": lambda: 3,
        "sl2": lambda: 3,
        "sl_n_transpose": lambda: p[0] * p[0] - 1,
        "swap_double": lambda: 2 * (p[0] * p[0] - 1),
        "two_nilpotent": lambda: p[0] + p[1],
    }[name]()


def _assoc_ok(a: Alg) -> bool:
    """Commutative, associative, and alpha a product automorphism."""
    n = a.n

    def mul(u, v):
        return a.bracket(u, v)

    for i in range(n):
        for j in range(n):
            if a.br.get((i, j), {}) != a.br.get((j, i), {}):
                return False
            for k in range(n):
                if mul(mul(unit(i), unit(j)), unit(k)) != mul(unit(i), mul(unit(j), unit(k))):
                    return False
    cols = columns(a.alpha)
    return all(
        a.alpha_of(a.br.get((i, j), {})) == mul(cols[i], cols[j]) for i in range(n) for j in range(n)
    )


def check_catalog_emit(rc, report, out_path, name, params):
    if rc != 0:
        return f"exit {rc}"
    g = load_alg(out_path)
    if g.n != fixture_dim(name, params):
        return f"dimension {g.n}, documented {fixture_dim(name, params)}"
    if g.assoc:
        return None if _assoc_ok(g) else "product is not a commutative associative algebra"
    jac = jacobi_violation(g)
    if jac is not None:
        return f"fails twisted Jacobi at {jac[0]}"
    if g.form is not None and not is_quadratic(g):
        return "form is not quadratic"
    return None


def check_catalog_list(rc, report):
    if rc != 0:
        return f"exit {rc}"
    names = sorted(report["result"]["fixtures"])
    return None if names == sorted(FIXTURES) else f"fixtures {names}"
