"""Dense axiom checks, kept as the oracle for the sparse ones in homlie.homalg.

These are the scans ``homlie.homalg`` ran before every check evaluated its
brackets through sparse rows: the twisted Jacobi scan with its own copy of
the Jacobiator, the quadratic invariance loop over the dense ad_i^T @ gram,
the twisted invariance over the same products, the module axiom as full
matrix products per basis pair, and twisted associativity per basis triple.
Brackets come from ``basis_bracket`` alone, a lookup in the stored pairs,
so nothing here shares code with the scans under test.  Each scan returns
the first failing index tuple in lexicographic order, where the library
reports one.
"""

from fractions import Fraction

from homlie.exactlin import Matrix, first_mismatch, kernel
from homlie.homalg import HomLieReport, QuadraticReport

_ZERO = Fraction(0)


def dense_ad(g, x) -> Matrix:
    """Matrix of [x, .] as sum of x_p ad_p, each ad_p read off basis_bracket."""
    n = g.dim
    cols = [[_ZERO] * n for _ in range(n)]
    for p, xp in enumerate(x):
        if xp:
            for q in range(n):
                for k, c in enumerate(g.basis_bracket(p, q)):
                    cols[q][k] += xp * c
    return Matrix(zip(*cols))


def dense_jacobiator(g, i, j, k, ad_alpha=None) -> tuple:
    """[a(x_i),[x_j,x_k]] + [a(x_j),[x_k,x_i]] + [a(x_k),[x_i,x_j]] by dense products."""
    ad = ad_alpha or {p: dense_ad(g, g.alpha_col(p)) for p in (i, j, k)}
    t1 = ad[i].apply(g.basis_bracket(j, k))
    t2 = ad[j].apply(g.basis_bracket(k, i))
    t3 = ad[k].apply(g.basis_bracket(i, j))
    return tuple(a + b + c for a, b, c in zip(t1, t2, t3))


def dense_check_hom_lie(g) -> HomLieReport:
    n = g.dim
    ad_alpha = [dense_ad(g, g.alpha_col(i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = dense_jacobiator(g, i, j, k, ad_alpha)
                if any(res):
                    return HomLieReport(True, False, jacobi_witness=(i, j, k), jacobi_residual=res)
    return HomLieReport(True, True)


def dense_bracket_mismatch(g, h, lhs, terms):
    n = g.dim
    for i in range(n):
        ads = [dense_ad(h, p.col(i)) for p, _ in terms]
        for j in range(i + 1, n):
            rhs = [_ZERO] * h.dim
            for ad, (_, q) in zip(ads, terms):
                rhs = [a + b for a, b in zip(rhs, ad.apply(q.col(j)))]
            if list(lhs.apply(g.basis_bracket(i, j))) != rhs:
                return (i, j)
    return None


def dense_check_quadratic(g, b) -> QuadraticReport:
    n = g.dim
    gram = b.gram
    sym_witness = first_mismatch(gram, gram.transpose())
    ker = kernel(gram)
    nondeg = ker.is_zero()
    degenerate_witness = None if nondeg else ker.vectors()[0]
    inv_witness = None
    for i in range(n):
        lhs = dense_ad(g, [int(p == i) for p in range(n)]).transpose() @ gram
        rhs = Matrix([[gram.apply(g.basis_bracket(y, z))[i] for z in range(n)] for y in range(n)])
        w = first_mismatch(lhs, rhs)
        if w is not None:
            inv_witness = (i,) + w
            break
    alpha_witness = first_mismatch(gram @ g.alpha, g.alpha.transpose() @ gram)
    return QuadraticReport(
        sym_witness is None,
        nondeg,
        inv_witness is None,
        alpha_witness is None,
        sym_witness,
        degenerate_witness,
        inv_witness,
        alpha_witness,
    )


def dense_check_hom_quadratic(g, b, gamma) -> bool:
    gram_gamma = b.gram @ gamma
    gamma_gram = gamma.transpose() @ b.gram
    n = g.dim
    ads = [dense_ad(g, [int(p == i) for p in range(n)]) for i in range(n)]
    return all(ad.transpose() @ gram_gamma == -(gamma_gram @ ad) for ad in ads)


def dense_representation_witness(g, r):
    rho_alpha = [r.rho_vec(g.alpha_col(i)) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = r.rho_vec(g.basis_bracket(i, j)) @ r.beta
            rhs = rho_alpha[i] @ r.rho[j] - rho_alpha[j] @ r.rho[i]
            if lhs != rhs:
                return (i, j)
    return None


def dense_hom_associativity_witness(a):
    n = a.dim
    mu = [[Matrix([a.product[p][q]]).transpose() for q in range(n)] for p in range(n)]

    def product(u, v):
        out = Matrix.zeros(n, 1)
        for p in range(n):
            for q in range(n):
                if u[p] and v[q]:
                    out = out + mu[p][q].scale(u[p] * v[q])
        return out

    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = product(a.alpha.col(i), a.product[j][k])
                rhs = product(a.product[i][j], a.alpha.col(k))
                if lhs != rhs:
                    return (i, j, k)
    return None
