"""Slow, independent reference routes that the fast code in src/ is tested against.

Nothing in polyred calls these.  Each one is the implementation a fast
path replaced, kept here so that a differential test can compare the
two on random inputs:

  * the Fraction remainder chain (gcd, squarefree part, Sturm count) of
    a univariate polynomial over Q, which elim.squarefree_part and
    elim.count_real_roots replaced with the integer kernel;
  * the Sylvester determinant route for elim.resultant;
  * the g*h^delta subresultant loop over Z[x1][x2], which elim.z_resultant
    replaced with Lazard's and Ducos' steps;
  * the gcd route of elim.z_squarefree, which runs whenever its mod-p
    certificate does not settle the input;
  * a dense Bareiss determinant for linalg.sparse_det;
  * the fully homogenizing form of certs.substitute_rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from polyred.elim import (_q_trim, poly_matrix_det, q_derive, uni_coeffs, z_exact_div,
                          z_gcd, z_mul, z_sub)
from polyred.poly import ExactDivisionError, Poly, mono_degree


def uni_assemble(coeffs: list, var: int, varcount: int) -> Poly:
    """The Poly sum coeffs[e] * x_var^e, inverse to elim.uni_coeffs."""
    out = Poly(varcount)
    xv = Poly.variable(varcount, var)
    for e, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + c * xv ** e
    return out


# -- univariate polynomials over Q, on Fraction coefficient lists -----------


def _require_univariate(p: Poly) -> int:
    used = p.variables_used()
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    return next(iter(used)) if used else 0


def q_coeffs(p: Poly) -> list:
    """[c0, c1, ...] as Fractions for a univariate polynomial."""
    var = _require_univariate(p)
    if p.is_zero():
        return []
    out = [Fraction(0)] * (p.degree_in(var) + 1)
    for m, c in p.terms.items():
        out[m[0][1] if m else 0] = c
    return out


def _q_rem(a: list, b: list) -> list:
    r = list(a)
    db = len(b) - 1
    inv = 1 / b[-1]
    while len(r) - 1 >= db and r:
        f = r[-1] * inv
        k = len(r) - 1 - db
        for i in range(db):
            r[k + i] -= f * b[i]
        r.pop()
        _q_trim(r)
    return r


def q_gcd(a: list, b: list) -> list:
    """Monic gcd of univariate rational coefficient lists."""
    a, b = _q_trim(list(a)), _q_trim(list(b))
    while b:
        a, b = b, _q_rem(a, b)
    if not a:
        return []
    lc = a[-1]
    return [c / lc for c in a]


def _q_divide(a: list, b: list) -> list:
    """Exact quotient of coefficient lists."""
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = list(a)
    db = len(b) - 1
    while _q_trim(r) and len(r) - 1 >= db:
        f = r[-1] / b[-1]
        k = len(r) - 1 - db
        q[k] = f
        for i in range(db + 1):
            r[k + i] -= f * b[i]
        _q_trim(r)
    if r:
        raise ExactDivisionError("univariate division is not exact")
    return q


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors collapsed: p / gcd(p, p')."""
    var = _require_univariate(p)
    c = q_coeffs(p)
    if len(c) <= 1:
        return p
    g = q_gcd(c, q_derive(c))
    if len(g) == 1:
        out = c
    else:
        out = _q_divide(c, g)
    return uni_assemble([Poly.const(p.varcount, x) for x in out], var, p.varcount)


def sturm_chain(p: Poly) -> list:
    """Sturm sequence of a univariate polynomial, as coefficient lists."""
    c = _q_trim(q_coeffs(p))
    if not c:
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [c]
    d = q_derive(c)
    if _q_trim(list(d)):
        chain.append(d)
        while True:
            r = _q_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-x for x in r])
    return chain


def _q_eval(c: list, x: Fraction) -> Fraction:
    v = Fraction(0)
    for coef in reversed(c):
        v = v * x + coef
    return v


def _variations(chain: list, x: Fraction) -> int:
    signs = []
    for c in chain:
        v = _q_eval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _variations_at_inf(chain: list, positive: bool) -> int:
    signs = []
    for c in chain:
        lc = c[-1]
        s = 1 if lc > 0 else -1
        if not positive and (len(c) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def sturm_count(p: Poly, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> int:
    """Number of distinct real roots in (lo, hi]; None means +-infinity.

    Endpoints must not be roots of p when finite.
    """
    chain = sturm_chain(p)
    if len(chain[0]) <= 1:
        return 0
    va = _variations(chain, Fraction(lo)) if lo is not None else _variations_at_inf(chain, False)
    vb = _variations(chain, Fraction(hi)) if hi is not None else _variations_at_inf(chain, True)
    return va - vb


def count_real_roots(p: Poly) -> int:
    """Distinct real roots of a univariate polynomial (no squarefree
    assumption; the Sturm chain collapses multiplicity by itself)."""
    return sturm_count(p)


# -- resultants and determinants --------------------------------------------


def sylvester_matrix(f: Poly, g: Poly, var: int) -> list:
    """Sylvester matrix as nested lists of coefficient Polys."""
    a = uni_coeffs(f, var)
    b = uni_coeffs(g, var)
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        raise ValueError("Sylvester matrix of a zero polynomial")
    n = f.varcount
    size = da + db
    zero = Poly(n)
    rows = []
    for i in range(db):
        row = [zero] * size
        for k, c in enumerate(reversed(a)):
            row[i + k] = c
        rows.append(row)
    for i in range(da):
        row = [zero] * size
        for k, c in enumerate(reversed(b)):
            row[i + k] = c
        rows.append(row)
    return rows


def sylvester_resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Reference resultant: determinant of the Sylvester matrix.

    Exponentially slower than elim.resultant on real inputs; kept as the
    independent second route.
    """
    if f.varcount != g.varcount:
        raise ValueError("variable count mismatch")
    n = f.varcount
    if f.is_zero() or g.is_zero():
        return Poly(n)
    if f.degree_in(var) == 0 and g.degree_in(var) == 0:
        return Poly.const(n, 1)
    return poly_matrix_det(sylvester_matrix(f, g, var), n)


def z_pow(a: list, k: int) -> list:
    out = [1]
    for _ in range(k):
        out = z_mul(out, a)
    return out


def _zz_prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(da-db+1) * a mod b in Z[x1][x2]."""
    da, db = len(a) - 1, len(b) - 1
    d = b[-1]
    r = list(a)
    for j in range(da - db, -1, -1):
        if len(r) - 1 == db + j:
            top = r[-1]
            r = [z_mul(d, c) for c in r[:-1]]
            for i, bc in enumerate(b[:-1]):
                r[j + i] = z_sub(r[j + i], z_mul(top, bc))
            _q_trim(r)
        else:
            r = [z_mul(d, c) for c in r]
    return _q_trim(r)


def z_resultant(a: list, b: list) -> list:
    """Res_{x2}(a, b) in Z[x1], for a, b in Z[x1][x2], by the subresultant
    PRS with the classical g*h^delta normalization; every division is
    exact over Z."""
    if not a or not b:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        return [1]
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da % 2 == 1 and db % 2 == 1:
            sign = -1
    if db == 0:
        return [sign * c for c in z_pow(b[0], da)]
    g_ = [1]
    h_ = [1]
    while True:
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _zz_prem(a, b)
        if not r:
            return []  # nonconstant common factor
        divisor = z_mul(g_, z_pow(h_, delta))
        a, da = b, db
        b = [z_exact_div(c, divisor) for c in r]
        db = len(b) - 1
        g_ = a[-1]
        if delta == 1:
            h_ = g_
        elif delta > 1:
            h_ = z_exact_div(z_pow(g_, delta), z_pow(h_, delta - 1))
        if db == 0:
            break
    c = b[0]
    if da != 1:
        c = z_exact_div(z_pow(c, da), z_pow(h_, da - 1))
    return [sign * x for x in c]


def z_squarefree(a: list) -> tuple:
    """(q, lead) with a = q * G for G = z_gcd(a, a') and lead = lc(G)."""
    if len(a) <= 1:
        return list(a), 1
    g = z_gcd(a, q_derive(a))
    return z_exact_div(a, g), g[-1]


def dense_det(rows: list) -> Fraction:
    """Determinant of a square matrix of rationals by fraction-free
    (Bareiss) elimination.

    Rows are scaled to integers first so the elimination runs in pure
    integer arithmetic; the scale comes back out at the end.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    scale = 1
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        L = 1
        for x in row:
            L = L * x.denominator // math.gcd(L, x.denominator)
        scale *= L
        m.append([int(x * L) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)


# -- rational substitution ----------------------------------------------------


def substitute_rational(p: Poly, nums, den: Poly):
    """p(nums/den) written over a single denominator: returns (q, k) with
    p(nums/den) = q / den**k and k = max(deg p, 0).

    q is the homogenization of p in one extra variable h, each term
    c*x^m becoming c*x^m*h^(k - deg m), with nums substituted for x and
    den for h.
    """
    k = p.degree() or 0
    h = p.varcount
    hom = {}
    for m, c in p.terms.items():
        pad = k - mono_degree(m)
        hom[m + ((h, pad),) if pad else m] = c
    return Poly(h + 1, hom).substitute(list(nums) + [den]), k
