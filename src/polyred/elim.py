"""Elimination tools: resultants, squarefree parts, real root counting.

A polynomial is viewed as univariate in one distinguished variable with
coefficients in the remaining ones.  Coefficient lists keep the ambient
variable count of the input, with the distinguished variable unused, so
no index shifting happens anywhere.

`resultant` runs the subresultant polynomial remainder sequence with the
classical g*h^delta normalization.  That normalization is not optional:
the naive pseudo-remainder sequence grows junk factors exponentially and
is unusable beyond toy degrees, while the normalized divisions keep every
intermediate the size of an actual subresultant.  `sylvester_resultant`
computes the same thing as a fraction-free determinant; it is the slow
reference route and the two are checked against each other in the tests.

The last section is a dense integer kernel for plane fibers: polynomials
in Z[x1] as int lists, in Z[x1][x2] as lists of those.  `z_resultant` is
the same g*h^delta loop with exact integer division, `z_squarefree` and
`z_count_real_roots` run a primitive remainder sequence over Z.  The
Fraction functions (`resultant`, `squarefree_part`, `count_real_roots`)
stay the generic path for any Poly and are the oracles the kernel is
tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .poly import ExactDivisionError, Poly


# -- univariate views ----------------------------------------------------


def uni_coeffs(p: Poly, var: int) -> list:
    """Coefficient list [c0, c1, ...] of p in the distinguished variable.

    Coefficients are Poly values in the same ambient space that do not
    use `var`.  The zero polynomial gives [].
    """
    if p.is_zero():
        return []
    d = p.degree_in(var)
    out = [Poly(p.varcount) for _ in range(d + 1)]
    for m, c in p.terms.items():
        e = 0
        rest = []
        for v, k in m:
            if v == var:
                e = k
            else:
                rest.append((v, k))
        out[e].terms[tuple(rest)] = out[e].terms.get(tuple(rest), Fraction(0)) + c
    return [Poly(p.varcount, {m: c for m, c in q.terms.items() if c != 0}) for q in out]


def uni_assemble(coeffs: list, var: int, varcount: int) -> Poly:
    out = Poly(varcount)
    xv = Poly.variable(varcount, var)
    for e, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + c * xv ** e
    return out


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _prem(a: list, b: list, varcount: int) -> list:
    """Pseudo-remainder of coefficient lists: lc(b)^(da-db+1) * a mod b."""
    da, db = len(a) - 1, len(b) - 1
    d = b[-1]
    r = list(a)
    for j in range(da - db, -1, -1):
        if len(r) - 1 == db + j:
            top = r[-1]
            r = [d * c for c in r[:-1]]
            for i, bc in enumerate(b[:-1]):
                r[j + i] = r[j + i] - top * bc
            _trim(r)
        else:
            r = [d * c for c in r]
    return _trim(r)


def resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Resultant of f and g with respect to one variable.

    Equals the determinant of the Sylvester matrix, sign included.
    Returns a polynomial in the same ambient space not using `var`.
    """
    if f.varcount != g.varcount:
        raise ValueError("variable count mismatch in resultant")
    n = f.varcount
    if f.is_zero() or g.is_zero():
        return Poly(n)
    a = uni_coeffs(f, var)
    b = uni_coeffs(g, var)
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        return Poly.const(n, 1)
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da % 2 == 1 and db % 2 == 1:
            sign = -1
    if db == 0:
        return (b[0] ** da).scale(sign)
    g_ = Poly.const(n, 1)
    h_ = Poly.const(n, 1)
    while True:
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _prem(a, b, n)
        if not r:
            return Poly(n)  # nonconstant common factor
        divisor = g_ * h_ ** delta
        a, da = b, db
        b = [c.exact_divide(divisor) for c in r]
        db = len(b) - 1
        g_ = a[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h_ = g_
        else:
            h_ = (g_ ** delta).exact_divide(h_ ** (delta - 1))
        if db == 0:
            break
    c = b[0]
    if da == 1:
        res = c
    else:
        res = (c ** da).exact_divide(h_ ** (da - 1))
    return res.scale(sign)


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


def poly_matrix_det(rows: list, varcount: int) -> Poly:
    """Fraction-free (Bareiss) determinant of a matrix of Polys."""
    n = len(rows)
    if n == 0:
        return Poly.const(varcount, 1)
    m = [list(r) for r in rows]
    sign = 1
    prev = Poly.const(varcount, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly(varcount)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_divide(prev)
            m[i][k] = Poly(varcount)
        prev = pivot
    return m[n - 1][n - 1].scale(sign)


def sylvester_resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Reference resultant: determinant of the Sylvester matrix.

    Exponentially slower than `resultant` on real inputs; kept as the
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


# -- multivariate gcd ------------------------------------------------------


def primitive_part(p: Poly) -> Poly:
    """p divided by its rational content, graded-lex leading coefficient > 0."""
    lt = p.leading_term()
    if lt is None:
        return p
    num = 0
    den = 1
    for c in p.terms.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    content = Fraction(num, den)
    if lt[1] < 0:
        content = -content
    return p.scale(1 / content)


def _list_gcd(coeffs: list) -> Poly:
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant() and not g.is_zero():
            break
        g = poly_gcd(g, c)
    return primitive_part(g)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Gcd in Q[x_1..x_n], primitive with positive leading coefficient.

    Primitive PRS: recurse on the content, pseudo-divide the primitive
    parts in the highest variable either side uses.  Not built for large
    inputs; the specialized paths all go through `resultant` instead.
    """
    if p.varcount != q.varcount:
        raise ValueError("variable count mismatch in gcd")
    n = p.varcount
    if p.is_zero():
        return primitive_part(q)
    if q.is_zero():
        return primitive_part(p)
    used = p.variables_used() | q.variables_used()
    if not used:
        return Poly.const(n, 1)
    var = max(used)
    a = uni_coeffs(p, var)
    b = uni_coeffs(q, var)
    cont_a, cont_b = _list_gcd(a), _list_gcd(b)
    cont = poly_gcd(cont_a, cont_b)
    if len(a) == 1 or len(b) == 1:
        return cont
    a = [c.exact_divide(cont_a) for c in a]
    b = [c.exact_divide(cont_b) for c in b]
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _prem(a, b, n)
        if not r:
            cg = _list_gcd(b)
            g = uni_assemble([c.exact_divide(cg) for c in b], var, n)
            break
        if len(r) == 1:
            return cont
        cr = _list_gcd(r)
        a, b = b, [c.exact_divide(cr) for c in r]
    return primitive_part(cont * g)


# -- genuinely univariate polynomials over Q ------------------------------
#
# Here a polynomial must use at most one variable; it is handled through
# its Fraction coefficient list.


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


def _q_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


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


def q_derive(a: list) -> list:
    return [c * i for i, c in enumerate(a)][1:]


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


# -- dense integer kernel ---------------------------------------------------
#
# A univariate polynomial over Z is a list of ints [c0, c1, ...] whose last
# entry is nonzero; [] is zero.  A polynomial in Z[x1][x2] is a list, by
# x2-degree, of such lists in x1, whose last entry is nonempty.  Only
# plane fibers run here (attrs.py); the Fraction functions above stay the
# generic path and are the oracles the tests hold this kernel against.
# _q_trim and q_derive serve int lists as they are.


def z_rows(p: Poly) -> tuple:
    """(L, rows) for p in x1, x2 (variables 0 and 1): L is the lcm of the
    coefficient denominators and rows[j] the int list in x1 of the
    x2^j-coefficient of L * p."""
    if p.varcount != 2:
        raise ValueError("z_rows takes a polynomial in two variables")
    L, items = p.content_and_integer_terms()
    rows: list = []
    for m, c in items:
        e1 = e2 = 0
        for v, e in m:
            if v == 0:
                e1 = e
            else:
                e2 = e
        while len(rows) <= e2:
            rows.append([])
        row = rows[e2]
        if len(row) <= e1:
            row.extend([0] * (e1 + 1 - len(row)))
        row[e1] = c
    return L, [_q_trim(r) for r in rows]


def z_to_poly(a: list, varcount: int, var: int, factor: Fraction) -> Poly:
    """factor * sum a[e] * x_var^e as a Poly."""
    terms = {}
    for e, c in enumerate(a):
        if c:
            terms[((var, e),) if e else ()] = factor * c
    return Poly(varcount, terms)


def z_sub(a: list, b: list) -> list:
    if len(a) < len(b):
        out = [-c for c in b]
        for i, c in enumerate(a):
            out[i] += c
    else:
        out = list(a)
        for i, c in enumerate(b):
            out[i] -= c
    return _q_trim(out)


def z_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        x = b[0]
        return [x * c for c in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                out[j] += x * y
    return out


def z_pow(a: list, k: int) -> list:
    out = [1]
    for _ in range(k):
        out = z_mul(out, a)
    return out


def z_exact_div(a: list, b: list) -> list:
    """Quotient a / b over Z; ExactDivisionError unless it is exact."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return []
    db = len(b) - 1
    n = len(a) - 1 - db
    if n < 0:
        raise ExactDivisionError("divisor has the larger degree")
    lb = b[-1]
    r = list(a)
    q = [0] * (n + 1)
    for k in range(n, -1, -1):
        t, rem = divmod(r[k + db], lb)
        if rem:
            raise ExactDivisionError("integer division is not exact")
        q[k] = t
        if t:
            for i in range(db):
                r[k + i] -= t * b[i]
    if any(r[:db]):
        raise ExactDivisionError("integer division leaves a remainder")
    return q


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
    """Res_{x2}(a, b) in Z[x1], for a, b in Z[x1][x2].

    The same g*h^delta subresultant PRS, sign bookkeeping included, as
    `resultant`; every division is exact over Z.
    """
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


def _z_primitive(a: list) -> list:
    """a divided by its positive content."""
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            return a
    return [c // g for c in a] if g else a


def _z_rem(a: list, b: list) -> list:
    """m * a mod b for some integer m > 0.

    Each step scales by |lc(b)| / gcd and never by a negative number, so
    the remainder keeps the sign of the true one: a Sturm chain needs
    that, the textbook lc(b)^(delta+1) does not give it.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    alb = abs(lb)
    while r and len(r) - 1 >= db:
        top = r[-1]
        g = math.gcd(top, alb)
        m = alb // g
        t = top // g if lb > 0 else -(top // g)
        k = len(r) - 1 - db
        if m != 1:
            r = [m * c for c in r]
        for i in range(db):
            r[k + i] -= t * b[i]
        r.pop()
        _q_trim(r)
    return r


def z_gcd(a: list, b: list) -> list:
    """Gcd of nonzero integer polynomials: primitive, leading coefficient > 0."""
    a, b = _z_primitive(a), _z_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _z_primitive(_z_rem(a, b))
    return a if a[-1] > 0 else [-c for c in a]


def z_squarefree(a: list) -> tuple:
    """(q, lead) with a = q * G for G = z_gcd(a, a') and lead = lc(G).

    q is exact over Z by Gauss's lemma, and q * lead is a divided by the
    monic gcd, which is what `squarefree_part` returns.
    """
    if len(a) <= 1:
        return list(a), 1
    g = z_gcd(a, q_derive(a))
    return z_exact_div(a, g), g[-1]


def z_count_real_roots(a: list) -> int:
    """Distinct real roots of a nonzero integer polynomial, from a Sturm
    chain over Z scaled and made primitive by positive factors only."""
    if not a:
        raise ValueError("Sturm chain of the zero polynomial")
    if len(a) <= 1:
        return 0
    p, q = _z_primitive(a), _z_primitive(q_derive(a))
    lcs = [(len(p) - 1, p[-1] > 0), (len(q) - 1, q[-1] > 0)]
    while True:
        r = _z_rem(p, q)
        if not r:
            break
        p, q = q, _z_primitive([-c for c in r])
        lcs.append((len(q) - 1, q[-1] > 0))
    pos = [s for _, s in lcs]
    neg = [s != (d % 2 == 1) for d, s in lcs]
    return (sum(1 for s, t in zip(neg, neg[1:]) if s != t)
            - sum(1 for s, t in zip(pos, pos[1:]) if s != t))
