"""Elimination tools: resultants, squarefree parts, real root counting.

Everything runs in one dense integer kernel: a polynomial in Z[x1] is an
int list, one in Z[x1][x2] a list of those by x2-degree.

One subresultant algorithm, over Z[x1], ends every resultant.  After one
pseudo-remainder it follows Ducos ("Optimizations of the subresultant
algorithm", JPAA 145, 2000): Lazard's repeated squaring turns the top of
each block of the remainder sequence into its bottom without forming
lc^delta, and Ducos' reduction gives the next remainder from the last
two and that bottom by exact divisions, without the lc^(delta+1) scaling
of a pseudo-division.  Its remainders are those of the classical
g*h^delta loop, so it carries that loop's sign bookkeeping.  A prefix of
Euclidean steps comes first.  While the divisor leads with an integer
constant c, Res(P, Q) = (-1)^(mn) c^(m-k) Res(Q, P mod Q) (Collins,
J. ACM 14, 1967) replaces P by the remainder with its integer content
divided out, and the dropped scalars are kept as one fraction.  The
rotated rows of a plane fiber lead with constants, so their chain starts
without the content lc^(delta+1) of a pseudo-remainder.  `resultant` is
the kernel's entry point for two Polys in two variables: it clears
denominators with `z_rows`, calls `z_resultant` and divides the clearing
scale back out.  In tests/oracles.py the g*h^delta loop is the test
oracle of `z_resultant`, `_subresultant` alone is the route its prefix
is held against, and the Sylvester determinant is the independent route
for `resultant`.

`z_squarefree` and `z_count_real_roots` run a primitive remainder
sequence over Z, and `z_squarefree` first tries a certificate that needs
none: an input that is squarefree mod one fixed prime p, with p not
dividing its leading coefficient, is squarefree over Q.  It is the only
squarefree and real-root implementation: `squarefree_part` and
`count_real_roots` are its entry points for a univariate Poly.  The
Fraction remainder chain they replaced lives on as a test oracle in
tests/oracles.py, and so does the plain gcd route of `z_squarefree`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import ExactDivisionError, Poly, as_coeff


# -- resultants --------------------------------------------------------------
#
# The subresultant algorithm, on polynomials in Z[x1][x2] in the layout of
# the dense kernel below.


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(da-db+1) * a mod b."""
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


def _lazard(x: list, y: list, n: int) -> list:
    """x^n / y^(n-1) for n >= 1 by repeated squaring.

    Every intermediate x^k / y^(k-1), k <= n, is exact whenever the
    result is (Z[x1] is a UFD), so no power of x is ever formed whole.
    """
    a = 1 << (n.bit_length() - 1)
    c, n = x, n - a
    while a > 1:
        a >>= 1
        c = z_exact_div(z_mul(c, c), y)
        if n >= a:
            c = z_exact_div(z_mul(c, x), y)
            n -= a
    return c


def _ducos_step(P: list, Q: list, C: list, s: list) -> list:
    """prem(P, Q) / (lc(P) * s^(d-e)) for d = deg P > e = deg Q > 0,
    without the pseudo-division (Ducos 2000).

    C is Q's Lazard multiple lc(Q)^(d-e-1) * Q / s^(d-e-1), so that
    c = lc(C).  H_j = c*x^j mod C is c*x^j below degree e and is carried
    up one degree at a time from H_e = c*x^e - C; then c*P mod C is the
    sum of P_j * H_j, and the quotient is
    (lc(Q) * (x*H_(d-1) + D) - h*Q) / s with D = sum_(j<d) P_j H_j / lc(P)
    and h the x^e-coefficient of x*H_(d-1).  Every division is exact.
    """
    d, e = len(P) - 1, len(Q) - 1
    c, lq = C[-1], Q[-1]
    H = [[-v for v in x] for x in C[:-1]]
    D = [z_mul(P[j], c) for j in range(e)]
    for j in range(e, d):
        if j > e:
            h = H[-1]
            H = [z_sub(x, z_exact_div(z_mul(h, q), lq))
                 for x, q in zip([[]] + H[:-1], Q)]
        if P[j]:
            D = [z_add(x, z_mul(P[j], y)) for x, y in zip(D, H)]
    lp, h = P[-1], H[-1]
    out = [z_exact_div(z_sub(z_mul(lq, z_add(x, z_exact_div(y, lp))), z_mul(h, q)), s)
           for x, y, q in zip([[]] + H[:-1], D, Q)]
    return _q_trim(out)


def _subresultant(a: list, b: list) -> list:
    """Res(a, b) of two polynomials over Z[x1], sign included.

    The first step is the pseudo-remainder prem(a, b), with
    s = lc(b)^(deg a - deg b).  Then, while deg Q > 0, Lazard's power
    gives the bottom S_e of the current block from Q and s, and Ducos'
    step the next remainder from (P, Q, S_e).  Each remainder is the
    one the classical g*h^delta loop would divide out; like that loop,
    the remainders carry no sign, and the sign of the resultant flips
    on the first step and on each later step whose degrees are both odd.
    """
    if not a or not b:
        return []
    da, db = len(a) - 1, len(b) - 1
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da % 2 and db % 2:
            sign = -1
    if db == 0:
        r = [1]
        for _ in range(da):
            r = z_mul(r, b[0])
    else:
        if da % 2 and db % 2:
            sign = -sign
        s = [1]
        for _ in range(da - db):
            s = z_mul(s, b[-1])
        P, Q = b, _prem(a, b)
        while True:
            if not Q:
                return []  # nonconstant common factor
            dp, dq = len(P) - 1, len(Q) - 1
            if dp - dq == 1:
                C = Q
            else:
                t = _lazard(Q[-1], s, dp - dq - 1)
                C = [z_exact_div(z_mul(t, q), s) for q in Q]
            if dq == 0:
                r = C[0]
                break
            if dp % 2 and dq % 2:
                sign = -sign
            P, Q, s = C, _ducos_step(P, Q, C, s), C[-1]
    return r if sign > 0 else [-x for x in r]


def resultant(f: Poly, g: Poly, var: int) -> Poly:
    """Res_var(f, g) for two polynomials in two variables, sign included.

    The entry point onto `z_resultant` for Polys: each input is cleared
    of denominators by `z_rows`, and the scale L1^deg(g) * L2^deg(f)
    that clearing puts on the resultant is divided back out.  Equals the
    Sylvester determinant: 0 when either input is zero, 1 when both have
    degree 0 in `var`.  The result is a polynomial in the other variable.
    """
    if f.varcount != 2 or g.varcount != 2 or var not in (0, 1):
        raise ValueError("resultant takes two polynomials in two variables")
    if f.is_zero() or g.is_zero():
        return Poly(2)
    if var == 0:
        swap = [Poly.variable(2, 1), Poly.variable(2, 0)]
        f, g = f.substitute(swap), g.substitute(swap)
    L1, a = z_rows(f)
    L2, b = z_rows(g)
    scale = L1 ** (len(b) - 1) * L2 ** (len(a) - 1)
    return z_to_poly(z_resultant(a, b), 2, 1 - var, Fraction(1, scale))


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


# -- dense integer kernel ---------------------------------------------------
#
# A univariate polynomial over Z is a list of ints [c0, c1, ...] whose last
# entry is nonzero; [] is zero.  A polynomial in Z[x1][x2] is a list, by
# x2-degree, of such lists in x1, whose last entry is nonempty.  Plane
# fibers run here (attrs.py), and so does every univariate Poly through
# squarefree_part and count_real_roots and every bivariate pair through
# resultant; the tests hold the kernel against the Fraction oracles in
# tests/oracles.py.


def _q_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def q_derive(a: list) -> list:
    return [c * i for i, c in enumerate(a)][1:]


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
            terms[((var, e),) if e else ()] = as_coeff(factor * c)
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


def z_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _q_trim(out)


def _zz_rem(a: list, b: list) -> tuple:
    """(lam, lam * a mod b) for a, b in Z[x1][x2], lc(b) a constant c.

    The rule of `_z_rem` one level up: a step scales the remainder by
    |c| / gcd(c, content of its top row) only when that is not 1, so
    lam > 0 is the product of those factors and often 1.
    """
    c = b[-1][0]
    ac = abs(c)
    db = len(b) - 1
    lam = 1
    r = list(a)
    while len(r) > db:
        top = r.pop()
        g = math.gcd(ac, *top)
        m = ac // g
        if m != 1:
            r = [[m * x for x in row] for row in r]
            lam *= m
        t = [x // g for x in top] if c > 0 else [-(x // g) for x in top]
        k = len(r) - db
        for i, row in enumerate(b[:-1]):
            if row:
                r[k + i] = z_sub(r[k + i], z_mul(t, row))
        _q_trim(r)
    return lam, r


def z_resultant(a: list, b: list) -> list:
    """Res_{x2}(a, b) in Z[x1], for a, b in Z[x1][x2], sign included.

    The Euclidean prefix runs while the divisor Q of degree n leads with
    a constant c.  `_zz_rem` gives lam * (P mod Q) of degree k; with its
    integer content e divided out it is the next Q, and the step's
    scalar c^(m-k) (e / lam)^n, m = deg P, joins one fraction.  A zero
    remainder means a common factor; one of degree 0, R', gives R'^n in
    `_subresultant`.  A remainder with a nonconstant leading coefficient
    is dropped, and (P, Q) goes to `_subresultant`, whose first
    pseudo-remainder then divides by c.  The fraction goes back on by
    one exact division.
    """
    if not a or not b:
        return []
    sign = num = den = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -1
    while len(b) > 1 and len(b[-1]) == 1:
        lam, r = _zz_rem(a, b)
        if not r:
            return []
        if len(r) > 1 and len(r[-1]) > 1:
            break
        m, n = len(a) - 1, len(b) - 1
        e = math.gcd(*(math.gcd(*row) for row in r))
        if e != 1:
            r = [[x // e for x in row] for row in r]
        num *= b[-1][0] ** (m - len(r) + 1) * e ** n
        den *= lam ** n
        if m % 2 and n % 2:
            sign = -sign
        a, b = b, r
    res = _subresultant(a, b)
    g = math.gcd(num, den)
    num, den = sign * num // g, den // g
    if any(x % den for x in res):
        raise ExactDivisionError("resultant scalar does not divide out")
    return [num * (x // den) for x in res]


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


# the prime of the squarefree certificate: fixed, and far above the degree
# of any resultant polyred forms
_P = 2 ** 31 - 1


def _fp_coprime(a: list, b: list) -> bool:
    """True when gcd(a, b) = 1 in F_p[x] for p = _P; a, b are lists of
    residues, a nonconstant with a nonzero leading entry."""
    b = _q_trim(b)
    while b:
        if len(b) == 1:
            return True
        db = len(b) - 1
        inv = pow(b[-1], -1, _P)
        while len(a) > db:
            t = a[-1] * inv % _P
            k = len(a) - 1 - db
            for i in range(db):
                a[k + i] = (a[k + i] - t * b[i]) % _P
            a.pop()
            _q_trim(a)
        a, b = b, a
    return False


def z_squarefree(a: list) -> tuple:
    """(q, lead) with a = q * G for G = z_gcd(a, a') and lead = lc(G).

    q is exact over Z by Gauss's lemma, and q * lead is a divided by the
    monic gcd, which is what `squarefree_part` returns.  Most inputs are
    squarefree, and a cheap certificate proves it: when p does not divide
    lc(a) and gcd(a, a') = 1 mod p, a square factor s^2 of a would
    survive mod p as a square of the same degree, so G = 1 and the gcd
    over Z is skipped.
    """
    if len(a) <= 1:
        return list(a), 1
    if a[-1] % _P and _fp_coprime([c % _P for c in a],
                                  [c * i % _P for i, c in enumerate(a)][1:]):
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


# -- univariate Polys over Q, through the kernel ------------------------------


def _uni_ints(p: Poly) -> tuple:
    """(var, L, a) for a polynomial in at most one variable: L is the lcm
    of its coefficient denominators and a the int list of L * p in var."""
    used = p.variables_used()
    if len(used) > 1:
        raise ValueError("polynomial is not univariate")
    var = next(iter(used)) if used else 0
    L, items = p.content_and_integer_terms()
    a = [0] * (p.degree_in(var) + 1 if items else 0)
    for m, c in items:
        a[m[0][1] if m else 0] = c
    return var, L, a


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors collapsed: p / gcd(p, p') for the monic gcd.

    p must use at most one variable; a constant or zero p comes back as it is.
    """
    var, L, a = _uni_ints(p)
    if len(a) <= 1:
        return p
    q, lead = z_squarefree(a)
    return z_to_poly(q, p.varcount, var, Fraction(lead, L))


def count_real_roots(p: Poly) -> int:
    """Distinct real roots of a nonzero polynomial in at most one variable
    (no squarefree assumption; the Sturm chain collapses multiplicity)."""
    return z_count_real_roots(_uni_ints(p)[2])
