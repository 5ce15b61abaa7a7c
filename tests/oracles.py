"""Slow, independent reference routes that the fast code in src/ is tested against.

Nothing in polyred calls these.  Each one is the implementation a fast
path replaced, kept here so that a differential test can compare the
two on random inputs:

  * the Fraction remainder chain (gcd, squarefree part, Sturm count) of
    a univariate polynomial over Q, which elim.squarefree_part and
    elim.count_real_roots replaced with the integer kernel;
  * the Sylvester determinant route for elim.resultant;
  * the g*h^delta subresultant loop over Z[x1][x2], which elim.z_resultant
    replaced with Lazard's and Ducos' steps; elim._subresultant alone,
    the Ducos-only route, is what z_resultant's Euclidean prefix is held
    against;
  * the gcd route of elim.z_squarefree, which runs whenever its mod-p
    certificate does not settle the input;
  * a dense Bareiss determinant for linalg.sparse_det;
  * the fully homogenizing form of certs.substitute_rational;
  * the long division that rescans and copies the remainder at every
    step, which Poly.exact_divide replaced with a one-pass heap loop;
  * the term-by-term integer evaluation at one point, which
    maps.sample_poly_values replaced with column-wise evaluation of a
    block of points;
  * the parser that evaluated an expression with Poly arithmetic, which
    textio._ExprParser replaced with one that builds terms directly;
  * the Segre move by substitution and exact division, which
    certs.apply_move replaced with a monomial rewrite;
  * FractionPoly, the Poly whose every coefficient was a Fraction, which
    int-or-Fraction coefficients replaced, and the Poly helpers only the
    tests use (mono_to_dense, mono_from_dense, from_terms, coefficient,
    linear_part, homogeneous_components).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from polyred.elim import (_q_trim, poly_matrix_det, q_derive, uni_coeffs, z_exact_div,
                          z_gcd, z_mul, z_sub)
from polyred.poly import (ExactDivisionError, GRLEX_KEY, Poly, ZERO_MONO, as_coeff,
                          mono_degree, mono_div, mono_divides, mono_exponent, mono_mul, qdiv)
from polyred.textio import MAX_EXPONENT, MAX_NESTING, ParseError, _lex


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
        out[m[0][1] if m else 0] = Fraction(c)
    return out


def _q_rem(a: list, b: list) -> list:
    r = list(a)
    db = len(b) - 1
    inv = Fraction(1) / b[-1]
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
    return [Fraction(c) / lc for c in a]


def _q_divide(a: list, b: list) -> list:
    """Exact quotient of coefficient lists."""
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = list(a)
    db = len(b) - 1
    while _q_trim(r) and len(r) - 1 >= db:
        f = Fraction(r[-1]) / b[-1]
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


# -- exact division and integer evaluation ------------------------------------


def long_divide(a: Poly, b: Poly) -> "FractionPoly":
    """a / b by textbook long division (FractionPoly.exact_divide), when
    the division is exact."""
    return FractionPoly.of(a).exact_divide(FractionPoly.of(b))


def eval_scaled_int(int_terms: list, nums: Sequence[int], den: int, deg: int) -> int:
    """Evaluate sum c*x^e at x_i = nums[i]/den, scaled by den**deg.

    `int_terms` is the [(mono, int coeff)] list from
    Poly.content_and_integer_terms; `deg` must be at least the degree of
    every monomial.  Pure integer arithmetic, one point at a time.
    """
    total = 0
    powers: dict = {}
    den_pows = {0: 1}
    for m, c in int_terms:
        v = c
        d = 0
        for var, e in m:
            key = (var, e)
            p = powers.get(key)
            if p is None:
                p = nums[var] ** e
                powers[key] = p
            v *= p
            d += e
        pad = deg - d
        dp = den_pows.get(pad)
        if dp is None:
            dp = den ** pad
            den_pows[pad] = dp
        total += v * dp
    return total


# -- expression parsing by Poly arithmetic --------------------------------------


class PolyExprParser:
    """The grammar of textio._ExprParser evaluated with Poly arithmetic:
    every factor is a Poly, a term multiplies them left to right and an
    expression adds its terms with Poly +, one dict copy per term.

    expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ['^' int]
    atom := int ['/' int] | variable | '(' expr ')'
    """

    def __init__(self, toks: list, varmap: dict, lineno: int, line_len: int):
        self.toks = toks
        self.pos = 0
        self.varmap = varmap
        self.varcount = len(varmap)
        self.lineno = lineno
        self.end_col = line_len + 1
        self.depth = 0

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self):
        t = self._peek()
        if t is not None:
            self.pos += 1
        return t

    def _fail(self, message: str, tok=None):
        if tok is None:
            raise ParseError(message, self.lineno, self.end_col)
        raise ParseError(message, tok[2], tok[3])

    def parse(self) -> Poly:
        p = self._expr()
        left = self._peek()
        if left is not None:
            self._fail(f"unexpected token '{left[1]}'", left)
        return p

    def _expr(self) -> Poly:
        t = self._peek()
        negate = t is not None and t[0] == "-"
        if negate:
            self._take()
        p = self._term()
        if negate:
            p = -p
        while True:
            t = self._peek()
            if t is None or t[0] not in "+-":
                return p
            self._take()
            q = self._term()
            p = p + q if t[0] == "+" else p - q

    def _term(self) -> Poly:
        p = self._factor()
        while True:
            t = self._peek()
            if t is None or t[0] != "*":
                return p
            self._take()
            p = p * self._factor()

    def _factor(self) -> Poly:
        a = self._atom()
        t = self._peek()
        if t is None or t[0] != "^":
            return a
        self._take()
        e = self._peek()
        if e is not None and e[0] == "-":
            self._fail("negative exponents are not allowed", e)
        if e is None or e[0] != "int":
            self._fail("expected an integer exponent after '^'", e)
        self._take()
        # compare lengths first: int() refuses very long digit strings
        digits = e[1].lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self._fail(f"exponent exceeds {MAX_EXPONENT}", e)
        return a ** int(digits)

    def _literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # int() refuses more digits than sys.get_int_max_str_digits()
            self._fail(f"integer literal of {len(tok[1])} digits is too long", tok)

    def _atom(self) -> Poly:
        t = self._take()
        if t is None:
            self._fail("expected a value")
        if t[0] == "int":
            num = self._literal(t)
            nxt = self._peek()
            if nxt is not None and nxt[0] == "/":
                self._take()
                den = self._peek()
                if den is None or den[0] != "int":
                    self._fail("expected an integer denominator", den)
                self._take()
                d = self._literal(den)
                if d == 0:
                    self._fail("zero denominator", den)
                return Poly.const(self.varcount, qdiv(num, d))
            return Poly.const(self.varcount, num)
        if t[0] == "ident":
            idx = self.varmap.get(t[1])
            if idx is None:
                self._fail(f"undeclared variable '{t[1]}'", t)
            return Poly.variable(self.varcount, idx)
        if t[0] == "(":
            if self.depth == MAX_NESTING:
                self._fail(f"parentheses nest deeper than {MAX_NESTING}", t)
            self.depth += 1
            p = self._expr()
            self.depth -= 1
            close = self._take()
            if close is None or close[0] != ")":
                self._fail("expected ')'", close)
            return p
        self._fail(f"unexpected token '{t[1]}'", t)


def parse_by_poly_arithmetic(text: str, varmap: dict, lineno: int = 1) -> Poly:
    """The old parse_expression on a name -> index map; the variable count
    is len(varmap)."""
    return PolyExprParser(_lex(text, lineno), varmap, lineno, len(text)).parse()


# -- the Segre move by substitution ----------------------------------------------


def segre_by_division(f) -> list:
    """The components of apply_move(f, SegreExtend()) as the move first
    computed them: F_i(t x) by substitution, then exact division by t."""
    n = f.n_in
    t = Poly.variable(n + 1, n)
    scaled = [Poly.variable(n + 1, i) * t for i in range(n)]
    comps = [c.extend(n + 1).substitute(scaled + [t]).exact_divide(t) for c in f.components]
    return comps + [t]


# -- Fraction-only polynomials -------------------------------------------------


def mono_to_dense(m, varcount: int) -> tuple:
    out = [0] * varcount
    for v, e in m:
        out[v] = e
    return tuple(out)


def mono_from_dense(exps: Sequence[int]) -> tuple:
    return tuple((i, e) for i, e in enumerate(exps) if e)


def from_terms(varcount: int, dense_terms: dict) -> Poly:
    """A Poly from {dense exponent tuple: coefficient}; zeros are dropped."""
    terms = {}
    for exps, c in dense_terms.items():
        c = as_coeff(c)
        if c == 0:
            continue
        if len(exps) != varcount:
            raise ValueError("exponent tuple length does not match variable count")
        m = mono_from_dense(exps)
        terms[m] = terms.get(m, 0) + c
    return Poly(varcount, {m: as_coeff(c) for m, c in terms.items() if c != 0})


def coefficient(p: Poly, dense_exps: Sequence[int]):
    """The coefficient of one monomial, given by its dense exponents."""
    return p.terms.get(mono_from_dense(dense_exps), 0)


def unsettled_coefficients(p: Poly) -> list:
    """The coefficients of p that break the storage rule: anything but an
    int or a Fraction whose denominator is not 1 (a float, say)."""
    return [c for c in p.terms.values()
            if not (type(c) is int or type(c) is Fraction and c.denominator != 1)]


def linear_part(f) -> list:
    """The rows of f's degree-one part, as coefficient lists."""
    rows = [[0] * f.n_in for _ in f.components]
    for row, c in zip(rows, f.components):
        for m, coef in c.terms.items():
            if mono_degree(m) == 1:
                row[m[0][0]] = coef
    return rows


def homogeneous_components(p: Poly) -> dict:
    """{degree: homogeneous part of p}; no zero parts, empty for zero."""
    parts: dict = {}
    for m, c in p.terms.items():
        parts.setdefault(mono_degree(m), {})[m] = c
    return {d: Poly(p.varcount, t) for d, t in sorted(parts.items())}


class FractionPoly:
    """Poly as it was when every coefficient was a Fraction, integral or not.

    The loops are Poly's own, so on equal inputs the two agree term for
    term, insertion order included; exact_divide is long_divide's
    rescanning loop, which finds the quotient terms in the same order.
    """

    __slots__ = ("varcount", "terms")

    def __init__(self, varcount: int, terms: Optional[dict] = None):
        self.varcount = varcount
        self.terms = terms if terms is not None else {}

    @staticmethod
    def of(p: Poly) -> "FractionPoly":
        return FractionPoly(p.varcount, {m: Fraction(c) for m, c in p.terms.items()})

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s == 0:
                    del out[m]
                else:
                    out[m] = s
        return FractionPoly(self.varcount, out)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(self.varcount, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        if not self.terms or not other.terms:
            return FractionPoly(self.varcount)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                s = out.get(m)
                if s is None:
                    out[m] = ca * cb
                else:
                    s = s + ca * cb
                    if s == 0:
                        del out[m]
                    else:
                        out[m] = s
        return FractionPoly(self.varcount, out)

    def scale(self, c) -> "FractionPoly":
        c = Fraction(c)
        if c == 0:
            return FractionPoly(self.varcount)
        return FractionPoly(self.varcount, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "FractionPoly":
        if k == 0:
            return FractionPoly(self.varcount, {ZERO_MONO: Fraction(1)})
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def derive(self, var: int) -> "FractionPoly":
        out = {}
        for m, c in self.terms.items():
            e = mono_exponent(m, var)
            if e:
                out[mono_div(m, ((var, 1),))] = c * e
        return FractionPoly(self.varcount, out)

    def eval_at(self, point) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                v = v * Fraction(point[var]) ** e
            total += v
        return total

    def substitute(self, images: list) -> "FractionPoly":
        out: dict = {}
        for m, c in self.terms.items():
            piece = None
            for var, e in m:
                p = images[var] ** e
                if not p.terms:
                    break
                piece = p if piece is None else piece * p
            else:
                items = piece.terms.items() if piece is not None else ((ZERO_MONO, 1),)
                for pm, pc in items:
                    v = c * pc
                    s = out.get(pm)
                    if s is None:
                        out[pm] = v
                    else:
                        s = s + v
                        if s == 0:
                            del out[pm]
                        else:
                            out[pm] = s
        return FractionPoly(images[0].varcount, out)

    def exact_divide(self, divisor: "FractionPoly") -> "FractionPoly":
        """Each step takes the remainder's leading term by a scan, then
        forms rem - t*divisor as a new polynomial.  Raises
        ExactDivisionError at the first leading term that the divisor's
        leading monomial does not divide, ZeroDivisionError for a zero
        divisor."""
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        lead_m = max(divisor.terms, key=GRLEX_KEY)
        lead_c = divisor.terms[lead_m]
        rem = self
        quot = FractionPoly(self.varcount)
        while rem.terms:
            rm = max(rem.terms, key=GRLEX_KEY)
            if not mono_divides(lead_m, rm):
                raise ExactDivisionError("leading term not divisible; division is not exact")
            t = FractionPoly(self.varcount, {mono_div(rm, lead_m): rem.terms[rm] / lead_c})
            quot = quot + t
            rem = rem - t * divisor
        return quot
