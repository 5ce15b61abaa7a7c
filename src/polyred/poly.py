"""Sparse multivariate polynomials over the rationals.

A coefficient is an `int` when integral and a `fractions.Fraction` (lowest
terms, denominator > 1) otherwise; `numerator`, `denominator`, `str`, `==`
and hashing agree across the two.  Coefficient division goes through qdiv,
so no float can appear.  Evaluation computes in the ring of the point:
int points give ints, and any element with + - * works.  Within
polyred, a point of ints and Fractions is evaluated in integers instead,
by polyred.ratpoint.RationalPoint: its coordinates become numerators
over one denominator, and the value comes back under the coefficient
rule; polyred.ratpoint.evaluator chooses between the two once per point,
from its coordinates' types, so eval_at serves only points in other
rings.  A monomial is a
tuple of (variable_index, exponent) pairs, sorted by index, with every
exponent positive; the empty tuple is the constant monomial.  Variable
identity is positional: a polynomial knows only its ambient variable
count, never variable names.

Term order, where one is needed, is graded lexicographic: higher total
degree first, ties broken by the exponent vector read left to right
(larger exponent at the smallest differing index wins).  The zero
polynomial has degree None.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Sequence

Mono = tuple  # tuple[tuple[int, int], ...], sorted by variable index

ZERO_MONO: Mono = ()


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted exponent lists, adding exponents on shared indices."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append((va, ea))
            i += 1
        else:
            out.append((vb, eb))
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a | b componentwise."""
    exps = dict(b)
    return all(exps.get(v, 0) >= e for v, e in a)


def mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming divisibility."""
    exps = dict(b)
    for v, e in a:
        r = exps[v] - e
        if r < 0:
            raise ArithmeticError("monomial division is not exact")
        if r == 0:
            del exps[v]
        else:
            exps[v] = r
    return tuple(sorted(exps.items()))


def mono_gcd(a: Mono, b: Mono) -> Mono:
    """Componentwise minimum of exponents."""
    exps = dict(a)
    out = []
    for v, e in b:
        r = min(exps.get(v, 0), e)
        if r:
            out.append((v, r))
    return tuple(out)


def mono_exponent(m: Mono, var: int) -> int:
    for v, e in m:
        if v == var:
            return e
    return 0


def GRLEX_KEY(m: Mono) -> tuple:
    """Graded lex sort key, larger for the larger monomial: the flat tuple
    (degree, -v1, e1, -v2, e2, ...).  At equal degree no key is a proper
    prefix of another, so the pairs compare as pairs."""
    deg = 0
    flat = []
    for v, e in m:
        deg += e
        flat += (-v, e)
    return (deg, *flat)


def _heap_key(m: Mono) -> tuple:
    """Reverse of GRLEX_KEY, for a min-heap that pops the largest monomial."""
    return tuple([-x for x in GRLEX_KEY(m)])


def as_coeff(c):
    """c, or anything Fraction accepts, as a stored coefficient."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def qdiv(a, b):
    """a / b as a stored coefficient; int / int would give a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_coeff(a / b)


def _settled(terms: dict) -> dict:
    """terms, with each integral Fraction replaced by its int in place."""
    if Fraction in map(type, terms.values()):
        for m, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[m] = c.numerator
    return terms


class ExactDivisionError(ArithmeticError):
    """Raised when a requested exact polynomial division leaves a remainder."""


# Variable polynomials are requested constantly and never mutated, so one
# instance per (varcount, index) is shared.
_VARIABLES: dict = {}


class Poly:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("varcount", "terms")

    def __init__(self, varcount: int, terms: dict | None = None):
        self.varcount = varcount
        self.terms: dict = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(varcount: int) -> "Poly":
        return Poly(varcount)

    @staticmethod
    def const(varcount: int, c) -> "Poly":
        c = as_coeff(c)
        if c == 0:
            return Poly(varcount)
        return Poly(varcount, {ZERO_MONO: c})

    @staticmethod
    def variable(varcount: int, index: int) -> "Poly":
        if not 0 <= index < varcount:
            raise IndexError(f"variable index {index} out of range for {varcount} variables")
        key = (varcount, index)
        p = _VARIABLES.get(key)
        if p is None:
            p = Poly(varcount, {((index, 1),): 1})
            _VARIABLES[key] = p
        return p

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def degree_in(self, var: int) -> int:
        """Largest exponent of one variable; 0 for the zero polynomial too."""
        d = 0
        for m in self.terms:
            e = mono_exponent(m, var)
            if e > d:
                d = e
        return d

    def is_constant(self) -> bool:
        return all(m == ZERO_MONO for m in self.terms)

    def constant_term(self):
        return self.terms.get(ZERO_MONO, 0)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def variables_used(self) -> set:
        used = set()
        for m in self.terms:
            for v, _ in m:
                used.add(v)
        return used

    def top_index(self) -> int:
        """The highest variable index any term reads, -1 for a constant:
        the last pair of each sorted monomial names its highest index."""
        return max((m[-1][0] for m in self.terms if m), default=-1)

    def sorted_terms(self) -> list:
        """Terms as (monomial, coefficient), graded lex descending."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=GRLEX_KEY, reverse=True)]

    def leading_term(self):
        """Graded-lex leading (monomial, coefficient); None for zero."""
        if not self.terms:
            return None
        m = max(self.terms, key=GRLEX_KEY)
        return m, self.terms[m]

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if self.varcount != other.varcount:
            return False
        return self.terms is other.terms or self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "Poly":
        return Poly(self.varcount, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if self.varcount != other.varcount:
            raise ValueError("variable count mismatch in +")
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s == 0:
                    del out[m]
                elif type(s) is int or s.denominator != 1:
                    out[m] = s
                else:
                    out[m] = s.numerator
        return Poly(self.varcount, out)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.varcount != other.varcount:
            raise ValueError("variable count mismatch in *")
        if not self.terms or not other.terms:
            return Poly(self.varcount)
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
        return Poly(self.varcount, _settled(out))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = as_coeff(c)
        if c == 0:
            return Poly(self.varcount)
        return Poly(self.varcount, _settled({m: c * v for m, v in self.terms.items()}))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return Poly.const(self.varcount, 1)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.varcount, other)

    # -- calculus and structure -----------------------------------------

    def derive(self, var: int) -> "Poly":
        """Partial derivative with respect to one variable."""
        out = {}
        for m, c in self.terms.items():
            e = mono_exponent(m, var)
            if e == 0:
                continue
            out[mono_div(m, ((var, 1),))] = c * e
        return Poly(self.varcount, _settled(out))

    def eval_at(self, point: Sequence):
        """The value at a point, computed in the ring of its coordinates.

        Integer points give ints and Fraction points exact Fractions;
        any element with + - * works (a float point gives a float).
        """
        if len(point) != self.varcount:
            raise ValueError("point length does not match variable count")
        total = 0
        powers: dict = {}
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                key = (var, e)
                p = powers.get(key)
                if p is None:
                    p = point[var] ** e
                    powers[key] = p
                v = v * p
            total += v
        return total

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute images[i] for variable i.  The result has the
        variable count of images[0], and every image a term reads must
        have it too; an image that no term reads is not checked.

        One loop serves every kind of image: each power images[var]**e is
        computed once, each term's product of powers is scaled by the
        term's coefficient and added straight into the result, and sums
        that cancel are dropped.  A term stops at the first power it
        uses that is zero, and adds nothing.
        """
        if len(images) != self.varcount:
            raise ValueError("need one image per variable")
        if not images:
            return Poly(0, dict(self.terms))
        target = images[0].varcount
        out: dict = {}
        powers: dict = {}
        for m, c in self.terms.items():
            piece = None
            for var, e in m:
                key = (var, e)
                p = powers.get(key)
                if p is None:
                    g = images[var]
                    if g.varcount != target:
                        raise ValueError("images disagree on variable count")
                    p = g ** e
                    powers[key] = p
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
        return Poly(target, _settled(out))

    def exact_divide(self, divisor: "Poly") -> "Poly":
        """Quotient self / divisor when the division is exact.

        A one-term divisor divides term by term, and the constant 1
        returns self.  A longer divisor runs sparse long division in one
        pass (Johnson 1974): the remainder is one mutable dict, and a
        heap of its monomials, keyed by the reverse of GRLEX_KEY, yields
        the leading monomial at each step, so no step rescans or copies
        the remainder.  Quotient terms come out in graded-lex descending
        order, which is their insertion order in the result.

        Raises ExactDivisionError at the first leading term the divisor's
        leading monomial does not divide, ZeroDivisionError for a zero
        divisor.
        """
        if divisor.varcount != self.varcount:
            raise ValueError("variable count mismatch in exact_divide")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly(self.varcount)
        if len(divisor.terms) == 1:
            ((dm, dc),) = divisor.terms.items()
            if not dm and dc == 1:
                return self
            out = {}
            for m, c in self.terms.items():
                if not mono_divides(dm, m):
                    raise ExactDivisionError("a term is not divisible by the divisor")
                out[mono_div(m, dm)] = qdiv(c, dc)
            return Poly(self.varcount, out)
        lead_m, lead_c = divisor.leading_term()
        rest = [(m, c) for m, c in divisor.terms.items() if m != lead_m]
        rem = dict(self.terms)
        heap = [(_heap_key(m), m) for m in rem]
        heapq.heapify(heap)
        quot = {}
        while rem:
            rm = heapq.heappop(heap)[1]
            rc = rem.pop(rm, None)
            if rc is None:
                continue  # cancelled, or a second entry for a monomial already done
            if not mono_divides(lead_m, rm):
                raise ExactDivisionError("leading term not divisible; division is not exact")
            qm = mono_div(rm, lead_m)
            qc = qdiv(rc, lead_c)
            quot[qm] = qc
            for dm, dc in rest:
                m = mono_mul(qm, dm)
                s = rem.get(m)
                if s is None:
                    rem[m] = -(qc * dc)
                    heapq.heappush(heap, (_heap_key(m), m))
                else:
                    s = s - qc * dc
                    if s == 0:
                        del rem[m]
                    else:
                        rem[m] = s
        return Poly(self.varcount, quot)

    def extend(self, new_varcount: int) -> "Poly":
        """Reinterpret in a larger ambient space (same variable indices).

        Shares the term storage: sparse monomials carry positions, so
        nothing about the data changes.  Safe because polynomials are
        never mutated after construction.
        """
        if new_varcount < self.varcount:
            raise ValueError("cannot shrink the ambient space")
        return Poly(new_varcount, self.terms)

    def content_and_integer_terms(self):
        """(L, [(mono, int_coeff)]): L is the lcm of coefficient denominators,
        so L * self has the given integer coefficients.  Fast-eval helper."""
        L = math.lcm(*[c.denominator for c in self.terms.values()])
        items = [(m, c.numerator * (L // c.denominator)) for m, c in self.terms.items()]
        return L, items

    def __repr__(self) -> str:
        return f"Poly(vars={self.varcount}, terms={len(self.terms)}, deg={self.degree()})"


def cube_numerators(form: Poly):
    """(D, terms) with form**3 = terms / D**3, for a linear form
    a_1 x_1 + ... + a_k x_k with common denominator D: the term
    x_i x_j x_l (i <= j <= l) gets the integer n_i n_j n_l, n = D a,
    times 1, 3 or 6 as the indices coincide, so no coefficient can cancel
    and none is zero.  The terms come in graded-lex descending order, the
    order textio.cubic_linear_text prints them in: x_i^3, then x_i^2 x_j
    for each j > i, then for each j > i, x_i x_j^2 followed by x_i x_j x_l
    for each l > j.  Each variable's (var, 1) pair is the form's own and
    its (var, 2) pair is built once, so the cube's monomials share them.
    Raises ValueError when form is not a linear form.
    """
    items = []
    den = 1
    for m, c in form.terms.items():
        if len(m) != 1 or m[0][1] != 1:
            raise ValueError("linear_cube expects a linear form")
        items.append((m[0], c))
        den = den * c.denominator // math.gcd(den, c.denominator)
    items.sort()
    ones = [pair for pair, _ in items]
    twos = [(pair[0], 2) for pair in ones]
    nums = [c.numerator * (den // c.denominator) for _, c in items]
    out: dict = {}
    k = len(items)
    for i in range(k):
        ai = nums[i]
        ai2 = ai * ai
        out[((ones[i][0], 3),)] = ai2 * ai
        for j in range(i + 1, k):
            out[(twos[i], ones[j])] = 3 * ai2 * nums[j]
        for j in range(i + 1, k):
            aj = nums[j]
            out[(ones[i], twos[j])] = 3 * ai * aj * aj
            aij = 6 * ai * aj
            for l in range(j + 1, k):
                out[(ones[i], ones[j], ones[l])] = aij * nums[l]
    return den, out


def linear_cube(form: Poly) -> Poly:
    """form**3 for a linear form, expanded directly: cube_numerators'
    integer terms, divided by D**3 unless D is 1."""
    den, out = cube_numerators(form)
    if den != 1:
        den3 = den ** 3
        for m, c in out.items():
            out[m] = qdiv(c, den3)
    return Poly(form.varcount, out)
