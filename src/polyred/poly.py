"""Sparse multivariate polynomials over the rationals.

Coefficients are `fractions.Fraction` (always in lowest terms, positive
denominator).  A monomial is a tuple of (variable_index, exponent) pairs,
sorted by index, with every exponent positive; the empty tuple is the
constant monomial.  Variable identity is positional: a polynomial knows
only its ambient variable count, never variable names.

Term order, where one is needed, is graded lexicographic: higher total
degree first, ties broken by the exponent vector read left to right
(larger exponent at the smallest differing index wins).  The zero
polynomial has degree None.
"""

from __future__ import annotations

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


def GRLEX_KEY(m: Mono):
    """Sort key for graded lex order: the larger key is the larger
    monomial.  Degree comes first; then the pairs are read left to right,
    and a smaller variable index or a larger exponent wins."""
    return sum([e for _, e in m]), [(-v, e) for v, e in m]


def mono_from_dense(exps: Sequence[int]) -> Mono:
    return tuple((i, e) for i, e in enumerate(exps) if e)


def mono_to_dense(m: Mono, varcount: int) -> tuple:
    out = [0] * varcount
    for v, e in m:
        out[v] = e
    return tuple(out)


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
        c = Fraction(c)
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
            p = Poly(varcount, {((index, 1),): Fraction(1)})
            _VARIABLES[key] = p
        return p

    @staticmethod
    def from_terms(varcount: int, dense_terms: dict) -> "Poly":
        """Build from {dense exponent tuple: coefficient}; zeros are dropped."""
        terms = {}
        for exps, c in dense_terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(exps) != varcount:
                raise ValueError("exponent tuple length does not match variable count")
            m = mono_from_dense(exps)
            terms[m] = terms.get(m, Fraction(0)) + c
        return Poly(varcount, {m: c for m, c in terms.items() if c != 0})

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

    def constant_term(self) -> Fraction:
        return self.terms.get(ZERO_MONO, Fraction(0))

    def coefficient(self, dense_exps: Sequence[int]) -> Fraction:
        return self.terms.get(mono_from_dense(dense_exps), Fraction(0))

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def variables_used(self) -> set:
        used = set()
        for m in self.terms:
            for v, _ in m:
                used.add(v)
        return used

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
                else:
                    out[m] = s
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
        return Poly(self.varcount, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly(self.varcount)
        return Poly(self.varcount, {m: c * v for m, v in self.terms.items()})

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
        return Poly(self.varcount, out)

    def homogeneous_components(self) -> dict:
        """{degree: homogeneous part}; no zero parts, empty for zero."""
        parts: dict = {}
        for m, c in self.terms.items():
            d = mono_degree(m)
            parts.setdefault(d, {})[m] = c
        return {d: Poly(self.varcount, t) for d, t in sorted(parts.items())}

    def homogeneous_part(self, d: int) -> "Poly":
        out = {m: c for m, c in self.terms.items() if mono_degree(m) == d}
        return Poly(self.varcount, out)

    def eval_at(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.varcount:
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        powers: dict = {}
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                key = (var, e)
                p = powers.get(key)
                if p is None:
                    # only the coordinates a monomial uses are converted
                    p = Fraction(point[var]) ** e
                    powers[key] = p
                v = v * p
            total += v
        return total

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute images[i] for variable i.  All images must share a
        variable count, which becomes the result's.

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
        for g in images:
            if g.varcount != target:
                raise ValueError("images disagree on variable count")
        out: dict = {}
        powers: dict = {}
        for m, c in self.terms.items():
            piece = None
            for var, e in m:
                key = (var, e)
                p = powers.get(key)
                if p is None:
                    p = images[var] ** e
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
        return Poly(target, out)

    def exact_divide(self, divisor: "Poly") -> "Poly":
        """Quotient self / divisor when the division is exact.

        Raises ExactDivisionError when any step fails or a remainder is
        left, ZeroDivisionError for a zero divisor.
        """
        if divisor.varcount != self.varcount:
            raise ValueError("variable count mismatch in exact_divide")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly(self.varcount)
        if len(divisor.terms) == 1:
            ((dm, dc),) = divisor.terms.items()
            out = {}
            for m, c in self.terms.items():
                if not mono_divides(dm, m):
                    raise ExactDivisionError("a term is not divisible by the divisor")
                out[mono_div(m, dm)] = c / dc
            return Poly(self.varcount, out)
        lead_m, lead_c = divisor.leading_term()
        rem = self
        quot = Poly(self.varcount)
        while not rem.is_zero():
            rm, rc = rem.leading_term()
            if not mono_divides(lead_m, rm):
                raise ExactDivisionError("leading term not divisible; division is not exact")
            t = Poly(self.varcount, {mono_div(rm, lead_m): rc / lead_c})
            quot = quot + t
            rem = rem - t * divisor
        return quot

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
        L = 1
        for c in self.terms.values():
            L = L * c.denominator // math.gcd(L, c.denominator)
        items = [(m, c.numerator * (L // c.denominator)) for m, c in self.terms.items()]
        return L, items

    def __repr__(self) -> str:
        return f"Poly(vars={self.varcount}, terms={len(self.terms)}, deg={self.degree()})"


def linear_cube(form: Poly) -> Poly:
    """form**3 for a linear form a_1 x_1 + ... + a_k x_k, expanded
    directly: the term x_i x_j x_l (i <= j <= l) gets a_i a_j a_l times
    1, 3 or 6 as the indices coincide, so no coefficient can cancel.
    The products are taken on integer numerators over the form's common
    denominator D, and each term becomes one Fraction over D**3.  Each
    variable's (var, 1) pair is the form's own and its (var, 2) pair is
    built once, so the cube's monomials share them.  Raises ValueError
    when form is not a linear form.
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
    den3 = den ** 3
    out: dict = {}
    k = len(items)
    for i in range(k):
        ai = nums[i]
        ai2 = ai * ai
        out[((ones[i][0], 3),)] = Fraction(ai2 * ai, den3)
        for j in range(i + 1, k):
            aj = nums[j]
            out[(twos[i], ones[j])] = Fraction(3 * ai2 * aj, den3)
            out[(ones[i], twos[j])] = Fraction(3 * ai * aj * aj, den3)
            aij = 6 * ai * aj
            for l in range(j + 1, k):
                out[(ones[i], ones[j], ones[l])] = Fraction(aij * nums[l], den3)
    return Poly(form.varcount, out)


def eval_scaled_int(int_terms: list, nums: Sequence[int], den: int, deg: int) -> int:
    """Evaluate Σ c·x^e at x_i = nums[i]/den, scaled by den**deg.

    `int_terms` is the [(mono, int coeff)] list from
    content_and_integer_terms; `deg` must be at least the degree of every
    monomial.  Pure integer arithmetic; the caller untangles the scaling.
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
