"""Evaluation at rational points, in integers over one denominator.

poly.Poly.eval_at computes in the ring of its point, which at a point of
Fractions means a Fraction product and sum, each reduced by a gcd, for
every term.  Here a point of ints and Fractions is written once as
integer numerators over one denominator (1 for a point of ints) and every
polynomial evaluated at it is summed in integers, with one division at
the end; Poly.eval_at is left to points in any other ring.  This module
is apart from poly.py because compiling a module from source at import,
where no bytecode cache is written, allocates memory in proportion to
its size, and the largest such allocation sets a process's peak resident
size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .poly import Poly, qdiv


_RATIONAL_KINDS = frozenset((int, Fraction))


class RationalPoint:
    """A rational point as integer numerators over one denominator D > 0,
    for evaluating many polynomials at it exactly, in integers.

    value(p) sums each degree's terms c * num**m in integers, with every
    power num_v**e built once per (v, e) and shared by every polynomial
    evaluated at this point.  Fraction coefficients are put over their
    common denominator L as they come (the sums so far are rescaled when
    a new denominator raises L).  The degrees are then combined by
    Horner in D, so one division by L * D**deg ends the evaluation, and
    the value follows the coefficient rule: an int when integral, else a
    Fraction.  nums is indexed by variable: a list, or a dict of the
    variables read.
    """

    __slots__ = ("nums", "den", "dim", "powers")

    def __init__(self, nums, den: int, dim: Optional[int] = None):
        self.nums = nums
        self.den = den
        self.dim = len(nums) if dim is None else dim
        self.powers: dict = {}

    @staticmethod
    def of(coords: Sequence, indices=None) -> Optional["RationalPoint"]:
        """coords, or only those at indices, over the lcm of their
        denominators; None unless they are ints and Fractions."""
        picked = coords if indices is None else [coords[i] for i in indices]
        if not set(map(type, picked)) <= _RATIONAL_KINDS:
            return None
        den = math.lcm(*[c.denominator for c in picked])
        nums = [c.numerator * (den // c.denominator) for c in picked]
        if indices is not None:
            nums = dict(zip(indices, nums))
        return RationalPoint(nums, den, len(coords))

    def value(self, p: Poly):
        if p.varcount != self.dim:
            raise ValueError("point length does not match variable count")
        nums, powers = self.nums, self.powers
        sums: dict = {}
        scale = 1  # L, the coefficients' common denominator so far
        for m, c in p.terms.items():
            if type(c) is not int:
                if scale % c.denominator:
                    k = c.denominator // math.gcd(scale, c.denominator)
                    scale *= k
                    for d in sums:
                        sums[d] *= k
                c = c.numerator * (scale // c.denominator)
            elif scale != 1:
                c *= scale
            d = 0
            for pair in m:
                pw = powers.get(pair)
                if pw is None:
                    pw = powers[pair] = nums[pair[0]] ** pair[1]
                c = c * pw
                d += pair[1]
            s = sums.get(d)
            sums[d] = c if s is None else s + c
        if not sums:
            return 0
        den = self.den
        top = max(sums)
        acc = 0
        for d in range(top + 1):
            acc = acc * den + sums.get(d, 0)
        return qdiv(acc, scale * den ** top)


def evaluator(point, indices=None):
    """p -> p(point), the route chosen once for the point.

    A RationalPoint, or a point whose coordinates (only those at indices,
    when given, which must cover every variable evaluated) are ints and
    Fractions, is evaluated in integers by RationalPoint.value; a point
    in any other ring by Poly.eval_at, in the ring of its coordinates.
    """
    if type(point) is not RationalPoint:
        at = RationalPoint.of(point, indices)
        if at is None:
            return lambda p: p.eval_at(point)
        point = at
    return point.value
