"""Poly.eval_at computes in the ring of its point.

Int points give ints and Fraction points exact Fractions, in agreement
with tests/oracles.py's FractionPoly.  Any element with + - * works: a
toy Q[z]/(r) element runs through Poly.eval_at and PolyMap.eval_at
unchanged.  And no evaluation made by the CLI's reduce, symmetrize and
verify-cert runs returns a float, the one hazard of a ring-generic
evaluator (an int divided by an int).
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionPoly, _q_rem, from_terms, q_coeffs
from polyred import cli
from polyred.certs import RationalMap
from polyred.maps import PolyMap
from polyred.poly import Poly
from polyred.ratpoint import RationalPoint

ints = st.integers(-9, 9)
fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
coeffs = st.one_of(ints, fractions)


def polys(varcount, max_terms=5, max_exp=3):
    exps = st.lists(st.integers(0, max_exp), min_size=varcount, max_size=varcount)
    return st.dictionaries(exps.map(tuple), coeffs, max_size=max_terms).map(
        lambda d: from_terms(varcount, d))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_at_matches_fraction_only_poly_at_int_fraction_and_mixed_points(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n))
    for coords in (ints, fractions, coeffs):
        point = data.draw(st.lists(coords, min_size=n, max_size=n))
        value = p.eval_at(point)
        assert value == FractionPoly.of(p).eval_at(point)
        assert type(value) is not float
        if all(type(c) is int for c in point + list(p.terms.values())):
            assert type(value) is int


# -- a toy ring: Q[z]/(r), r = z^3 - z - 1 ------------------------------------

R = [-1, -1, 0, 1]  # ascending coefficients of r


class QzMod:
    """a0 + a1 z + a2 z^2 in Q[z]/(z^3 - z - 1), reduced by z^3 = z + 1."""

    def __init__(self, coeffs):
        c = [Fraction(a) for a in coeffs]
        for k in range(len(c) - 1, 2, -1):  # z^k = z^(k-2) + z^(k-3)
            top = c.pop()
            c[k - 2] += top
            c[k - 3] += top
        self.c = tuple(c + [Fraction(0)] * (3 - len(c)))

    @staticmethod
    def lift(x):
        return x if isinstance(x, QzMod) else QzMod([x])

    def __add__(self, other):
        other = QzMod.lift(other)
        return QzMod([a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __neg__(self):
        return QzMod([-a for a in self.c])

    def __sub__(self, other):
        return self + -QzMod.lift(other)

    def __rsub__(self, other):
        return QzMod.lift(other) - self

    def __mul__(self, other):
        other = QzMod.lift(other)
        out = [Fraction(0)] * 5
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return QzMod(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = QzMod([1])
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        return self.c == QzMod.lift(other).c

    __hash__ = None


def reduced_by_substitution(p: Poly, coords) -> QzMod:
    """p at the point, by substituting each coordinate as a polynomial in
    z (one variable) and taking the remainder mod r."""
    images = [from_terms(1, {(i,): a for i, a in enumerate(x.c)}) for x in coords]
    return QzMod(_q_rem(q_coeffs(p.substitute(images)), R))


qz = st.lists(coeffs, min_size=3, max_size=3).map(QzMod)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eval_at_in_a_number_field_agrees_with_substitution_mod_r(data):
    n = data.draw(st.integers(1, 3))
    f = PolyMap([data.draw(polys(n)) for _ in range(data.draw(st.integers(1, 3)))])
    point = data.draw(st.lists(qz, min_size=n, max_size=n))
    values = f.eval_at(point)
    assert values == [reduced_by_substitution(p, point) for p in f.components]
    assert values == [p.eval_at(point) for p in f.components]


def test_toy_ring_reduces_by_r():
    z = QzMod([0, 1])
    assert z ** 3 == z + 1
    assert z ** 3 - z - 1 == 0
    x = Poly.variable(1, 0)
    assert (x ** 3 - x).eval_at([z]) == 1


# -- no float reaches the CLI's evaluations -----------------------------------


def test_rational_map_divides_ints_exactly():
    x = Poly.variable(1, 0)
    r = RationalMap([x * x + x, Poly.const(1, 1), Poly(1)], x.scale(2))
    values = r.eval_at([3])
    assert values == [2, Fraction(1, 6), 0]
    assert list(map(type, values)) == [int, Fraction, int]
    assert r.eval_at([0]) is None


def test_cli_evaluations_return_no_float(tmp_path, monkeypatch):
    """RationalPoint.value, where every evaluation at a point of ints and
    Fractions goes, and RationalMap.eval_at are wrapped while reduce and
    symmetrize write certificates and verify-cert replays them with fiber
    transport; plane-quad keeps the origin, random-d4-n3 is recentred, and
    the inverse of cube-x's symmetrization is a RationalMap."""
    floats = []
    calls = {"point": 0, "rational": 0}
    point_value, rational_eval = RationalPoint.value, RationalMap.eval_at

    def guarded_point(self, p):
        value = point_value(self, p)
        calls["point"] += 1
        if type(value) is float:
            floats.append(("RationalPoint", (self.nums, self.den), value))
        return value

    def guarded_rational(self, point):
        values = rational_eval(self, point)
        calls["rational"] += 1
        if values is not None and float in map(type, values):
            floats.append(("RationalMap", point, values))
        return values

    monkeypatch.setattr(RationalPoint, "value", guarded_point)
    monkeypatch.setattr(RationalMap, "eval_at", guarded_rational)
    cert, out = str(tmp_path / "cert.json"), str(tmp_path / "out.map")
    runs = [["reduce", eid, "--to", "yagzhev", "--cert", cert, "--out", out]
            for eid in ("plane-quad", "random-d4-n3")]
    runs.append(["symmetrize", "cube-x", "--cert", cert, "--out", out])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv
            assert cli.main(["verify-cert", cert, "--fiber-samples", "2"]) == 0, argv
        assert not floats, (argv, floats[:3])
    assert calls["point"] and calls["rational"]
