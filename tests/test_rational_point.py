"""Rational points are evaluated in integers, over one denominator.

polyred.ratpoint.evaluator sends a point of ints and Fractions to
RationalPoint.value, which writes the coordinates as integer numerators
over one denominator and returns each value under the coefficient rule
(an int when integral, else a Fraction).  PolyMap.eval_at, RationalMap.eval_at and
eval_jacobian_sparse go through it, and here they are held against
tests/oracles.py's FractionPoly at int, Fraction and mixed points.
Points of any other ring keep Poly.eval_at's loop, which nothing in
polyred reaches at a rational point.
"""

import contextlib
import io

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionPoly, from_terms
from polyred import cli
from polyred.certs import RationalMap
from polyred.examples import corpus
from polyred.maps import PolyMap, eval_jacobian_sparse, sparse_jacobian
from polyred.poly import Poly
from polyred.ratpoint import RationalPoint, evaluator
from test_eval_ring import QzMod

ints = st.integers(-9, 9)
fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
whole = st.builds(Fraction, st.integers(-9, 9))  # Fraction(k, 1)
coords = st.one_of(ints, fractions, whole)
coeffs = st.one_of(ints, fractions)


def polys(varcount, max_terms=5, max_exp=3):
    """Zero, constant and general polynomials, int and Fraction coefficients."""
    exps = st.lists(st.integers(0, max_exp), min_size=varcount, max_size=varcount)
    return st.dictionaries(exps.map(tuple), coeffs, max_size=max_terms).map(
        lambda d: from_terms(varcount, d))


def rational_points(n):
    """All Fractions, Fraction(k, 1) only, ints only, or a mix."""
    return st.one_of(st.lists(fractions, min_size=n, max_size=n),
                     st.lists(whole, min_size=n, max_size=n),
                     st.lists(ints, min_size=n, max_size=n),
                     st.lists(coords, min_size=n, max_size=n))


def _settled(value):
    """value under the coefficient rule: an int exactly when integral."""
    return type(value) is (int if value.denominator == 1 else Fraction)


def _oracle(p: Poly, point) -> Fraction:
    return FractionPoly.of(p).eval_at(point)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_polymap_eval_at_matches_fraction_poly(data):
    n = data.draw(st.integers(1, 3))
    f = PolyMap([data.draw(polys(n)) for _ in range(data.draw(st.integers(1, 4)))])
    point = data.draw(rational_points(n))
    values = f.eval_at(point)
    assert values == [_oracle(p, point) for p in f.components]
    assert all(map(_settled, values))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rational_map_eval_at_matches_fraction_poly(data):
    n = data.draw(st.integers(1, 3))
    den = data.draw(polys(n).filter(lambda p: not p.is_zero()))
    r = RationalMap([data.draw(polys(n)) for _ in range(data.draw(st.integers(1, 3)))], den)
    point = data.draw(rational_points(n))
    d = _oracle(den, point)
    values = r.eval_at(point)
    if d == 0:
        assert values is None
    else:
        assert values == [_oracle(p, point) / d for p in r.nums]
        assert all(map(_settled, values))


def test_rational_map_is_none_where_its_denominator_vanishes():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    r = RationalMap([x * y, Poly.const(2, 1)], x - Poly.const(2, Fraction(1, 2)))
    assert r.eval_at([Fraction(1, 2), Fraction(7, 3)]) is None
    assert r.eval_at([Fraction(3, 2), Fraction(7, 3)]) == [Fraction(7, 2), 1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_jacobian_at_numerators_over_a_denominator(data):
    """eval_jacobian_sparse at RationalPoint(nums, den), den not
    necessarily the lowest, agrees with the same point as Fractions and
    with FractionPoly's derivatives."""
    n = data.draw(st.integers(1, 3))
    f = PolyMap([data.draw(polys(n)) for _ in range(n)])
    nums = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    den = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6]))
    point = [Fraction(a, den) for a in nums]
    jac = sparse_jacobian(f)
    rows = eval_jacobian_sparse(jac, RationalPoint(nums, den))
    assert rows == eval_jacobian_sparse(jac, point)
    expect = []
    for entries in jac:
        row = {}
        for v, d in entries:
            value = FractionPoly.of(f.components[len(expect)]).derive(v).eval_at(point)
            if value:
                row[v] = value
        expect.append(row)
    assert rows == expect
    assert all(_settled(c) for row in rows for c in row.values())


def test_zero_and_constant_polynomials():
    point = [Fraction(1, 3), Fraction(-2, 5)]
    f = PolyMap([Poly(2), Poly.const(2, 4), Poly.const(2, Fraction(-3, 7))])
    assert f.eval_at(point) == [0, 4, Fraction(-3, 7)]
    assert list(map(type, f.eval_at(point))) == [int, int, Fraction]


def test_fraction_coefficients_over_several_denominators():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = ((x * y).scale(Fraction(1, 6)) + x.scale(Fraction(3, 4)) + y ** 3
         + Poly.const(2, Fraction(1, 10)))
    for point in ([Fraction(2, 3), Fraction(-5, 2)], [Fraction(4), 3], [Fraction(1, 9), 0]):
        assert PolyMap([p]).eval_at(point) == [_oracle(p, point)]


def test_powers_are_shared_by_every_polynomial_at_a_point():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    at = RationalPoint([1, -3], 2)
    assert at.value(x ** 2 * y) == Fraction(-3, 8)
    assert at.value(x ** 2 + y) == Fraction(-5, 4)
    assert sorted(at.powers) == [(0, 2), (1, 1)]


def test_indices_convert_only_the_coordinates_read():
    x, z = Poly.variable(3, 0), Poly.variable(3, 2)
    g = x * z + z.scale(Fraction(1, 2))
    point = [Fraction(1, 3), "unread", Fraction(5, 7)]
    assert evaluator(point, {0, 2})(g) == _oracle(g, [point[0], 0, point[2]])
    # ints only among the coordinates read: over the denominator 1
    at = RationalPoint.of([2, Fraction(1, 2), 3], {0, 2})
    assert (at.nums, at.den, at.dim) == ({0: 2, 2: 3}, 1, 3)
    assert evaluator([2, Fraction(1, 2), 3], {0, 2})(x * z) == 6


def test_other_ring_points_keep_the_ring_loop(monkeypatch):
    calls = []
    loop = Poly.eval_at

    def counted(self, point):
        calls.append(point)
        return loop(self, point)

    monkeypatch.setattr(Poly, "eval_at", counted)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    f = PolyMap([x * y + x, y ** 2])
    assert f.eval_at([2, 3]) == [8, 9] and not calls
    assert list(map(type, f.eval_at([2, 3]))) == [int, int]
    z = QzMod([0, 1])
    assert f.eval_at([z, Fraction(1, 2)]) == [z * Fraction(3, 2), Fraction(1, 4)]
    assert len(calls) == 2
    assert f.eval_at([Fraction(2), 3]) == [8, 9] and len(calls) == 2


def test_point_length_is_checked_on_both_routes():
    f = PolyMap([Poly.variable(2, 0)])
    z = QzMod([0, 1])
    for point in ([1], [1, 2, 3], [Fraction(1, 2)], [Fraction(1, 2), 1, 1],
                  [z], [z, 1, 1]):
        with pytest.raises(ValueError, match="point length"):
            f.eval_at(point)


def test_rational_points_never_reach_the_ring_loop(monkeypatch):
    """With Poly.eval_at refusing, reduce pinchuk --to yagzhev (its
    base-point Jacobian and f(x0) are at int points) and analyze on
    every corpus map still run: polyred evaluates no point of ints and
    Fractions through the ring loop."""
    def refuse(self, point):
        raise AssertionError(f"Poly.eval_at reached at {point!r}")

    monkeypatch.setattr(Poly, "eval_at", refuse)
    runs = [["reduce", "pinchuk", "--to", "yagzhev"]]
    runs += [["analyze", e.id] for e in corpus()]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv
