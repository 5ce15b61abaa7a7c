import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyred.poly import (
    ExactDivisionError,
    GRLEX_KEY,
    Poly,
    ZERO_MONO,
    eval_scaled_int,
    linear_cube,
    mono_from_dense,
    mono_to_dense,
)


def grlex_cmp(a, b):
    """Graded lex comparison of two monomials, positive when a > b: the
    comparator GRLEX_KEY replaced, kept as its oracle."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            return 1  # a has a positive exponent at an earlier index
        if vb < va:
            return -1
        if ea != eb:
            return 1 if ea > eb else -1
        i += 1
        j += 1
    if i < len(a):
        return 1
    if j < len(b):
        return -1
    return 0


def substitute_oracle(p, images):
    """Poly.substitute's loop as it was before a term stopped at its
    first zero power: every power is multiplied in, zero ones included."""
    out = {}
    powers = {}
    for m, c in p.terms.items():
        piece = None
        for var, e in m:
            key = (var, e)
            q = powers.get(key)
            if q is None:
                q = images[var] ** e
                powers[key] = q
            piece = q if piece is None else piece * q
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
    return Poly(images[0].varcount, out)


def random_poly(rng, varcount, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * varcount
        for _ in range(rng.randrange(max_deg + 1)):
            exps[rng.randrange(varcount)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Poly.from_terms(varcount, terms)


def random_point(rng, varcount):
    return [Fraction(rng.randrange(-7, 8), rng.randrange(1, 4)) for _ in range(varcount)]


def test_constructors_and_queries():
    p = Poly.from_terms(2, {(2, 0): 1, (0, 1): -3, (0, 0): Fraction(1, 2)})
    assert p.degree() == 2
    assert p.degree_in(0) == 2
    assert p.degree_in(1) == 1
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == 0
    assert p.constant_term() == Fraction(1, 2)
    assert not p.is_zero()
    assert Poly.zero(3).is_zero()
    assert Poly.zero(3).degree() is None
    assert Poly.const(2, 5).degree() == 0
    assert Poly.variable(3, 1).degree_in(1) == 1


def test_zero_coefficients_are_dropped():
    p = Poly.from_terms(1, {(1,): 1})
    q = p - p
    assert q.is_zero()
    assert q.terms == {}
    assert Poly.from_terms(2, {(1, 1): 0}).is_zero()


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randrange(1, 4)
        a = random_poly(rng, n)
        b = random_poly(rng, n)
        c = random_poly(rng, n)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(n) == a
        assert a * Poly.const(n, 1) == a
        assert a - a == Poly.zero(n)


def test_degree_of_product():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 4)
        a = random_poly(rng, n)
        b = random_poly(rng, n)
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            # over a field there is no degree drop in products
            assert (a * b).degree() == a.degree() + b.degree()


def test_derive_leibniz_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 4)
        a = random_poly(rng, n)
        b = random_poly(rng, n)
        i = rng.randrange(n)
        assert (a * b).derive(i) == a.derive(i) * b + a * b.derive(i)
        assert (a + b).derive(i) == a.derive(i) + b.derive(i)


def test_derive_commutes():
    rng = random.Random(32)
    for _ in range(20):
        a = random_poly(rng, 3)
        assert a.derive(0).derive(2) == a.derive(2).derive(0)


def test_euler_identity_on_homogeneous_parts():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        for d, part in p.homogeneous_components().items():
            euler = Poly.zero(n)
            for i in range(n):
                euler = euler + Poly.variable(n, i) * part.derive(i)
            assert euler == part.scale(d)


def test_homogeneous_components_sum_back():
    rng = random.Random(34)
    for _ in range(30):
        p = random_poly(rng, 3)
        total = Poly.zero(3)
        for part in p.homogeneous_components().values():
            assert part.is_homogeneous()
            total = total + part
        assert total == p


def test_eval_is_ring_homomorphism():
    rng = random.Random(35)
    for _ in range(30):
        n = rng.randrange(1, 4)
        a = random_poly(rng, n)
        b = random_poly(rng, n)
        pt = random_point(rng, n)
        assert (a + b).eval_at(pt) == a.eval_at(pt) + b.eval_at(pt)
        assert (a * b).eval_at(pt) == a.eval_at(pt) * b.eval_at(pt)


def test_substitute_is_homomorphism():
    rng = random.Random(36)
    for _ in range(25):
        n = rng.randrange(1, 3)
        m = rng.randrange(1, 3)
        a = random_poly(rng, n, max_deg=3)
        b = random_poly(rng, n, max_deg=3)
        images = [random_poly(rng, m, max_deg=2, max_terms=3) for _ in range(n)]
        assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)
        assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)


def test_substitute_then_eval_equals_eval_of_substitution():
    rng = random.Random(37)
    for _ in range(25):
        n, m = 2, 3
        p = random_poly(rng, n, max_deg=3)
        images = [random_poly(rng, m, max_deg=2, max_terms=3) for _ in range(n)]
        pt = random_point(rng, m)
        inner = [g.eval_at(pt) for g in images]
        assert p.substitute(images).eval_at(pt) == p.eval_at(inner)


def test_substitute_identity():
    rng = random.Random(38)
    p = random_poly(rng, 3)
    ids = [Poly.variable(3, i) for i in range(3)]
    assert p.substitute(ids) == p


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def polys(varcount, min_terms=0, max_terms=4, max_exp=2):
    exps = st.lists(st.integers(0, max_exp), min_size=varcount, max_size=varcount)
    nonzero = fractions.filter(bool)
    return st.dictionaries(exps.map(tuple), nonzero, min_size=min_terms,
                           max_size=max_terms).map(lambda d: Poly.from_terms(varcount, d))


def images_of(varcount):
    """Zero, single-term and many-term images over `varcount` variables."""
    return st.one_of(st.just(Poly.zero(varcount)), polys(varcount, 1, 1),
                     polys(varcount, 2, 5))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitute_commutes_with_evaluation(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, max_terms=6, max_exp=3))
    images = data.draw(st.lists(images_of(m), min_size=n, max_size=n))
    pt = data.draw(st.lists(fractions, min_size=m, max_size=m))
    q = p.substitute(images)
    assert q.varcount == m
    assert q.eval_at(pt) == p.eval_at([g.eval_at(pt) for g in images])
    assert all(c != 0 for c in q.terms.values())


def linear_forms(varcount):
    """Sparse linear forms: zero, single-term or dense, with signed
    coefficients that are never zero and denominators that mix."""
    nonzero = st.builds(Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 30))
    return st.dictionaries(st.integers(0, varcount - 1), nonzero,
                           max_size=varcount).map(
        lambda d: Poly(varcount, {((i, 1),): c for i, c in d.items()}))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_cube_matches_power(data):
    # form ** 3, the general product, is the oracle for the direct expansion
    n = data.draw(st.integers(1, 6))
    form = data.draw(linear_forms(n))
    cube = linear_cube(form)
    assert cube == form ** 3
    assert all(c != 0 for c in cube.terms.values())


def test_linear_cube_mixed_denominators():
    x, y, z, w = (Poly.variable(4, i) for i in range(4))
    form = (x.scale(Fraction(-1, 2)) + y.scale(Fraction(2, 3))
            + z.scale(Fraction(-5, 6)) + w.scale(7))
    cube = linear_cube(form)
    assert cube == form ** 3
    assert cube.terms[((0, 3),)] == Fraction(-1, 8)
    assert cube.terms[((1, 1), (2, 1), (3, 1))] == Fraction(-70, 3)
    assert all(type(c) is Fraction for c in cube.terms.values())


def test_linear_cube_shares_pairs():
    x, y, z = (Poly.variable(3, i) for i in range(3))
    form = x + y.scale(-2) + z.scale(Fraction(1, 3))
    cube = linear_cube(form)
    ones = {m[0][0]: m[0] for m in form.terms}
    pairs = {}
    for mono in cube.terms:
        for pair in mono:
            if pair[1] == 1:
                assert pair is ones[pair[0]]
            else:
                assert pairs.setdefault(pair, pair) is pair


def test_linear_cube_rejects_non_linear():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert linear_cube(Poly.zero(2)) == Poly.zero(2)
    for bad in (x + Poly.const(2, 1), x * y, x ** 2 + y):
        with pytest.raises(ValueError):
            linear_cube(bad)


def test_exact_divide_roundtrip():
    rng = random.Random(40)
    checked = 0
    while checked < 30:
        n = rng.randrange(1, 4)
        a = random_poly(rng, n)
        b = random_poly(rng, n)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).exact_divide(b) == a
        checked += 1


def test_exact_divide_rejects_inexact():
    x = Poly.variable(1, 0)
    p = x * x + Poly.const(1, 1)
    with pytest.raises(ExactDivisionError):
        p.exact_divide(x)
    with pytest.raises(ZeroDivisionError):
        p.exact_divide(Poly.zero(1))


def test_exact_divide_single_term_divisor():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x * y + x * y * y.scale(3)
    assert p.exact_divide(x * y) == x + y.scale(3)


def test_grlex_order():
    # degree dominates, then leftmost differing exponent
    x2 = mono_from_dense((2, 0))
    xy = mono_from_dense((1, 1))
    y2 = mono_from_dense((0, 2))
    x = mono_from_dense((1, 0))
    one = mono_from_dense((0, 0))
    ordering = sorted([x2, xy, y2, x, one], key=GRLEX_KEY, reverse=True)
    assert ordering == [x2, xy, y2, x, one]
    assert grlex_cmp(x2, xy) > 0
    assert grlex_cmp(xy, y2) > 0
    assert grlex_cmp(one, x) < 0
    assert grlex_cmp(xy, xy) == 0


def test_leading_term():
    p = Poly.from_terms(2, {(1, 1): 5, (0, 2): 1, (2, 0): -2})
    m, c = p.leading_term()
    assert mono_to_dense(m, 2) == (2, 0)
    assert c == -2
    assert Poly.zero(2).leading_term() is None


def test_sorted_terms_is_strictly_decreasing():
    rng = random.Random(41)
    p = random_poly(rng, 3, max_deg=5, max_terms=12)
    terms = p.sorted_terms()
    for (m1, _), (m2, _) in zip(terms, terms[1:]):
        assert grlex_cmp(m1, m2) > 0


monomials = st.dictionaries(st.integers(0, 12), st.integers(1, 4), max_size=5).map(
    lambda d: tuple(sorted(d.items())))


@settings(max_examples=300, deadline=None)
@given(st.lists(monomials, unique=True, min_size=1, max_size=30))
def test_grlex_key_matches_comparator(monos):
    oracle = functools.cmp_to_key(grlex_cmp)
    assert sorted(monos, key=GRLEX_KEY) == sorted(monos, key=oracle)
    p = Poly(13, {m: Fraction(i + 1) for i, m in enumerate(monos)})
    lead = max(monos, key=oracle)
    assert p.leading_term() == (lead, p.terms[lead])
    assert [m for m, _ in p.sorted_terms()] == sorted(monos, key=oracle, reverse=True)
    for a in monos[:5]:
        for b in monos[:5]:
            assert (GRLEX_KEY(a) > GRLEX_KEY(b)) == (grlex_cmp(a, b) > 0)


def images_with_constants(varcount):
    """Zero, nonzero constant, single-term and many-term images."""
    return st.one_of(st.just(Poly.zero(varcount)),
                     fractions.filter(bool).map(lambda c: Poly.const(varcount, c)),
                     polys(varcount, 1, 1), polys(varcount, 2, 5))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_substitute_matches_oracle_with_zero_and_constant_images(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, max_terms=8, max_exp=3))
    images = data.draw(st.lists(images_with_constants(m), min_size=n, max_size=n))
    got = p.substitute(images)
    want = substitute_oracle(p, images)
    assert got == want
    # same terms in the same order, so printing and hashing agree too
    assert list(got.terms.items()) == list(want.terms.items())


def test_substitute_skips_terms_with_a_zero_image():
    x, y, z = (Poly.variable(3, i) for i in range(3))
    p = x * y * z + x * x.scale(3) + z + Poly.const(3, 5)
    images = [Poly.variable(2, 0), Poly.const(2, 2), Poly.zero(2)]
    assert p.substitute(images) == (Poly.variable(2, 0) ** 2).scale(3) + Poly.const(2, 5)
    assert p.substitute(images) == substitute_oracle(p, images)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_laws(data):
    n = data.draw(st.integers(1, 3))
    a, b, c = (data.draw(polys(n, max_terms=5, max_exp=3)) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a - b == -(b - a)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pow_matches_repeated_multiplication(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, max_terms=4, max_exp=2))
    acc = Poly.const(n, 1)
    for k in range(6):
        assert p ** k == acc
        acc = acc * p
    assert p ** 1 is p


def test_extend_keeps_values():
    p = Poly.from_terms(2, {(1, 1): 2})
    q = p.extend(4)
    assert q.varcount == 4
    assert q.eval_at([3, 5, 7, 11]) == p.eval_at([3, 5])


def test_eval_scaled_int_matches_exact_eval():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n)
        if p.is_zero():
            continue
        nums = [rng.randrange(-9, 10) for _ in range(n)]
        den = rng.randrange(1, 5)
        L, items = p.content_and_integer_terms()
        d = p.degree()
        got = Fraction(eval_scaled_int(items, nums, den, d), L * den ** d)
        assert got == p.eval_at([Fraction(a, den) for a in nums])


def test_derive_of_constant_and_missing_var():
    assert Poly.const(2, 7).derive(0).is_zero()
    assert Poly.variable(2, 0).derive(1).is_zero()
