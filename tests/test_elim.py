import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyred.elim import (
    count_real_roots,
    poly_gcd,
    poly_matrix_det,
    primitive_part,
    q_coeffs,
    q_gcd,
    resultant,
    squarefree_part,
    sturm_count,
    sylvester_resultant,
    uni_assemble,
    uni_coeffs,
    z_count_real_roots,
    z_exact_div,
    z_gcd,
    z_mul,
    z_resultant,
    z_rows,
    z_squarefree,
    z_to_poly,
)
from polyred.poly import ExactDivisionError, Poly


def uni(coeffs):
    """Univariate helper: coeffs[i] multiplies x^i, one ambient variable."""
    return Poly.from_terms(1, {(i,): c for i, c in enumerate(coeffs)})


def random_poly(rng, varcount, max_deg, max_terms):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * varcount
        for _ in range(rng.randrange(max_deg + 1)):
            exps[rng.randrange(varcount)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-5, 6))
    return Poly.from_terms(varcount, terms)


# -- univariate views ------------------------------------------------------


def test_uni_coeffs_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        p = random_poly(rng, 3, 4, 8)
        var = rng.randrange(3)
        coeffs = uni_coeffs(p, var)
        assert uni_assemble(coeffs, var, 3) == p
        for c in coeffs:
            assert c.degree_in(var) == 0


# -- resultants ------------------------------------------------------------


def test_resultant_matches_sylvester_route():
    # the two routes are independent implementations; they must agree
    # exactly, sign included
    rng = random.Random(2)
    checked = 0
    while checked < 40:
        f = random_poly(rng, 2, 3, 4)
        g = random_poly(rng, 2, 3, 4)
        var = rng.randrange(2)
        if f.degree_in(var) == 0 and g.degree_in(var) == 0:
            continue
        if f.is_zero() or g.is_zero():
            continue
        assert resultant(f, g, var) == sylvester_resultant(f, g, var)
        checked += 1


def test_resultant_known_values():
    # res_x(x^2 - a, x^2 - b) = (a - b)^2
    x, a, b = (Poly.variable(3, i) for i in range(3))
    r = resultant(x * x - a, x * x - b, 0)
    assert r == (a - b) * (a - b)
    # res_x(f, x - c) = f(c)
    f = x * x - Poly.const(3, 2)
    r2 = resultant(f, x - a, 0)
    assert r2 == a * a - Poly.const(3, 2)


def test_resultant_detects_common_factor():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    common = x - y
    f = common * (x + Poly.const(2, 1))
    g = common * (x * x + y)
    assert resultant(f, g, 0).is_zero()


def test_resultant_of_coprime_is_nonzero():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    f = x * x + y
    g = x + Poly.const(2, 1)
    assert not resultant(f, g, 0).is_zero()


def test_resultant_swap_sign():
    rng = random.Random(3)
    checked = 0
    while checked < 20:
        f = random_poly(rng, 2, 3, 4)
        g = random_poly(rng, 2, 3, 4)
        m, n = f.degree_in(0), g.degree_in(0)
        if m == 0 or n == 0 or f.is_zero() or g.is_zero():
            continue
        lhs = resultant(f, g, 0)
        rhs = resultant(g, f, 0).scale((-1) ** (m * n))
        assert lhs == rhs
        checked += 1


def test_resultant_multiplicative():
    rng = random.Random(4)
    checked = 0
    while checked < 15:
        f = random_poly(rng, 2, 2, 3)
        g = random_poly(rng, 2, 2, 3)
        h = random_poly(rng, 2, 2, 3)
        if any(p.is_zero() or p.degree_in(0) == 0 for p in (f, g, h)):
            continue
        assert resultant(f * g, h, 0) == resultant(f, h, 0) * resultant(g, h, 0)
        checked += 1


def test_deeper_prs_case():
    # degrees far apart and several PRS steps
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    f = x ** 7 + y * x ** 3 - x + Poly.const(2, 2)
    g = x ** 2 + y
    assert resultant(f, g, 0) == sylvester_resultant(f, g, 0)


def test_poly_matrix_det_small():
    x = Poly.variable(1, 0)
    one = Poly.const(1, 1)
    m = [[x, one], [one, x]]
    assert poly_matrix_det(m, 1) == x * x - one


# -- squarefree and Sturm ----------------------------------------------------


def test_squarefree_part_collapses_multiplicity():
    p = uni([1, -1]) ** 2 * uni([2, 1])  # (1-x)^2 (2+x)
    sf = squarefree_part(p)
    assert sf.degree() == 2
    assert sf.eval_at([1]) == 0
    assert sf.eval_at([-2]) == 0
    # no repeated factor left
    assert squarefree_part(sf).degree() == 2


def test_squarefree_of_squarefree_is_identity_up_to_scalar():
    p = uni([-2, 0, 1])  # x^2 - 2
    assert squarefree_part(p) == p


def test_q_gcd():
    a = q_coeffs(uni([-1, 1]) * uni([1, 1]))  # (x-1)(x+1)
    b = q_coeffs(uni([-1, 1]) * uni([3, 1]))  # (x-1)(x+3)
    g = q_gcd(a, b)
    assert g == [Fraction(-1), Fraction(1)]  # monic x - 1


def test_sturm_count_known():
    p = uni([0, 1]) * (uni([-2, 0, 1])) * (uni([-3, 0, 1]))  # x(x^2-2)(x^2-3)
    assert count_real_roots(p) == 5
    assert count_real_roots(uni([1, 0, 1])) == 0  # x^2 + 1
    assert count_real_roots(uni([-1, 0, 0, 0, 0, 1])) == 1  # x^5 - 1
    assert sturm_count(p, Fraction(0), Fraction(2)) == 2  # sqrt2 and sqrt3
    assert sturm_count(p, Fraction(-1), Fraction(1)) == 1  # just 0


def test_sturm_counts_distinct_roots_of_nonsquarefree():
    p = uni([-1, 1]) ** 3 * uni([1, 1])
    assert count_real_roots(p) == 2


def test_wilkinson_fragment():
    p = Poly.const(1, 1)
    for i in range(1, 7):
        p = p * uni([-i, 1])
    assert count_real_roots(p) == 6
    assert sturm_count(p, Fraction(3, 2), Fraction(9, 2)) == 3  # 2, 3, 4


def test_primitive_part_strips_rational_content():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x * y).scale(Fraction(4, 6)) + y.scale(Fraction(2, 3))
    assert primitive_part(p) == x * y + y


def test_primitive_part_normalizes_sign():
    x = Poly.variable(1, 0)
    p = -(x ** 2) + Poly.const(1, 2)
    assert primitive_part(p).leading_term()[1] > 0
    assert primitive_part(p) == x ** 2 - Poly.const(1, 2)


def test_primitive_part_zero():
    z = Poly.zero(3)
    assert primitive_part(z) == z


def test_poly_gcd_shared_linear_factor():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    s = x + y
    p = s * s * (x - y)
    q = s * y
    assert poly_gcd(p, q) == s


def test_poly_gcd_repeated_factor():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    s = x + y.scale(2)
    assert poly_gcd(s ** 3 * x, s ** 2 * y) == s ** 2


def test_poly_gcd_coprime():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    g = poly_gcd(x ** 2 + y, x - y ** 2)
    assert g == Poly.const(2, 1)


def test_poly_gcd_with_zero_and_constants():
    x = Poly.variable(2, 0)
    p = (x ** 2).scale(Fraction(3, 2))
    assert poly_gcd(p, Poly.zero(2)) == x ** 2
    assert poly_gcd(Poly.zero(2), p) == x ** 2
    assert poly_gcd(Poly.const(2, 5), p) == Poly.const(2, 1)


def test_poly_gcd_result_is_primitive():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    s = (x + y).scale(Fraction(7, 3))
    g = poly_gcd(s * x, s * y)
    assert g == x + y


def test_poly_gcd_randomized_divides_both():
    rng = random.Random(77)
    names = [Poly.variable(3, i) for i in range(3)]

    def small():
        p = Poly.const(3, rng.randint(-3, 3))
        for _ in range(rng.randrange(1, 4)):
            v = names[rng.randrange(3)]
            p = p + (v ** rng.randrange(1, 3)).scale(rng.randint(-2, 2))
        return p

    for _ in range(25):
        g0, a, b = small(), small(), small()
        if g0.is_zero():
            continue
        p, q = g0 * a, g0 * b
        g = poly_gcd(p, q)
        if p.is_zero() or q.is_zero():
            continue
        # the common factor we planted must divide the reported gcd,
        # and the gcd must divide both products
        for prod in (p, q):
            assert prod.exact_divide(g) * g == prod
        assert g.exact_divide(poly_gcd(g, g0)) is not None


def test_poly_gcd_univariate_matches_q_gcd():
    rng = random.Random(13)
    for _ in range(10):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randrange(2, 5))]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randrange(2, 5))]
        if not any(a) or not any(b):
            continue
        pa = uni_assemble([Poly.const(1, c) for c in a], 0, 1)
        pb = uni_assemble([Poly.const(1, c) for c in b], 0, 1)
        g = poly_gcd(pa, pb)
        ref = q_gcd(a, b)
        # same degree; both are gcds up to a unit
        assert g.degree() == len(ref) - 1


# -- dense integer kernel against the Fraction path ---------------------------
#
# resultant, squarefree_part and count_real_roots are the oracles: the
# kernel must reproduce them exactly once its denominators are put back.


X1 = Poly.variable(2, 0)
X2 = Poly.variable(2, 1)


def kernel_fiber(p1, p2):
    """(r, sf, count) for Res_x2(p1, p2) computed by the integer kernel,
    with sf and count None when r vanishes."""
    L1, a = z_rows(p1)
    L2, b = z_rows(p2)
    big = z_resultant(a, b)
    if not big:
        return Poly(2), None, None
    scale = L1 ** (len(b) - 1) * L2 ** (len(a) - 1)
    q, lead = z_squarefree(big)
    assert z_count_real_roots(big) == z_count_real_roots(q)
    return (z_to_poly(big, 2, 0, Fraction(1, scale)),
            z_to_poly(q, 2, 0, Fraction(lead, scale)), z_count_real_roots(q))


def fraction_fiber(p1, p2):
    r = resultant(p1, p2, 1)
    if r.is_zero():
        return r, None, None
    sf = squarefree_part(r)
    return r, sf, count_real_roots(sf)


@st.composite
def bivariate(draw, max_deg=3):
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        terms[exps] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    return Poly.from_terms(2, terms)


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(bivariate(), bivariate(), fractions, fractions)
def test_kernel_fiber_matches_fraction_path(g1, g2, y1, y2):
    p1 = g1 - Poly.const(2, y1)
    p2 = g2 - Poly.const(2, y2)
    if p1.is_zero() or p2.is_zero():
        return
    assert kernel_fiber(p1, p2) == fraction_fiber(p1, p2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_kernel_real_root_count_matches_sturm(a, b):
    # a * b^2 has repeated roots whenever b is not constant
    c = z_mul(a, z_mul(b, b))
    while c and not c[-1]:
        c.pop()
    if not c:
        return
    assert z_count_real_roots(c) == count_real_roots(uni(c))
    q, lead = z_squarefree(c)
    assert z_to_poly(q, 1, 0, Fraction(lead)) == squarefree_part(uni(c))


def test_kernel_sturm_sign_after_a_degree_gap():
    # x^4 + 2x: the chain runs x^4 + 2x, 4x^3 + 2, -3/2 x, so the last
    # division has delta = 2 by a negative leading coefficient; the
    # textbook lc^(delta+1) scaling flips the sign and counts 0 roots
    assert z_count_real_roots([0, 2, 0, 0, 1]) == 2
    assert z_count_real_roots([-2, 3, 0, 0, -2]) == 0
    assert z_count_real_roots([0, -3, 1, 0, 0, 1]) == 3
    for c in ([0, 2, 0, 0, 1], [-2, 3, 0, 0, -2], [0, -3, 1, 0, 0, 1]):
        assert z_count_real_roots(c) == count_real_roots(uni(c))


def test_kernel_common_factor_gives_zero_resultant():
    h = X2 - X1
    p1, p2 = h * (X2 + Poly.const(2, 1)), h * (X2 * X2 - X1)
    assert kernel_fiber(p1, p2) == fraction_fiber(p1, p2) == (Poly(2), None, None)


def test_kernel_component_free_of_x2():
    p1 = X1 * X1 - Poly.const(2, Fraction(3, 2))
    p2 = X2 ** 3 + X1 * X2 - Poly.const(2, 1)
    for pair in ((p1, p2), (p2, p1)):
        r, sf, count = kernel_fiber(*pair)
        assert (r, sf, count) == fraction_fiber(*pair)
        assert count == 2


def test_kernel_constant_resultants():
    p1 = X2 - X1
    p2 = X2 - X1 + Poly.const(2, Fraction(1, 3))
    r, sf, count = kernel_fiber(p1, p2)
    assert (r, sf, count) == fraction_fiber(p1, p2)
    assert r.is_constant() and not r.is_zero() and count == 0
    # neither input moves with x2: the resultant of degree 0 and 0 is 1
    p1, p2 = X1 + Poly.const(2, 2), X1 * X1
    one = Poly.const(2, 1)
    assert kernel_fiber(p1, p2) == fraction_fiber(p1, p2) == (one, one, 0)


def test_kernel_exact_division_and_gcd():
    assert z_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ExactDivisionError):
        z_exact_div([1, 0, 1], [1, 1])
    with pytest.raises(ExactDivisionError):
        z_exact_div([1, 2], [0, 2])
    # (2x - 2)(x + 3) and -(4x - 4)(x - 5): gcd x - 1, primitive, lc > 0
    assert z_gcd(z_mul([-2, 2], [3, 1]), z_mul([4, -4], [-5, 1])) == [-1, 1]
