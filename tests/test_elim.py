import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from polyred import attrs, elim
from polyred.elim import (
    count_real_roots,
    poly_matrix_det,
    resultant,
    squarefree_part,
    uni_coeffs,
    z_add,
    z_count_real_roots,
    z_exact_div,
    z_gcd,
    z_mul,
    z_resultant,
    z_rows,
    z_squarefree,
    z_to_poly,
)
from polyred.examples import builtin_example
from polyred.maps import jacobian
from polyred.poly import ExactDivisionError, Poly


def uni(coeffs):
    """Univariate helper: coeffs[i] multiplies x^i, one ambient variable."""
    return oracles.from_terms(1, {(i,): c for i, c in enumerate(coeffs)})


def random_poly(rng, varcount, max_deg, max_terms):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * varcount
        for _ in range(rng.randrange(max_deg + 1)):
            exps[rng.randrange(varcount)] += 1
        terms[tuple(exps)] = Fraction(rng.randrange(-5, 6))
    return oracles.from_terms(varcount, terms)


# -- univariate views ------------------------------------------------------


def test_uni_coeffs_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        p = random_poly(rng, 3, 4, 8)
        var = rng.randrange(3)
        coeffs = uni_coeffs(p, var)
        assert oracles.uni_assemble(coeffs, var, 3) == p
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
        assert resultant(f, g, var) == oracles.sylvester_resultant(f, g, var)
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
    assert resultant(f, g, 0) == oracles.sylvester_resultant(f, g, 0)


def test_poly_matrix_det_small():
    x = Poly.variable(1, 0)
    one = Poly.const(1, 1)
    m = [[x, one], [one, x]]
    assert poly_matrix_det(m, 1) == x * x - one


def test_poly_matrix_det_of_a_jacobian_matches_dense_det():
    f = builtin_example("yagzhev-4d-b").document.to_polymap()
    rows = jacobian(f)
    det = poly_matrix_det(rows, 4)
    assert not det.is_constant()
    rng = random.Random(15)
    for _ in range(6):
        point = [rng.randrange(-4, 5) for _ in range(4)]
        values = [[entry.eval_at(point) for entry in row] for row in rows]
        assert det.eval_at(point) == oracles.dense_det(values)


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
    a = oracles.q_coeffs(uni([-1, 1]) * uni([1, 1]))  # (x-1)(x+1)
    b = oracles.q_coeffs(uni([-1, 1]) * uni([3, 1]))  # (x-1)(x+3)
    g = oracles.q_gcd(a, b)
    assert g == [Fraction(-1), Fraction(1)]  # monic x - 1


def test_sturm_count_known():
    p = uni([0, 1]) * (uni([-2, 0, 1])) * (uni([-3, 0, 1]))  # x(x^2-2)(x^2-3)
    assert count_real_roots(p) == 5
    assert count_real_roots(uni([1, 0, 1])) == 0  # x^2 + 1
    assert count_real_roots(uni([-1, 0, 0, 0, 0, 1])) == 1  # x^5 - 1
    assert oracles.sturm_count(p, Fraction(0), Fraction(2)) == 2  # sqrt2 and sqrt3
    assert oracles.sturm_count(p, Fraction(-1), Fraction(1)) == 1  # just 0


def test_sturm_counts_distinct_roots_of_nonsquarefree():
    p = uni([-1, 1]) ** 3 * uni([1, 1])
    assert count_real_roots(p) == 2


def test_wilkinson_fragment():
    p = Poly.const(1, 1)
    for i in range(1, 7):
        p = p * uni([-i, 1])
    assert count_real_roots(p) == 6
    assert oracles.sturm_count(p, Fraction(3, 2), Fraction(9, 2)) == 3  # 2, 3, 4


@st.composite
def univariate(draw):
    """A rational constant times up to three small rational factors, each
    raised to a power up to 3, in one variable of a 1 to 3 variable
    ambient space; zero when the constant is."""
    n = draw(st.integers(1, 3))
    x = Poly.variable(n, draw(st.integers(0, n - 1)))
    p = Poly.const(n, Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5))))
    for _ in range(draw(st.integers(0, 3))):
        factor = Poly(n)
        for e in range(draw(st.integers(1, 2)) + 1):
            c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
            factor = factor + (x ** e).scale(c)
        p = p * factor ** draw(st.integers(1, 3))
    return p


@settings(max_examples=200, deadline=None)
@given(univariate())
def test_squarefree_and_root_count_match_fraction_chain(p):
    assert squarefree_part(p) == oracles.squarefree_part(p)
    if p.is_zero():
        for count in (count_real_roots, oracles.count_real_roots):
            with pytest.raises(ValueError):
                count(p)
    else:
        assert count_real_roots(p) == oracles.count_real_roots(p)


def test_univariate_entry_points_reject_two_variables():
    p = Poly.variable(3, 0) * Poly.variable(3, 2) + Poly.const(3, 1)
    for fn in (squarefree_part, count_real_roots,
               oracles.squarefree_part, oracles.count_real_roots):
        with pytest.raises(ValueError, match="not univariate"):
            fn(p)


# -- dense integer kernel against the Fraction path ---------------------------
#
# resultant and the Fraction chain in tests/oracles.py are the oracles: the
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
    sf = oracles.squarefree_part(r)
    return r, sf, oracles.count_real_roots(sf)


@st.composite
def bivariate(draw, max_deg=3):
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        terms[exps] = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    return oracles.from_terms(2, terms)


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
    assert z_count_real_roots(c) == oracles.count_real_roots(uni(c))
    q, lead = z_squarefree(c)
    assert z_to_poly(q, 1, 0, Fraction(lead)) == oracles.squarefree_part(uni(c))


def test_kernel_sturm_sign_after_a_degree_gap():
    # x^4 + 2x: the chain runs x^4 + 2x, 4x^3 + 2, -3/2 x, so the last
    # division has delta = 2 by a negative leading coefficient; the
    # textbook lc^(delta+1) scaling flips the sign and counts 0 roots
    assert z_count_real_roots([0, 2, 0, 0, 1]) == 2
    assert z_count_real_roots([-2, 3, 0, 0, -2]) == 0
    assert z_count_real_roots([0, -3, 1, 0, 0, 1]) == 3
    for c in ([0, 2, 0, 0, 1], [-2, 3, 0, 0, -2], [0, -3, 1, 0, 0, 1]):
        assert z_count_real_roots(c) == oracles.count_real_roots(uni(c))


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


# -- the Lazard-Ducos resultant against the g*h^delta loop ----------------------
#
# Degree gaps (delta >= 2) are where signs and exact divisions go wrong, and
# random dense pairs rarely have one past the first step; a polynomial in
# x2^k times x2^m has remainders in the same shape, so every step of its
# chain has a gap of k.


def zz_mul(a, b):
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = z_add(out[i + j], z_mul(u, v))
    while out and not out[-1]:
        out.pop()
    return out


@st.composite
def zz_poly(draw, deg=None):
    """An element of Z[x1][x2] of x2-degree deg (drawn when None), as rows
    by x2-degree; its leading row is often nonconstant in x1, and it is
    sometimes u(x1, x2^k) * x2^m for a stride k of 2 or 3."""
    d = draw(st.integers(0, 5)) if deg is None else deg
    k, m = draw(st.sampled_from([(1, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]))
    if k > 1:
        if d < m:
            k, m = 1, 0
        else:
            d = (d - m) // k
    # a nonzero constant row and leading row, so that only a shift m = 1
    # or a drawn common factor puts x2 into both polynomials of a pair
    nonzero = st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(lambda r: r[-1] != 0)
    rows = [draw(nonzero if j == 0 else st.lists(st.integers(-4, 4), max_size=3))
            for j in range(d)]
    rows.append(draw(nonzero))
    out = [[] for _ in range(k * d + m + 1)]
    for j, r in enumerate(rows):
        while r and not r[-1]:
            r.pop()
        out[k * j + m] = r
    return out


@st.composite
def zz_pairs(draw):
    """Two elements of Z[x1][x2]: of equal x2-degree a quarter of the time,
    and with a common factor that moves with x2 (zero resultant) a fifth."""
    a = draw(zz_poly())
    b = draw(zz_poly(len(a) - 1 if draw(st.integers(0, 3)) == 0 else None))
    if draw(st.integers(0, 4)) == 0:
        c = draw(zz_poly(draw(st.integers(1, 2))))
        a, b = zz_mul(a, c), zz_mul(b, c)
    return a, b


# remainder chains 3, 1, 0 and 5, 3, 2, 1, 0 (a gap on the first step),
# 4, 3, 1, 0 and 5, 4, 2, 1, 0 (a gap on a later step)
GAPPED = [
    ([[-2], [], [], [2, -2]], [[2], [3, -1]]),
    ([[-3], [], [-1], [0, 1]], [[], [], [-1], [3], [-2], [1, -2]]),
    ([[-1, 2], [], [], [], [0, 3]], [[-3, -2], [], [], [1, 1]]),
    ([[-3], [-1], [-2, 3], [], [-1], [1, -1]], [[2], [-2, -3], [], [], [3, 1]]),
]


@settings(max_examples=400, deadline=None)
@given(zz_pairs())
@example(GAPPED[0])
@example(GAPPED[1])
@example(GAPPED[2])
@example(GAPPED[3])
def test_z_resultant_matches_gh_delta_loop(pair):
    a, b = pair
    assert z_resultant(a, b) == oracles.z_resultant(a, b)
    assert z_resultant(b, a) == oracles.z_resultant(b, a)


def test_gapped_chains_take_lazard_and_ducos_steps(monkeypatch):
    # the examples above do reach both steps, so the differential test
    # covers them and not only the first pseudo-remainder
    seen = {"lazard": 0, "ducos": 0}
    lazard, ducos = elim._lazard, elim._ducos_step

    def count(name, fn):
        def wrapped(*args):
            seen[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(elim, "_lazard", count("lazard", lazard))
    monkeypatch.setattr(elim, "_ducos_step", count("ducos", ducos))
    for a, b in GAPPED:
        assert z_resultant(a, b) == oracles.z_resultant(a, b) != []
    assert seen["lazard"] >= 2 and seen["ducos"] >= 4
    # a stride-2 pair has a gap on every step
    a, b = [[1], [], [2, 1], [], [0, -1], [], [3]], [[2], [], [1, 1], [], [-1, 2]]
    before = dict(seen)
    assert z_resultant(a, b) == oracles.z_resultant(a, b)
    assert seen["lazard"] - before["lazard"] >= 2


# -- the Euclidean prefix against the Ducos chain alone -----------------------
#
# z_resultant takes Euclidean steps while the divisor leads with an integer
# constant and the remainder does too; _subresultant, which starts with a
# pseudo-remainder, is the route without them.  A chain built from its
# bottom up fixes where the prefix stops: E_(i-1) = q_i * E_i + E_(i+1)
# has E_(i+1) as its remainder by E_i, and the prefix sees each E_i up to
# a scalar.  Its quotients are integral, so it never scales a step; short
# random pairs led by constants do.


def zz_add(a, b):
    out = [z_add(u, v) for u, v in zip(a, b)] + a[len(b):] + b[len(a):]
    while out and not out[-1]:
        out.pop()
    return out


def chain_up(bottom, divisor, quotients):
    """(E_0, E_1) of the chain whose last two entries are divisor and
    bottom, with E_(i-1) = q * E_i + E_(i+1) for q in quotients, the
    last quotient applied first."""
    lo, hi = bottom, divisor
    for q in reversed(quotients):
        lo, hi = hi, zz_add(zz_mul(q, hi), lo)
    return hi, lo


LEADS = [1, -1, 2, -2, 3, -4, 6, -12]


@st.composite
def zz_poly_led(draw, deg, lead, width=3):
    """An element of Z[x1][x2] of x2-degree deg with leading row lead and
    other rows of up to width coefficients."""
    rows = [draw(st.lists(st.integers(-4, 4), max_size=width)) for _ in range(deg)]
    for r in rows:
        while r and not r[-1]:
            r.pop()
    return rows + [lead]


@st.composite
def prefix_chains(draw):
    """(a, b) whose Euclidean chain has `steps` + 1 divisions by divisors
    that lead with constants from LEADS, at x2-degree gaps of 1 to 3, and
    ends in a zero remainder (a common factor), a remainder of degree 0,
    or one whose leading row is not constant, where Ducos takes over."""
    steps = draw(st.integers(0, 2))
    end = draw(st.sampled_from(["zero", "degree 0", "ducos"]))
    lead = st.sampled_from(LEADS).map(lambda c: [c])
    du = draw(st.integers(2 if end == "ducos" else 1, 4))
    divisor = draw(zz_poly_led(du, draw(lead)))
    if end == "zero":
        bottom = []
    elif end == "degree 0":
        bottom = [draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)
                       .filter(lambda r: r[-1] != 0))]
    else:
        top = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=3)
                   .filter(lambda r: r[-1] != 0))
        bottom = draw(zz_poly_led(draw(st.integers(1, du - 1)), top))
    # the top quotient may be a constant, so that a and b have one degree
    quotients = [draw(zz_poly_led(draw(st.integers(0 if i == 0 else 1, 3)), draw(lead)))
                 for i in range(steps + 1)]
    return chain_up(bottom, divisor, quotients)


@st.composite
def constant_led_pairs(draw):
    """(a, b) led by constants from LEADS, with rows of at most 2
    coefficients in x1 and mostly 1.  Their remainders have denominators,
    so the prefix scales its steps, and their leading rows turn
    nonconstant, or never do, at any step."""
    lead = st.sampled_from(LEADS).map(lambda c: [c])
    width = draw(st.sampled_from([1, 1, 2]))
    return tuple(draw(zz_poly_led(draw(st.integers(1, 5)), draw(lead), width))
                 for _ in range(2))


prefix_pairs = st.one_of(prefix_chains(), constant_led_pairs())


def count_calls(monkeypatch, names):
    """Wrap the named elim functions; returns {name: [(args, result)]}."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapped(*args, _fn=getattr(elim, name), _name=name):
            out = _fn(*args)
            calls[_name].append((args, out))
            return out
        monkeypatch.setattr(elim, name, wrapped)
    return calls


def prefix_steps(calls):
    """The Euclidean steps whose remainder z_resultant kept: nonzero, and
    of degree 0 or led by a constant."""
    return sum(1 for _, (_, r) in calls["_zz_rem"] if r and (len(r) == 1 or len(r[-1]) == 1))


# one chain per shape the prefix must handle: 0, 1 and 2 steps before
# Ducos; a common factor; a degree-0 remainder; a prefix step, then a
# Ducos chain whose first remainder leaves a gap of 3 (a Lazard step)
PREFIX = {
    "ducos after 0": chain_up([[1], [2, 1]], [[3], [1, -1], [-2]], [[[1], [-1], [2]]]),
    "ducos after 1": chain_up([[1], [2, 1]], [[3], [1, -1], [-2]],
                              [[[], [6]], [[1], [-1], [2]]]),
    "ducos after 2": chain_up([[1], [2, 1]], [[3], [1, -1], [-2]],
                              [[[1, 1], [], [-1]], [[], [6]], [[1], [-1], [2]]]),
    "common factor": chain_up([], [[1, 2], [], [-3]], [[[2], [1, -1], [4]], [[], [-1]]]),
    "degree 0": chain_up([[3, 0, 1]], [[1, 2], [], [-3]], [[[5], [0, 1], [6]], [[2], [2]]]),
    "lazard": chain_up([[1], [-2, 1]], [[0, 1], [], [], [], [1]],
                       [[[1, -1], [1], [2]], [[2], [1]]]),
}


@settings(max_examples=400, deadline=None)
@given(prefix_pairs)
@example(PREFIX["ducos after 0"])
@example(PREFIX["ducos after 1"])
@example(PREFIX["ducos after 2"])
@example(PREFIX["common factor"])
@example(PREFIX["degree 0"])
@example(PREFIX["lazard"])
def test_z_resultant_prefix_matches_ducos_chain(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert z_resultant(x, y) == oracles.z_resultant(x, y) == elim._subresultant(x, y, elim.Z_RING)


@pytest.mark.parametrize("name, steps", [
    ("ducos after 0", 0), ("ducos after 1", 1), ("ducos after 2", 2),
    ("common factor", 1), ("degree 0", 2), ("lazard", 1)])
def test_prefix_examples_take_their_steps(name, steps, monkeypatch):
    a, b = PREFIX[name]
    calls = count_calls(monkeypatch, ["_zz_rem", "_prem", "_lazard"])
    r = z_resultant(a, b)
    assert prefix_steps(calls) == steps
    assert (r == []) == (name == "common factor")
    if name.startswith("ducos") or name == "lazard":
        # one pseudo-remainder, by the last divisor the prefix saw
        (P, Q), = [args[:2] for args, _ in calls["_prem"]]
        assert len(Q[-1]) == 1 and ((P, Q) == (a, b)) == (steps == 0)
    else:
        assert calls["_prem"] == []
    assert bool(calls["_lazard"]) == (name == "lazard")


def test_prefix_scalar_that_does_not_divide_out_raises(monkeypatch):
    # a wrong lam makes the final division inexact; it must not be floored
    rem = elim._zz_rem
    monkeypatch.setattr(elim, "_zz_rem", lambda a, b: (3 * rem(a, b)[0], rem(a, b)[1]))
    a, b = PREFIX["ducos after 1"]
    with pytest.raises(ExactDivisionError):
        z_resultant(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_pinchuk_fibers_start_with_two_euclidean_steps(seed, monkeypatch):
    # the rotated Pinchuk rows lead in x2 with constants, and so do the
    # first two remainders: no pseudo-remainder runs on the rows themselves
    fr = attrs._plane_rows(builtin_example("pinchuk").document.to_polymap())
    g, _ = attrs._rotated(fr, seed, seed > 0)
    y1, y2 = attrs._free_target(random.Random(seed))
    a, b = attrs._specialize(g[0], y1)[1], attrs._specialize(g[1], y2)[1]
    assert len(a[-1]) == len(b[-1]) == 1
    calls = count_calls(monkeypatch, ["_zz_rem", "_prem"])
    r = z_resultant(a, b)
    assert prefix_steps(calls) == 2
    (P, Q), = [args[:2] for args, _ in calls["_prem"]]
    assert (len(P) - 1, len(Q) - 1) == (9, 8) and len(Q[-1]) == 1
    monkeypatch.undo()
    assert r == elim._subresultant(a, b, elim.Z_RING)


# -- the squarefree certificate against the gcd route ----------------------------


P = elim._P


def _no_gcd(*args):
    raise AssertionError("the Z gcd ran on a certified squarefree input")


def test_squarefree_certificate_skips_the_gcd(monkeypatch):
    a = z_mul([-2, 0, 1], [1, 3, 0, 5])  # (x^2 - 2)(5x^3 + 3x + 1)
    want = oracles.z_squarefree(a)
    monkeypatch.setattr(elim, "z_gcd", _no_gcd)
    assert z_squarefree(a) == want == (a, 1)


@pytest.mark.parametrize("a", [
    z_mul(z_mul([1, 1], [1, 1]), [-2, 0, 1]),  # (x + 1)^2 (x^2 - 2)
    z_mul(z_mul([3, -2], [3, -2]), z_mul([1, 0, 1], [1, 0, 1])),  # squares only
    [1, 0, P],  # p x^2 + 1: squarefree, but p divides its leading coefficient
    [P, 0, 1],  # x^2 + p: squarefree over Q, but x^2 mod p
    z_mul([P, 0, 1], [P, 0, 1]),  # (x^2 + p)^2
])
def test_squarefree_certificate_defers_to_the_gcd(a, monkeypatch):
    calls = []

    def gcd(*args):
        calls.append(args)
        return z_gcd(*args)

    monkeypatch.setattr(elim, "z_gcd", gcd)
    assert z_squarefree(a) == oracles.z_squarefree(a)
    assert len(calls) == 1


coefficient = st.one_of(st.integers(-9, 9), st.sampled_from([P, -P, 2 * P]))


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficient, min_size=1, max_size=6),
       st.lists(st.integers(-9, 9), max_size=3))
def test_squarefree_matches_gcd_route(a, b):
    # a * b^2 has a square factor whenever b is not constant
    c = z_mul(a, z_mul(b, b)) if b else a
    while c and not c[-1]:
        c.pop()
    assert z_squarefree(c) == oracles.z_squarefree(c)
