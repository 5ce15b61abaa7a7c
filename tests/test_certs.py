import collections
import contextlib
import functools
import io
import itertools
import json
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from polyred import certs, cli
from polyred.affine import AffineAutomorphism
from polyred.certs import (
    Automorphism,
    Certificate,
    CertificateBuilder,
    ExtendFreshVars,
    PostCompose,
    PreCompose,
    RationalMap,
    SegreExtend,
    ShearAutomorphism,
    apply_move,
    fiber_transport_check,
    substitute_rational,
    verify_certificate,
)
from polyred.examples import builtin_example, corpus
from polyred.linalg import RatMatrix
from polyred.maps import DEFAULT_BUDGET, PolyMap
from polyred.poly import ExactDivisionError, Poly, as_coeff, qdiv
from polyred.reduce import meng_symmetrize, to_yagzhev
from polyred.textio import (automorphism_from_json, automorphism_to_json,
                            certificate_from_json, certificate_to_json, move_from_json,
                            move_to_json)


def V(n, i):
    return Poly.variable(n, i)


def C(n, c):
    return Poly.const(n, c)


def realize(sh, sign=1):
    """The full map x + sign*g of a shear: the oracle its fast paths are
    compared against."""
    comps = []
    for i in range(sh.n):
        g = sh.additions.get(i)
        comps.append(V(sh.n, i) if g is None else V(sh.n, i) + g.scale(sign))
    return PolyMap(comps)


def symbolic_two_sided(sh):
    """True when x + g and x - g compose to the identity both ways."""
    fwd, inv = realize(sh, 1), realize(sh, -1)
    return oracles.is_identity(fwd.compose(inv)) and oracles.is_identity(inv.compose(fwd))


# -- automorphisms ---------------------------------------------------------


def test_linear_automorphism_two_sided():
    m = RatMatrix.dense([[2, 1], [1, 1]])
    a = AffineAutomorphism.from_linear(m, m.inverse())
    assert a.verify_two_sided() is None
    # a deliberately wrong inverse is caught
    bad = Automorphism(
        PolyMap.from_matrix(RatMatrix.dense([[2, 1], [1, 1]])),
        PolyMap.from_matrix(RatMatrix.dense([[1, 0], [0, 1]])),
    )
    assert bad.verify_two_sided() is not None


def test_shear_two_sided():
    n = 3
    sh = ShearAutomorphism(n, {2: V(n, 0) * V(n, 0)})
    assert sh.verify_two_sided() is None
    assert symbolic_two_sided(sh)
    assert realize(sh).eval_at([2, 0, 1]) == [2, 0, 5]
    with pytest.raises(ValueError):
        ShearAutomorphism(n, {2: V(n, 2) + V(n, 0)})


def test_shear_multiple_targets():
    n = 4
    sh = ShearAutomorphism(
        n, {2: V(n, 0) ** 3, 3: V(n, 0) * V(n, 1)}
    )
    assert sh.verify_two_sided() is None
    assert symbolic_two_sided(sh)


@pytest.mark.parametrize("n, additions", [
    (3, {3: V(3, 0)}),                 # index out of range
    (3, {-1: V(3, 0)}),
    (3, {1: V(2, 0)}),                 # addend over the wrong variables
    (3, {1: V(3, 0), 0: V(3, 2)}),     # addend reads a shifted variable
])
def test_shear_rejects_bad_shapes(n, additions):
    with pytest.raises(ValueError):
        ShearAutomorphism(n, additions)


# -- shear fast paths against the full maps ----------------------------------


@st.composite
def polys(draw, n, allowed):
    """A small polynomial in the variables `allowed` of n."""
    p = Poly(n)
    for _ in range(draw(st.integers(0, 3))):
        term = C(n, Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3))))
        for v in allowed:
            term = term * V(n, v) ** draw(st.integers(0, 2))
        p = p + term
    return p


@st.composite
def shears(draw, max_dim=5, may_taint=True):
    """A shear with nonzero addends.  With may_taint, half the time one
    addend also gets a c*x_j term with x_j shifted, which a genuine shear
    may not have; nonzero addends make x - g fail to invert it then."""
    n = draw(st.integers(1, max_dim))
    shifted = draw(st.sets(st.integers(0, n - 1), min_size=1))
    free = [v for v in range(n) if v not in shifted]
    additions = {}
    for i in sorted(shifted):
        g = draw(polys(n, free))
        additions[i] = g if not g.is_zero() else C(n, draw(st.integers(1, 4)))
    sh = ShearAutomorphism(n, additions)
    if may_taint and draw(st.booleans()):
        i = draw(st.sampled_from(sorted(shifted)))
        j = draw(st.sampled_from(sorted(shifted)))
        sh.additions[i] = sh.additions[i] + V(n, j).scale(draw(st.sampled_from([-2, 1, 3])))
    return sh


@settings(max_examples=150, deadline=None)
@given(shears())
def test_shear_verdict_matches_symbolic_composition(sh):
    ok = sh.verify_two_sided() is None
    assert ok == symbolic_two_sided(sh)
    if not ok:
        with pytest.raises(ValueError):
            ShearAutomorphism(sh.n, sh.additions)


@st.composite
def shear_and_maps(draw):
    sh = draw(shears(max_dim=4, may_taint=False))
    n = sh.n
    m = draw(st.integers(1, 4))
    into = PolyMap([draw(polys(m, range(m))) for _ in range(n)])   # m -> n
    out_of = PolyMap([draw(polys(n, range(n)))
                      for _ in range(draw(st.integers(1, 4)))])    # n -> k
    return sh, into, out_of


@settings(max_examples=100, deadline=None)
@given(shear_and_maps())
def test_shear_moves_match_full_map_composition(case):
    sh, into, out_of = case
    assert apply_move(into, PostCompose(sh)) == realize(sh).compose(into)
    assert apply_move(out_of, PreCompose(sh)) == out_of.compose(realize(sh))


@settings(max_examples=100, deadline=None)
@given(shears(max_dim=4, may_taint=False), st.randoms(use_true_random=False))
def test_shear_transport_matches_full_map_evaluation(sh, rng):
    x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(sh.n)]
    y = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(sh.n)]
    assert PostCompose(sh).transport(x, y, rng) == (x, realize(sh).eval_at(y))
    assert PreCompose(sh).transport(x, y, rng) == (realize(sh, -1).eval_at(x), y)


def test_permutation_automorphism():
    a = AffineAutomorphism.permutation(3, [2, 0, 1])
    assert a.verify_two_sided() is None
    assert oracles.affine_maps(a)[0].eval_at([10, 20, 30]) == [30, 10, 20]
    assert a.push([10, 20, 30]) == [30, 10, 20] and a.pull([30, 10, 20]) == [10, 20, 30]


# -- permutation fast paths against the general maps ------------------------


@st.composite
def perm_and_maps(draw):
    """A permutation of n <= 5 coordinates (n <= 3 half the time), a map
    into its domain and one out of it, each with its summary built or
    not."""
    n = draw(st.integers(1, 3) if draw(st.booleans()) else st.integers(4, 5))
    perm = draw(st.permutations(range(n)))
    m = draw(st.integers(1, 4))
    into = PolyMap([draw(polys(m, range(m))) for _ in range(n)])   # m -> n
    out_of = PolyMap([draw(polys(n, range(n)))
                      for _ in range(draw(st.integers(1, 4)))])    # n -> k
    for f in (into, out_of):
        if draw(st.booleans()):
            f.top_indices()
    return n, perm, into, out_of


@settings(max_examples=150, deadline=None)
@given(perm_and_maps())
def test_permutation_moves_match_composition(case):
    n, perm, into, out_of = case
    a, general = AffineAutomorphism.permutation(n, perm), oracles.permutation_by_maps(n, perm)
    post = apply_move(into, PostCompose(a))
    assert _terms_in_order(post) == _terms_in_order(general.forward.compose(into))
    assert all(p is into.components[j] for p, j in zip(post.components, perm))
    pre = apply_move(out_of, PreCompose(a))
    assert _terms_in_order(pre) == _terms_in_order(out_of.compose(general.forward))
    for f in (post, pre):
        if f.tops is not None:
            assert f.tops == [max(c.variables_used(), default=-1) for c in f.components]
    assert pre.tops is not None
    assert (post.tops is None) == (into.tops is None)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.permutations(range(n))),
       st.randoms(use_true_random=False))
def test_permutation_transport_matches_general_evaluation(perm, rng):
    n = len(perm)
    a, general = AffineAutomorphism.permutation(n, perm), oracles.permutation_by_maps(n, perm)
    x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
    y = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
    for move in (PostCompose, PreCompose):
        assert move(a).transport(x, y, rng) == move(general).transport(x, y, rng)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_permutation_verdict_matches_symbolic_composition(data):
    # a genuine permutation passes both checks; with one unit row of the
    # forward map overwritten by another the list repeats an index and
    # misses another, x -> x[perm] is not injective, and no map inverts it
    n = data.draw(st.integers(1, 5))
    perm = data.draw(st.permutations(range(n)))
    a = AffineAutomorphism.permutation(n, perm)
    if n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                  unique=True))
        perm = perm[:i] + [perm[j]] + perm[i + 1:]
        rows = list(a.m.rows)
        rows[i] = rows[j]
        a = AffineAutomorphism(RatMatrix(rows, n), a.shift, a.inv, a.inv_shift)
    fwd, inv = oracles.affine_maps(a)
    assert fwd == PolyMap([V(n, j) for j in perm])
    symbolic = oracles.is_identity(fwd.compose(inv)) and oracles.is_identity(inv.compose(fwd))
    assert (a.verify_two_sided() is None) == symbolic
    assert a.verify_two_sided() == Automorphism(fwd, inv).verify_two_sided()
    if not symbolic:
        assert a.verify_two_sided() == "forward after inverse is not the identity"
        with pytest.raises(ValueError, match="not a permutation"):
            AffineAutomorphism.permutation(n, perm)


# -- affine maps against the general route -----------------------------------


_ENTRIES = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-5, 5),
                                                   st.integers(2, 4))).filter(bool).map(as_coeff)


@st.composite
def affine_cases(draw):
    """(M, v, N, w): M invertible and sparse with int and Fraction entries,
    the identity after up to four row operations, so that some rows stay
    x_i itself; v zero in some coordinates; N = M^-1 and w = -N v."""
    n = draw(st.integers(1, 5))
    m = RatMatrix.identity(n)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        e = RatMatrix.identity(n)
        how = draw(st.sampled_from(["add", "scale", "swap"]))
        if how == "add" and i != j:
            e.rows[i] = {i: 1, j: draw(_ENTRIES)}
        elif how == "scale":
            e.rows[i] = {i: draw(_ENTRIES)}
        elif how == "swap":
            e.rows[i], e.rows[j] = {j: 1}, {i: 1}
        m = e * m
    shift = [draw(st.one_of(st.just(0), _ENTRIES)) for _ in range(n)]
    inv = m.inverse()
    return m, shift, inv, [as_coeff(-sum(a * shift[j] for j, a in row.items()))
                           for row in inv.rows]


def _general_map(m, shift):
    """x -> m x + shift, built by PolyMap arithmetic alone."""
    return PolyMap([p + C(m.ncols, c) for p, c in zip(PolyMap.from_matrix(m).components, shift)])


@settings(max_examples=150, deadline=None)
@given(affine_cases(), st.data())
def test_affine_replay_and_transport_match_the_general_route(case, data):
    m, shift, inv, inv_shift = case
    n = m.nrows
    a = AffineAutomorphism(m, shift, inv, inv_shift)
    general = Automorphism(_general_map(m, shift), _general_map(inv, inv_shift))
    k = data.draw(st.integers(1, 4))
    into = PolyMap([data.draw(polys(k, range(k))) for _ in range(n)])             # k -> n
    out_of = PolyMap([data.draw(polys(n, range(n)))
                      for _ in range(data.draw(st.integers(1, 4)))])              # n -> j
    for f in (into, out_of):
        if data.draw(st.booleans()):
            f.top_indices()
    post = apply_move(into, PostCompose(a))
    assert _terms_in_order(post) == _terms_in_order(apply_move(into, PostCompose(general)))
    for i, p in enumerate(post.components):
        if m.rows[i] == {i: 1} and not shift[i]:
            assert p is into.components[i]
    pre = apply_move(out_of, PreCompose(a))
    assert _terms_in_order(pre) == _terms_in_order(apply_move(out_of, PreCompose(general)))
    for f in (post, pre):
        if f.tops is not None:
            assert f.tops == [max(c.variables_used(), default=-1) for c in f.components]
    rng = random.Random(data.draw(st.integers(0, 99)))
    x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
    y = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]
    for move in (PostCompose, PreCompose):
        assert move(a).transport(x, y, rng) == move(general).transport(x, y, rng)


@settings(max_examples=150, deadline=None)
@given(affine_cases(), st.sampled_from(["true", "forged", "wrong-shift", "forward-as-inverse",
                                        "transposed", "repeated-column", "wrong-row"]),
       st.data())
def test_affine_verdict_and_json_match_the_general_route(case, how, data):
    # the last three forge unit rows {j: 1}, which the check compares with
    # one row of N instead of multiplying: N's transpose as the inverse, a
    # forward row made the unit row of a column another row holds, and two
    # rows of N swapped, so a unit row of M points at the wrong one
    m, shift, inv, inv_shift = case
    n = m.nrows
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if how == "forged":  # one entry of the inverse changed
        inv = RatMatrix([dict(row) for row in inv.rows], n)
        s = inv.rows[i].get(j, 0) + data.draw(_ENTRIES)
        inv.rows[i].pop(j, None)
        if s:
            inv.rows[i][j] = as_coeff(s)
    elif how == "wrong-shift":
        inv_shift = list(inv_shift)
        inv_shift[i] = as_coeff(inv_shift[i] + data.draw(_ENTRIES))
    elif how == "forward-as-inverse":
        inv, inv_shift = m, shift
    elif how == "transposed":
        inv = inv.transpose()
    elif how == "repeated-column":
        m = RatMatrix(m.rows[:i] + [{min(m.rows[j]): 1}] + m.rows[i + 1:], n)
        shift = shift[:i] + [0] + shift[i + 1:]
    elif how == "wrong-row":
        rows = list(inv.rows)
        rows[i], rows[j] = rows[j], rows[i]
        inv = RatMatrix(rows, n)
    a = AffineAutomorphism(m, shift, inv, inv_shift, "affine")
    general = Automorphism(_general_map(m, shift), _general_map(inv, inv_shift), "affine")
    verdict = general.verify_two_sided()
    assert a.verify_two_sided() == verdict
    m_w_plus_v = [sum(e * inv_shift[k] for k, e in row.items()) + c
                  for row, c in zip(m.rows, shift)]
    assert (verdict is None) == (m * inv == RatMatrix.identity(n) and not any(m_w_plus_v))
    if how in ("true", "forged", "wrong-shift", "forward-as-inverse"):
        assert (verdict is None) == (how == "true" or how == "forward-as-inverse"
                                     and m * m == RatMatrix.identity(n)
                                     and not any(a.push(shift)))
    text = json.dumps(automorphism_to_json(a))
    assert text == json.dumps(automorphism_to_json(general))
    back = automorphism_from_json(json.loads(text))
    assert type(back) is AffineAutomorphism
    assert json.dumps(automorphism_to_json(back)) == text
    assert back.verify_two_sided() == verdict


def test_affine_constructors_encode_like_the_general_maps():
    vec = [1, Fraction(-7, 3), 0, 4]
    m = RatMatrix.dense([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, Fraction(1, 2), 0, 1]])
    pairs = [(AffineAutomorphism.translation(vec, "t"),
              Automorphism(oracles.translation_map(vec),
                           oracles.translation_map([-Fraction(v) for v in vec]), "t")),
             (AffineAutomorphism.from_linear(m, m.inverse(), "l"),
              Automorphism(PolyMap.from_matrix(m), PolyMap.from_matrix(m.inverse()), "l"))]
    for a, general in pairs:
        assert type(a) is AffineAutomorphism and a.verify_two_sided() is None
        assert automorphism_to_json(a) == automorphism_to_json(general)
        assert general.inverse.den == C(a.dim, 1)
        assert oracles.affine_maps(a) == (general.forward, PolyMap(general.inverse.nums))


def test_translation_automorphism():
    a = AffineAutomorphism.translation([1, -2])
    assert a.verify_two_sided() is None
    assert oracles.affine_maps(a)[0].eval_at([0, 0]) == [1, -2]


def test_rational_inverse_verification():
    # forward (x, y) -> (x, y(1 + x... ) no: use v * scalar polynomial:
    # sigma(x, v) = (x, v * (1 + x^2)) has rational inverse (x, v / (1 + x^2))
    n = 2
    x, v = V(n, 0), V(n, 1)
    w = C(n, 1) + x * x
    fwd = PolyMap([x, v * w])
    inv = RationalMap([x * w, v], w)
    a = Automorphism(fwd, inv)
    assert a.verify_two_sided() is None
    # wrong numerator fails
    bad = Automorphism(fwd, RationalMap([x * w, v + C(n, 1)], w))
    assert bad.verify_two_sided() is not None


def test_substitute_rational():
    n = 2
    x, y = V(n, 0), V(n, 1)
    p = x * x + y
    ((q, k),) = substitute_rational([p], [x, y], y)
    # p(x/y, y/y) = x^2/y^2 + 1 -> (x^2 + y^2) / y^2
    assert k == 2
    assert q == x * x + y * y


def divides(den, g):
    try:
        g.exact_divide(den)
    except ExactDivisionError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_substitute_rational_clears_the_denominator(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, range(n)))
    nums = data.draw(st.lists(polys(m, range(m)), min_size=n, max_size=n))
    den = data.draw(polys(m, range(m)))
    pt = data.draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                            min_size=m, max_size=m))
    d = den.eval_at(pt)
    assume(d != 0)
    ((q, k),) = substitute_rational([p], nums, den)
    rational = {i for i, g in enumerate(nums) if not divides(den, g)}
    assert k == max((sum(e for v, e in m if v in rational) for m in p.terms), default=0)
    assert q.eval_at(pt) == p.eval_at([qdiv(g.eval_at(pt), d) for g in nums]) * d ** k


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_substitute_rational_matches_full_homogenization(data):
    # nums mixes multiples of den, which substitute as polynomials, with
    # arbitrary numerators; clearing the full degree's worth of den, as the
    # oracle does, differs only by the missing powers of den
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, range(n)))
    den = data.draw(polys(m, range(m)))
    assume(not den.is_zero())
    nums = [g * den if data.draw(st.booleans()) else g
            for g in data.draw(st.lists(polys(m, range(m)), min_size=n, max_size=n))]
    ((q, k),) = substitute_rational([p], nums, den)
    q_ref, k_ref = oracles.substitute_rational(p, nums, den)
    assert k <= k_ref
    assert q * den ** (k_ref - k) == q_ref


@pytest.mark.parametrize("eid", ["cube-x", "triple-root", "square-x", "random-d4-n2"])
def test_rational_inverse_verdicts_match_full_homogenization(eid, monkeypatch):
    # the Meng twist of a non-Keller map has a rational inverse; true and
    # tampered inverses get the same verdict, component index included,
    # from the partial homogenization as from the full one
    _, cert, _ = meng_symmetrize(builtin_example(eid).document.to_polymap())
    (auto,) = [mv.auto for mv in cert.moves
               if isinstance(getattr(mv, "auto", None), Automorphism)
               and isinstance(mv.auto.inverse, RationalMap)]
    inv = auto.inverse
    n = inv.n_in
    candidates = [auto]
    for i in (0, n // 2, n - 1):
        nums = list(inv.nums)
        nums[i] = nums[i] + V(n, n - 1)
        candidates.append(Automorphism(auto.forward, RationalMap(nums, inv.den)))
    verdicts = [a.verify_two_sided() for a in candidates]
    monkeypatch.setattr(certs, "substitute_rational", lambda ps, nums, den: (
        oracles.substitute_rational(p, nums, den) for p in ps))
    assert verdicts == [a.verify_two_sided() for a in candidates]
    assert verdicts[0] is None and all(v is not None for v in verdicts[1:])


@functools.lru_cache(maxsize=None)
def _twist(eid):
    """(forward, inverse) of the Meng twist meng_symmetrize builds for a
    corpus map: a PolyMap inverse for a Keller map, else a RationalMap."""
    _, cert, _ = meng_symmetrize(builtin_example(eid).document.to_polymap())
    (auto,) = [mv.auto for mv in cert.moves if isinstance(mv.auto, Automorphism)]
    inv = auto.inverse
    if inv.den == C(inv.n_in, 1):
        return auto.forward, PolyMap(inv.nums)
    return auto.forward, inv


@st.composite
def general_automorphisms(draw):
    """(forward, inverse) of a general automorphism: a shear and an affine
    map composed either way in 2-4 variables, with a PolyMap inverse;
    sigma(x, v) = (x, v w) for a nonzero w not reading v, with the
    rational inverse (x w, v) / w; or a corpus map's Meng twist."""
    kind = draw(st.sampled_from(["polynomial", "sigma", "twist"]))
    if kind == "twist":
        return _twist(draw(st.sampled_from([e.id for e in corpus()])))
    if kind == "sigma":
        n = draw(st.integers(2, 4))
        j = draw(st.integers(0, n - 1))
        w = draw(polys(n, [k for k in range(n) if k != j]).filter(lambda p: not p.is_zero()))
        fwd = PolyMap([V(n, k) * w if k == j else V(n, k) for k in range(n)])
        return fwd, RationalMap([V(n, k) if k == j else V(n, k) * w for k in range(n)], w)
    m, shift, inv, inv_shift = draw(affine_cases().filter(lambda c: 2 <= c[0].nrows <= 4))
    n = m.nrows
    sh = ShearAutomorphism(n, draw(shear_additions(n, "any")))
    shear = realize(sh), realize(sh, -1)
    affine = _general_map(m, shift), _general_map(inv, inv_shift)
    (f1, b1), (f2, b2) = (shear, affine) if draw(st.booleans()) else (affine, shear)
    return f1.compose(f2), b2.compose(b1)


def _forge(draw, inv, how):
    """inv forged: one coefficient changed, two numerators swapped, the
    denominator changed, or the shape wrong.  A PolyMap stays one except
    when its denominator 1 is changed."""
    rational = isinstance(inv, RationalMap)
    nums, den = (list(inv.nums), inv.den) if rational else (list(inv.components), None)
    n = nums[0].varcount
    if how == "coefficient":
        i = draw(st.integers(0, len(nums) - 1))
        terms = dict(nums[i].terms)
        mono = draw(st.sampled_from(sorted(terms) or [()]))
        c = terms.pop(mono, 0) + draw(_ENTRIES)
        if c:
            terms[mono] = as_coeff(c)
        nums[i] = Poly(n, terms)
    elif how == "swap":
        i, j = draw(st.lists(st.integers(0, len(nums) - 1), min_size=2, max_size=2,
                             unique=True))
        nums[i], nums[j] = nums[j], nums[i]
    elif how == "denominator":
        den = C(n, 1) if den is None else den
        return RationalMap(nums, den + V(n, draw(st.integers(0, n - 1)))
                           if draw(st.booleans()) else den * C(n, draw(_ENTRIES)))
    elif how == "shape":
        if draw(st.booleans()):
            nums = nums[:-1]
        else:
            nums = [p.extend(n + 1) for p in nums]
            den = None if den is None else den.extend(n + 1)
    return RationalMap(nums, den) if rational else PolyMap(nums)


@settings(max_examples=200, deadline=None)
@given(general_automorphisms(),
       st.sampled_from(["true", "coefficient", "swap", "denominator", "shape"]), st.data())
def test_one_route_matches_the_two_route_check(case, how, data):
    # the oracle checks a PolyMap inverse by composing both ways and a
    # RationalMap one in the fraction field, whose messages name the
    # component; verdicts agree, and for a PolyMap inverse so do messages
    fwd, inv = case
    if how != "true":
        inv = _forge(data.draw, inv, how)
    auto = Automorphism(fwd, inv)
    assert isinstance(auto.inverse, RationalMap)
    got, want = auto.verify_two_sided(), oracles.verify_two_sided(fwd, inv)
    assert (got is None) == (want is None)
    if isinstance(inv, PolyMap):
        assert got == want
    if how == "true":
        assert got is None


def test_rational_check_divides_each_numerator_once(monkeypatch):
    # random-d4-n3's twist has six rational numerators and six forward
    # components; each numerator is divided by the denominator once per check
    fwd, inv = _twist("random-d4-n3")
    auto = Automorphism(fwd, inv)
    divisions = []
    divide = Poly.exact_divide

    def counted(self, divisor):
        divisions.append(divisor)
        return divide(self, divisor)

    monkeypatch.setattr(Poly, "exact_divide", counted)
    assert auto.verify_two_sided() is None
    assert len(divisions) == len(inv.nums) == 6


# -- moves ------------------------------------------------------------------


def test_extend_fresh_vars():
    f = PolyMap([V(1, 0) ** 2])
    g = apply_move(f, ExtendFreshVars(2))
    assert g.n_in == 3 and g.n_out == 3
    assert g.eval_at([2, 5, 7]) == [4, 5, 7]


def test_post_and_pre_compose():
    f = PolyMap([V(2, 0) + V(2, 1) ** 2, V(2, 1)])
    a = ShearAutomorphism(2, {0: V(2, 1) ** 2})
    post = apply_move(f, PostCompose(a))
    assert post.components[0] == V(2, 0) + V(2, 1) ** 2 + V(2, 1) ** 2
    pre = apply_move(f, PreCompose(a))
    assert pre.components[0] == V(2, 0) + V(2, 1) ** 2 + V(2, 1) ** 2
    assert pre.components[1] == V(2, 1)


def test_compose_sharing():
    # untouched components are carried over as the same objects
    f = PolyMap([V(3, 0) ** 3, V(3, 1), V(3, 2)])
    a = ShearAutomorphism(3, {0: V(3, 1) * V(3, 2)})
    g = apply_move(f, PostCompose(a))
    assert g.components[1] is f.components[1]
    assert g.components[2] is f.components[2]
    h = apply_move(f, PreCompose(a))
    assert h.components[1] is f.components[1]
    assert h.components[2] is f.components[2]


def test_segre_move():
    f = PolyMap([V(1, 0) + V(1, 0) ** 2])
    g = apply_move(f, SegreExtend())
    # (x + t x^2, t)
    assert g.n_in == 2
    assert g.components[0] == V(2, 0) + V(2, 1) * V(2, 0) ** 2
    assert g.components[1] == V(2, 1)


@st.composite
def cubic_maps(draw):
    """An endomorphism of 1..4 variables whose components have terms of
    degree 1 to 3 and int or Fraction coefficients, no constant term."""
    n = draw(st.integers(1, 4))
    monos = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(
        lambda vs: tuple(sorted(collections.Counter(vs).items())))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool)
    return PolyMap([Poly(n, {m: as_coeff(c) for m, c in draw(
        st.dictionaries(monos, coeffs, max_size=6)).items()}) for _ in range(n)])


@settings(max_examples=100, deadline=None)
@given(cubic_maps())
def test_segre_rewrite_matches_substitution_and_division(f):
    got = apply_move(f, SegreExtend()).components
    want = oracles.segre_by_division(f)
    assert ([[(m, c, type(c)) for m, c in p.terms.items()] for p in got]
            == [[(m, c, type(c)) for m, c in p.terms.items()] for p in want])
    assert got[-1] is Poly.variable(f.n_in + 1, f.n_in)


def test_segre_needs_zero_constant():
    f = PolyMap([V(1, 0) + C(1, 1)])
    with pytest.raises(ValueError):
        apply_move(f, SegreExtend())


def test_segre_jacobian_identity_small():
    # det J of (F(tx)/t, t) at (x, t) equals det J of F at tx
    from polyred.maps import jacobian_det

    f = PolyMap([V(2, 0) + V(2, 1) ** 3, V(2, 1) + V(2, 0) ** 2])
    g = apply_move(f, SegreExtend())
    jf = jacobian_det(f)
    jg = jacobian_det(g)
    n = 3
    t = V(n, 2)
    scaled = [V(n, 0) * t, V(n, 1) * t]
    assert jg == jf.extend(n).substitute(scaled + [t])


# -- pre-composed shears against the full-images oracle ----------------------


@st.composite
def small_polys(draw, n, allowed):
    """Up to two terms, each a coefficient times at most two of `allowed`;
    zero and constants included."""
    allowed = list(allowed)
    p = Poly(n)
    for _ in range(draw(st.integers(0, 2))):
        term = C(n, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))))
        for _ in range(draw(st.integers(0, 2)) if allowed else 0):
            term = term * V(n, draw(st.sampled_from(allowed)))
        p = p + term
    return p


@st.composite
def shear_additions(draw, n, where):
    """Addends of a valid shear of n variables whose shifted indices sit
    low, in the middle, at the top, or anywhere."""
    shifted = {"low": {0}, "middle": {n // 2}, "top": {n - 1}}.get(where)
    if shifted is None:
        shifted = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    free = [v for v in range(n) if v not in shifted]
    return {i: draw(small_polys(n, free)) for i in sorted(shifted)}


def _rational_move(n, i, j):
    """x_j -> x_j (1 + x_i^2), whose inverse divides by 1 + x_i^2."""
    w = C(n, 1) + V(n, i) * V(n, i)
    fwd = PolyMap([V(n, k) * w if k == j else V(n, k) for k in range(n)])
    inv = RationalMap([V(n, k) if k == j else V(n, k) * w for k in range(n)], w)
    return PreCompose(Automorphism(fwd, inv))


@st.composite
def move_chains(draw):
    """An endomorphism with zero, constant and polynomial components, and
    a chain of moves over it: pre- and post-composed shears, extensions,
    lower_degree-shaped rounds (extend by two, attach two factors, cancel
    their product), permutations, which carry the replay summary on, and
    the rational and Segre moves that drop it, so a later shear rebuilds
    it."""
    n = draw(st.integers(1, 4))
    kinds = st.sampled_from(["poly", "poly", "poly", "zero", "const"])
    comps = []
    for _ in range(n):
        kind = draw(kinds)
        comps.append(draw(small_polys(n, range(n))) if kind == "poly"
                     else Poly(n) if kind == "zero" else C(n, draw(st.integers(1, 3))))
    f = cur = PolyMap(comps)
    moves = []
    for _ in range(draw(st.integers(1, 7))):
        n = cur.n_in
        kind = draw(st.sampled_from(["pre", "pre", "pre", "post", "extend", "round",
                                     "perm", "rational", "segre"]))
        if kind == "pre":
            where = draw(st.sampled_from(["low", "middle", "top", "any"]))
            step = [PreCompose(ShearAutomorphism(n, draw(shear_additions(n, where))))]
        elif kind == "post":
            step = [PostCompose(ShearAutomorphism(n, draw(shear_additions(n, "any"))))]
        elif kind == "extend":
            step = [ExtendFreshVars(draw(st.integers(1, 2)))]
        elif kind == "round":
            m = n + 2
            a, b = draw(small_polys(m, range(n))), draw(small_polys(m, range(n)))
            ci = draw(st.integers(0, n - 1))
            step = [ExtendFreshVars(2),
                    PreCompose(ShearAutomorphism(m, {n: a, n + 1: b})),
                    PostCompose(ShearAutomorphism(m, {ci: (V(m, n) * V(m, n + 1)).scale(-1)}))]
        elif kind == "perm":
            perm = draw(st.permutations(range(n)))
            move = draw(st.sampled_from([PreCompose, PostCompose]))
            step = [move(AffineAutomorphism.permutation(n, perm))]
        elif kind == "rational" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            step = [_rational_move(n, i, j)]
        elif kind == "segre" and all(c.constant_term() == 0 for c in cur.components):
            step = [SegreExtend()]
        else:
            continue
        for move in step:
            cur = apply_move(cur, move)
        moves += step
    return f, moves


def _oracle_move(f, move):
    auto = getattr(move, "auto", None)
    if isinstance(move, PreCompose) and isinstance(auto, ShearAutomorphism):
        return oracles.pre_shear_by_full_images(f, auto)
    if isinstance(auto, AffineAutomorphism):  # move_chains' permutations
        perm = [next(iter(row)) for row in auto.m.rows]
        return apply_move(f, type(move)(oracles.permutation_by_maps(auto.dim, perm)))
    return apply_move(f, move)


def _terms_in_order(f):
    return [(p.varcount, [(m, c, type(c)) for m, c in p.terms.items()])
            for p in f.components]


def _below_top_chain():
    """With x1 shifted: x1 x4 reads it below its top index 4, x0 + x4
    reaches it with its top but reads nothing shifted, x0 stays below it,
    and the zero and the constant read nothing.  A permutation then
    reorders the summary with the components, and the next shear reads
    it."""
    x = [V(5, i) for i in range(5)]
    f = PolyMap([x[1] * x[4], x[0] + x[4], x[0], Poly(5), C(5, 3)])
    return f, [PreCompose(ShearAutomorphism(5, {1: x[0] * x[0] + C(5, 1)})),
               PostCompose(AffineAutomorphism.permutation(5, [4, 0, 1, 2, 3])),
               PreCompose(ShearAutomorphism(5, {4: x[0] + C(5, 1)}))]


@settings(max_examples=150, deadline=None)
@given(move_chains())
@example(_below_top_chain())
def test_pre_shear_replay_matches_full_images(case):
    f, moves = case
    fast = slow = f
    for move in moves:
        fast, slow = apply_move(fast, move), _oracle_move(slow, move)
        assert _terms_in_order(fast) == _terms_in_order(slow)
        if fast.tops is not None:
            assert fast.tops == [max(c.variables_used(), default=-1) for c in fast.components]


# -- certificates ------------------------------------------------------------


def build_toy_certificate():
    f = PolyMap([V(1, 0) + V(1, 0) ** 2])
    b = CertificateBuilder(f, kind="toy")
    b.push(ExtendFreshVars(1))
    sh = ShearAutomorphism(2, {1: V(2, 0) ** 2})
    b.push(PostCompose(sh))
    b.push(SegreExtend())
    return b.build()


def test_certificate_roundtrip():
    cert = build_toy_certificate()
    rep = verify_certificate(cert)
    assert rep.ok, rep.issues
    assert rep.moves_checked == 3
    assert rep.autos_checked == 1


def test_certificate_tampered_target():
    cert = build_toy_certificate()
    wrong = Certificate(
        cert.source,
        PolyMap.identity(cert.target.n_in),
        cert.moves,
        cert.kind,
    )
    rep = verify_certificate(wrong)
    assert not rep.ok
    assert any("target" in msg for msg in rep.issues)


def test_certificate_bad_automorphism():
    f = PolyMap([V(2, 0), V(2, 1)])
    forged = Automorphism(
        PolyMap([V(2, 0) + V(2, 1) ** 2, V(2, 1)]),
        PolyMap([V(2, 0), V(2, 1)]),  # not the inverse
    )
    nxt = apply_move(f, PostCompose(forged))
    cert = Certificate(f, nxt, [PostCompose(forged)])
    rep = verify_certificate(cert)
    assert not rep.ok
    assert any("automorphism" in msg for msg in rep.issues)


def test_certificate_replay_that_raises_ends_the_walk():
    # the Segre move refuses a constant term, so the replay stops at move 1
    f = PolyMap([V(1, 0) + C(1, 1)])
    moves = [ExtendFreshVars(1), SegreExtend(),
             PostCompose(ShearAutomorphism(3, {0: V(3, 1)}))]
    rep = verify_certificate(Certificate(f, f, moves))
    assert not rep.ok
    assert rep.issues == ["move 1: replay raised: the Segre move needs zero constant terms"]
    assert (rep.moves_checked, rep.autos_checked) == (2, 0)


def test_fiber_transport_ok():
    cert = build_toy_certificate()
    rep = fiber_transport_check(cert, seed=11, samples=25)
    assert rep.ok, rep.issues
    assert rep.samples_run == 25


def test_fiber_transport_catches_wrong_target():
    cert = build_toy_certificate()
    wrong = Certificate(
        cert.source,
        PolyMap.identity(cert.target.n_in),
        cert.moves,
        cert.kind,
    )
    rep = fiber_transport_check(wrong, seed=11, samples=10)
    assert not rep.ok


def test_fiber_transport_with_rational_precompose():
    # sigma(x, v) = (x, v (1 + x^2)): fiber transport inverts it at points
    n = 2
    x, v = V(n, 0), V(n, 1)
    w = C(n, 1) + x * x
    sigma = Automorphism(PolyMap([x, v * w]), RationalMap([x * w, v], w))
    f = PolyMap([x + v, v])
    b = CertificateBuilder(f)
    b.push(PreCompose(sigma))
    cert = b.build()
    assert verify_certificate(cert).ok
    rep = fiber_transport_check(cert, seed=3, samples=15)
    assert rep.ok, rep.issues
    assert rep.samples_run > 0


def test_builder_intermediates_complete():
    cert = build_toy_certificate()
    stops = list(itertools.accumulate(cert.moves, apply_move, initial=cert.source))
    assert len(stops) == len(cert.moves) + 1
    assert stops[0] == cert.source
    assert stops[-1] == cert.target


def test_pinchuk_replay_scans_few_variable_sets(monkeypatch):
    """Replay reads each pre-composed shear's summary instead of scanning
    every component: the full-images route scans 16 712 variable sets on
    this certificate.  The two coordinate permutations substitute
    nothing: composing their 497-wide maps, as the general route does,
    adds 497 substitutions to each replay and 497 to each of the four
    one-sided compositions of their checks, 2 982 in all.  Nor do
    normalize's two affine moves, a translation and the straightening:
    as general automorphisms they added 248 substitutions to each replay
    and to each of the four one-sided compositions of their checks,
    1 488 in all."""
    _, trace = to_yagzhev(builtin_example("pinchuk").document.to_polymap(), seed=0)
    calls = collections.Counter()
    for name in ("variables_used", "substitute"):
        def counted(self, *args, _name=name, _original=getattr(Poly, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(Poly, name, counted)
    assert verify_certificate(trace.certificate).ok
    assert calls["variables_used"] < 2000
    assert calls["substitute"] == 717


# -- the move classes against the ladders they replaced ----------------------


def _assert_routes_agree(f, moves, seed):
    """Replay, transport and encode the moves through the move classes and
    through the oracle's ladders: every map on the way (its summary
    included), every transported point and random state, and the JSON
    bytes, decoded again by both routes, must be the same."""
    fast = slow = f
    for move in moves:
        fast, slow = apply_move(fast, move), oracles.apply_move_by_ladder(slow, move)
        assert _terms_in_order(fast) == _terms_in_order(slow)
        assert fast.tops == slow.tops
    rng, rng_ladder = random.Random(seed), random.Random()
    x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(f.n_in)]
    rng_ladder.setstate(rng.getstate())
    point = ladder_point = (x, f.eval_at(x))
    for move in moves:
        point = move.transport(*point, rng)
        ladder_point = oracles.transport_by_ladder(move, *ladder_point, rng_ladder)
        assert point == ladder_point
        assert rng.getstate() == rng_ladder.getstate()
        if point is None:
            break
    text = json.dumps([move_to_json(m) for m in moves])
    assert text == json.dumps([oracles.move_to_json_by_ladder(m) for m in moves])
    for decode in (move_from_json, oracles.move_from_json_by_ladder):
        assert json.dumps([move_to_json(decode(d)) for d in json.loads(text)]) == text


@settings(max_examples=150, deadline=None)
@given(move_chains(), st.integers(0, 10 ** 6))
@example(_below_top_chain(), 0)
def test_move_classes_match_the_ladders(case, seed):
    f, moves = case
    _assert_routes_agree(f, moves, seed)


@functools.cache
def _corpus_certificates() -> tuple:
    """The JSON text of every certificate `reduce --to yagzhev` and
    `symmetrize` write for the corpus, Pinchuk's included."""
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        for e in corpus():
            for argv in (["reduce", e.id, "--to", "yagzhev"], ["symmetrize", e.id]):
                path = Path(tmp) / f"{len(texts)}.json"
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert cli.main(argv + ["--cert", str(path)]) == 0, argv
                texts.append(path.read_text(encoding="utf-8"))
    return tuple(texts)


def test_corpus_certificates_match_the_ladders():
    texts = _corpus_certificates()
    for k, text in enumerate(texts):
        blob = json.loads(text)
        cert = certificate_from_json(blob)
        assert certificate_to_json(cert) == blob
        assert certificate_to_json(oracles.certificate_from_json_by_ladders(blob)) == blob
        _assert_routes_agree(cert.source, cert.moves, seed=k)
    assert max(json.loads(t)["target"].count("\n") for t in texts) == 498  # Pinchuk's


_BAD_VALUES = ["swizzle", "Extend", [], {"a": 1}, None, True, 0, -1, 2.5, "", "2", [5],
               DEFAULT_BUDGET.max_dim + 1, 10 ** 6]


def _move_json(n):
    """A move in JSON for a map of about n variables: well formed, of the
    wrong dim or count, with a field or tag of the wrong type, or not an
    object at all."""
    shear = st.integers(1, n + 2).map(
        lambda m: automorphism_to_json(ShearAutomorphism(m, {m - 1: C(m, 1)})))
    perm = st.integers(1, n + 2).flatmap(lambda m: st.permutations(range(m))).map(
        lambda p: automorphism_to_json(AffineAutomorphism.permutation(len(p), p)))
    bad = st.sampled_from(_BAD_VALUES)
    return st.one_of(
        st.builds(lambda k: {"move": "extend", "count": k},
                  st.integers(1, 3) | st.just(DEFAULT_BUDGET.max_dim) | bad),
        st.builds(lambda tag, a: {"move": tag, "automorphism": a},
                  st.sampled_from(["post", "pre"]), shear | perm | bad),
        st.sampled_from([{"move": "segre"}, {"move": "post"}, {"count": 1}]),
        st.builds(lambda tag: {"move": tag}, bad),
        bad)


@settings(max_examples=200, deadline=None)
@given(move_chains(), st.data())
def test_malformed_moves_fail_decode_as_the_ladders_did(case, data):
    # moves replaced or inserted, and a source whose last component is
    # dropped, so that automorphisms meet the wrong side and a Segre move
    # meets a map that is not an endomorphism
    f, moves = case
    b = CertificateBuilder(f)
    for move in moves:
        b.push(move)
    blob = certificate_to_json(b.build())
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.integers(0, len(blob["moves"])))
        bad = data.draw(_move_json(f.n_in))
        if data.draw(st.booleans()) and at < len(blob["moves"]):
            blob["moves"][at] = bad
        else:
            blob["moves"].insert(at, bad)
    if f.n_out > 1 and data.draw(st.booleans()):
        blob["source"] = blob["source"][:blob["source"].rindex("poly")]

    def outcome(decode):
        try:
            return json.dumps(certificate_to_json(decode(blob)))
        except Exception as e:  # whatever either route raises, the other must too
            return type(e), str(e)

    assert outcome(certificate_from_json) == outcome(oracles.certificate_from_json_by_ladders)


# -- a toy move kind, as one class --------------------------------------------


@dataclass(frozen=True)
class BothSides:
    """F -> A after F after A: a move kind defined here, in the tests, to
    show that a new kind is one class and an entry in certs.MOVES."""

    auto: Automorphism
    tag = "both"

    def dims(self, n_in: int, n_out: int) -> tuple:
        if not self.auto.dim == n_in == n_out:
            raise ValueError(f"an automorphism of dim {self.auto.dim} acts on both "
                             f"sides of {n_in} -> {n_out}")
        return n_in, n_out

    def replay(self, f: PolyMap) -> PolyMap:
        return self.auto.post(self.auto.pre(f))

    def transport(self, x: list, y: list, rng: random.Random):
        nx = self.auto.pull(x)
        return None if nx is None else (nx, self.auto.push(y))


def test_a_new_move_kind_is_one_class(monkeypatch):
    monkeypatch.setitem(certs.MOVES, BothSides.tag, BothSides)
    x, v = V(2, 0), V(2, 1)
    f = PolyMap([x + v ** 2, v + x * v])
    shear = ShearAutomorphism(3, {0: V(3, 1) * V(3, 2)})
    w = C(2, 1) + x * x
    sigma = Automorphism(PolyMap([x, v * w]), RationalMap([x * w, v], w))
    b = CertificateBuilder(f, kind="toy")
    b.push(BothSides(sigma))
    b.push(ExtendFreshVars(1))
    b.push(BothSides(shear))
    cert = b.build()
    lifted = apply_move(sigma.forward.compose(f.compose(sigma.forward)), ExtendFreshVars(1))
    assert cert.target == realize(shear).compose(lifted.compose(realize(shear)))
    rep = verify_certificate(cert)
    assert rep.ok and (rep.moves_checked, rep.autos_checked) == (3, 2), rep.issues
    fib = fiber_transport_check(cert, seed=5, samples=12)
    assert fib.ok and fib.samples_run == 12, fib.issues
    text = json.dumps(certificate_to_json(cert))
    assert json.loads(text)["moves"][2] == {"move": "both",
                                             "automorphism": automorphism_to_json(shear)}
    back = certificate_from_json(json.loads(text))
    assert json.dumps(certificate_to_json(back)) == text
    assert verify_certificate(back).ok
    # the decoder walks the new kind's shape rule like any other
    blob = json.loads(text)
    blob["moves"].append(blob["moves"][0])
    with pytest.raises(ValueError, match="^move 3: an automorphism of dim 2 acts on both"):
        certificate_from_json(blob)
    # and a forged inverse or target is caught by its check and by transport
    forged = BothSides(Automorphism(sigma.forward, PolyMap([x, v])))
    assert not verify_certificate(Certificate(f, forged.replay(f), [forged])).ok
    wrong = Certificate(cert.source, PolyMap.identity(3), cert.moves)
    assert not verify_certificate(wrong).ok
    assert not fiber_transport_check(wrong, seed=5, samples=4).ok
