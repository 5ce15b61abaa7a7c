import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from polyred import certs
from polyred.certs import (
    Automorphism,
    Certificate,
    CertificateBuilder,
    ExtendFreshVars,
    PostCompose,
    PreCompose,
    RationalMap,
    SegreExtend,
    _transport,
    apply_move,
    fiber_transport_check,
    substitute_rational,
    verify_certificate,
)
from polyred.examples import builtin_example
from polyred.linalg import RatMatrix
from polyred.maps import PolyMap
from polyred.poly import ExactDivisionError, Poly
from polyred.reduce import meng_symmetrize


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
    return fwd.compose(inv).is_identity() and inv.compose(fwd).is_identity()


# -- automorphisms ---------------------------------------------------------


def test_linear_automorphism_two_sided():
    a = Automorphism.from_linear(RatMatrix([[2, 1], [1, 1]]))
    assert a.verify_two_sided() is None
    # a deliberately wrong inverse is caught
    bad = Automorphism(
        PolyMap.from_matrix(RatMatrix([[2, 1], [1, 1]])),
        PolyMap.from_matrix(RatMatrix([[1, 0], [0, 1]])),
    )
    assert bad.verify_two_sided() is not None


def test_shear_two_sided():
    n = 3
    sh = Automorphism.shear(n, {2: V(n, 0) * V(n, 0)})
    assert sh.verify_two_sided() is None
    assert symbolic_two_sided(sh)
    assert realize(sh).eval_at([2, 0, 1]) == [2, 0, 5]
    with pytest.raises(ValueError):
        Automorphism.shear(n, {2: V(n, 2) + V(n, 0)})


def test_shear_multiple_targets():
    n = 4
    sh = Automorphism.shear(
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
        Automorphism.shear(n, additions)


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
    sh = Automorphism.shear(n, additions)
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
            Automorphism.shear(sh.n, sh.additions)


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
    assert _transport(PostCompose(sh), x, y, rng) == (x, realize(sh).eval_at(y))
    assert _transport(PreCompose(sh), x, y, rng) == (realize(sh, -1).eval_at(x), y)


def test_permutation_automorphism():
    a = Automorphism.permutation(3, [2, 0, 1])
    assert a.verify_two_sided() is None
    assert a.forward.eval_at([10, 20, 30]) == [30, 10, 20]


def test_translation_automorphism():
    a = Automorphism.translation([1, -2])
    assert a.verify_two_sided() is None
    assert a.forward.eval_at([0, 0]) == [1, -2]


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
    q, k = substitute_rational(p, [x, y], y)
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
    q, k = substitute_rational(p, nums, den)
    rational = {i for i, g in enumerate(nums) if not divides(den, g)}
    assert k == max((sum(e for v, e in m if v in rational) for m in p.terms), default=0)
    assert q.eval_at(pt) == p.eval_at([g.eval_at(pt) / d for g in nums]) * d ** k


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
    q, k = substitute_rational(p, nums, den)
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
    monkeypatch.setattr(certs, "substitute_rational", oracles.substitute_rational)
    assert verdicts == [a.verify_two_sided() for a in candidates]
    assert verdicts[0] is None and all(v is not None for v in verdicts[1:])


# -- moves ------------------------------------------------------------------


def test_extend_fresh_vars():
    f = PolyMap([V(1, 0) ** 2])
    g = apply_move(f, ExtendFreshVars(2))
    assert g.n_in == 3 and g.n_out == 3
    assert g.eval_at([2, 5, 7]) == [4, 5, 7]


def test_post_and_pre_compose():
    f = PolyMap([V(2, 0) + V(2, 1) ** 2, V(2, 1)])
    a = Automorphism.shear(2, {0: V(2, 1) ** 2})
    post = apply_move(f, PostCompose(a))
    assert post.components[0] == V(2, 0) + V(2, 1) ** 2 + V(2, 1) ** 2
    pre = apply_move(f, PreCompose(a))
    assert pre.components[0] == V(2, 0) + V(2, 1) ** 2 + V(2, 1) ** 2
    assert pre.components[1] == V(2, 1)


def test_compose_sharing():
    # untouched components are carried over as the same objects
    f = PolyMap([V(3, 0) ** 3, V(3, 1), V(3, 2)])
    a = Automorphism.shear(3, {0: V(3, 1) * V(3, 2)})
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


# -- certificates ------------------------------------------------------------


def build_toy_certificate():
    f = PolyMap([V(1, 0) + V(1, 0) ** 2])
    b = CertificateBuilder(f, kind="toy")
    b.push(ExtendFreshVars(1))
    sh = Automorphism.shear(2, {1: V(2, 0) ** 2})
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
             PostCompose(Automorphism.shear(3, {0: V(3, 1)}))]
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
