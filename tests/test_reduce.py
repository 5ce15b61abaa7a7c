import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyred.certs import PreCompose, apply_move, fiber_transport_check, verify_certificate
from polyred.maps import (
    Budget,
    BudgetExceeded,
    GenericityError,
    PolyMap,
    is_nilpotent,
    is_yagzhev,
    jacobian,
    jacobian_det,
)
import oracles
from polyred.examples import builtin_example, corpus
from polyred.poly import Poly, mono_degree
from polyred.reduce import (
    concat_certificates,
    eliminate_quadratic,
    lower_degree,
    meng_symmetrize,
    normalize,
    segre_step,
    to_yagzhev,
)
from polyred.textio import certificate_to_json


def V(n, i):
    return Poly.variable(n, i)


def potential(f):
    d = f.degree() or 0
    count = sum(
        1 for c in f.components for m in c.terms if mono_degree(m) == d
    )
    return (d, count)


def random_map(rng, n, deg):
    comps = []
    for i in range(n):
        terms = {}
        for _ in range(rng.randrange(3, 7)):
            md = rng.randrange(1, deg + 1)
            mono = {}
            for _ in range(md):
                v = rng.randrange(n)
                mono[v] = mono.get(v, 0) + 1
            key = tuple(sorted(mono.items()))
            c = terms.get(key, Fraction(0)) + rng.randrange(-3, 4)
            terms[key] = c
        terms = {m: c for m, c in terms.items() if c}
        if i == 0:
            terms[((0, deg),)] = Fraction(1)
        comps.append(Poly(n, terms))
    return PolyMap(comps)


# ------------------------------------------------------------- lower_degree


def test_lower_degree_quartic_power():
    x = V(1, 0)
    g, cert = lower_degree(PolyMap([x ** 4]))
    X, Y, Z = V(3, 0), V(3, 1), V(3, 2)
    assert g == PolyMap([-(Y * Z) - (Y + Z) * X ** 2, Y + X ** 2, Z + X ** 2])
    assert len(cert.moves) == 3
    assert verify_certificate(cert).ok


def test_lower_degree_cubic_passthrough():
    u, v = V(2, 0), V(2, 1)
    f = PolyMap([u + v ** 3, v])
    g, cert = lower_degree(f)
    assert g == f
    assert cert.moves == []


def test_lower_degree_random_maps():
    for seed in range(6):
        rng = random.Random(seed)
        f = random_map(rng, rng.randrange(2, 4), rng.randrange(4, 7))
        g, cert = lower_degree(f)
        assert (g.degree() or 0) <= 3
        assert cert.source == f and cert.target == g
        assert verify_certificate(cert).ok
        report = fiber_transport_check(cert, seed=seed, samples=6)
        assert report.ok, report.issues


def test_lower_degree_potential_strictly_decreases():
    rng = random.Random(11)
    f = random_map(rng, 2, 6)
    _, cert = lower_degree(f)
    # one splitting = three moves; compare the map before and after each
    marks = list(itertools.accumulate(cert.moves, apply_move, initial=cert.source))[::3]
    for before, after in zip(marks, marks[1:]):
        assert potential(after) < potential(before)


def test_lower_degree_deterministic():
    rng = random.Random(5)
    f = random_map(rng, 3, 5)
    g1, c1 = lower_degree(f)
    g2, c2 = lower_degree(f)
    assert g1 == g2 and len(c1.moves) == len(c2.moves)


def test_lower_degree_measures_only_the_components_a_round_changes(monkeypatch):
    # Pinchuk's map takes 123 rounds; each changes one component and adds
    # two, so the degrees of 2 + 3 * 123 components are all it needs
    f = builtin_example("pinchuk").document.to_polymap()
    calls = []
    degree = Poly.degree

    def counted(self):
        calls.append(len(self.terms))
        return degree(self)

    monkeypatch.setattr(Poly, "degree", counted)
    g, _ = lower_degree(f)
    rounds = (g.n_in - f.n_in) // 2
    assert rounds == 123
    assert len(calls) <= f.n_in + 3 * rounds


def test_lower_degree_budget_cap():
    x = V(1, 0)
    with pytest.raises(BudgetExceeded, match="over the cap of 3"):
        lower_degree(PolyMap([x ** 8]), budget=Budget(max_dim=3))


# ---------------------------------------------------------------- normalize


def test_normalize_textbook_square():
    x = V(1, 0)
    f = PolyMap([x ** 2 + x.scale(2) + Poly.const(1, 1)])
    g, cert = normalize(f)
    assert g == PolyMap([x + (x ** 2).scale(Fraction(1, 2))])
    assert len(cert.moves) == 2  # origin already works, so no pre-translation
    assert verify_certificate(cert).ok


def test_normalize_fixed_point_is_untouched():
    x = V(1, 0)
    f = PolyMap([x + x ** 3])
    g, cert = normalize(f)
    assert g == f
    assert cert.moves == []


def test_normalize_escapes_singular_origin():
    x = V(1, 0)
    f = PolyMap([x ** 2])  # derivative vanishes at 0
    g, cert = normalize(f, seed=3)
    assert g.eval_at([Fraction(0)]) == [0]
    assert oracles.has_identity_linear_part(g)
    assert verify_certificate(cert).ok


def test_normalize_degenerate_map_raises():
    x, y = V(2, 0), V(2, 1)
    with pytest.raises(GenericityError):
        normalize(PolyMap([x + y, x + y]), seed=1)


SINGULAR_ORIGIN = {"cube-x", "square-x", "random-d5-n1", "random-d6-n1",
                   "random-d4-n2", "random-d4-n3", "random-d5-n3", "random-d6-n3"}


@pytest.mark.parametrize("eid", [e.id for e in corpus()])
def test_normalize_matches_the_det_then_inverse_search(eid):
    """One sparse_inverse per candidate picks the same base point, and
    writes the same map and certificate, as accepting by sparse_det and
    inverting afterwards; the corpus maps and their cubic lowerings are
    the inputs, over eight seeds."""
    f = builtin_example(eid).document.to_polymap()
    lowered, _ = lower_degree(f)
    for h in ([f] if lowered == f else [f, lowered]):
        for seed in range(8):
            g, cert = normalize(h, seed=seed)
            want_g, want_cert = oracles.normalize_by_det_then_inverse(h, seed=seed)
            assert g == want_g
            assert certificate_to_json(cert) == certificate_to_json(want_cert)
            recentred = any(isinstance(m, PreCompose) for m in cert.moves)
            assert recentred == (eid in SINGULAR_ORIGIN)


# --------------------------------------------------------------- segre_step


def test_segre_univariate():
    x = V(1, 0)
    g, cert = segre_step(PolyMap([x + x ** 2]))
    X, T = V(2, 0), V(2, 1)
    assert g == PolyMap([X + T * X ** 2, T])
    assert len(cert.moves) == 1
    assert verify_certificate(cert).ok


def test_segre_cubic_picks_up_t_squared():
    u, v = V(2, 0), V(2, 1)
    g, _ = segre_step(PolyMap([u + v ** 3, v]))
    a, b, t = V(3, 0), V(3, 1), V(3, 2)
    assert g == PolyMap([a + t ** 2 * b ** 3, b, t])


def test_segre_identity():
    f = PolyMap.identity(2)
    g, _ = segre_step(f)
    assert g == PolyMap([V(3, 0), V(3, 1), V(3, 2)])


def test_segre_rejects_unnormalized():
    x = V(1, 0)
    with pytest.raises(ValueError):
        segre_step(PolyMap([x + x ** 4]))
    with pytest.raises(ValueError):
        segre_step(PolyMap([x ** 2 + x.scale(2) + Poly.const(1, 1)]))
    with pytest.raises(ValueError):
        segre_step(PolyMap([x.scale(2)]))


def test_segre_determinant_identity():
    u, v = V(2, 0), V(2, 1)
    f = PolyMap([u + u * v + v ** 3, v - u ** 2])
    g, _ = segre_step(f)
    jf = jacobian_det(f)
    jg = jacobian_det(g)
    t = V(3, 2)
    assert jf.substitute([t * V(3, 0), t * V(3, 1)]) == jg


def normalized_cubic_maps(n):
    """X + Q + C with Q and C random sparse quadratic and cubic forms."""
    coeff = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))
    monos = [tuple((i, e) for i, e in enumerate(exps) if e)
             for exps in itertools.product(range(4), repeat=n)
             if sum(exps) in (2, 3)]
    part = st.dictionaries(st.sampled_from(monos), coeff, max_size=4)
    return st.lists(part, min_size=n, max_size=n).map(
        lambda parts: PolyMap([V(n, i) + Poly(n, terms) for i, terms in enumerate(parts)]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(normalized_cubic_maps))
def test_segre_determinant_identity_random(f):
    # Bareiss determinants are the oracle for the identity segre_step
    # holds by construction
    g, _ = segre_step(f)
    n = f.n_in
    t = V(n + 1, n)
    assert jacobian_det(g) == jacobian_det(f).substitute(
        [t * V(n + 1, i) for i in range(n)])


# ------------------------------------------------------ eliminate_quadratic


def test_eliminate_quadratic_example():
    x = V(1, 0)
    g3, _ = segre_step(PolyMap([x + x ** 2]))
    g, cert = eliminate_quadratic(g3)
    X, Y, T = V(3, 0), V(3, 1), V(3, 2)
    assert g == PolyMap([X - T ** 2 * Y + T * X ** 2, Y, T])
    assert is_yagzhev(g)
    assert verify_certificate(cert).ok


def test_eliminate_quadratic_trivial_blocks():
    x, t = V(2, 0), V(2, 1)
    g, cert = eliminate_quadratic(PolyMap([x, t]))
    X, Y, T = V(3, 0), V(3, 1), V(3, 2)
    assert g == PolyMap([X - T ** 2 * Y, Y, T])
    assert verify_certificate(cert).ok


def test_eliminate_quadratic_shape_errors():
    x, t = V(2, 0), V(2, 1)
    with pytest.raises(ValueError):
        eliminate_quadratic(PolyMap([x + x ** 2, t]))  # quadratic without t
    with pytest.raises(ValueError):
        eliminate_quadratic(PolyMap([x + t * x ** 2, x]))  # t not last


# --------------------------------------------------------------- to_yagzhev


def test_to_yagzhev_quartic_chain():
    u, v = V(2, 0), V(2, 1)
    f = PolyMap([u + v ** 4, v])
    g, trace = to_yagzhev(f)
    assert is_yagzhev(g)
    assert trace.stage_names == [
        "input", "lower-degree", "segre-extension", "eliminate-quadratic",
    ]
    dims = trace.stage_dims
    assert dims == sorted(dims)
    assert verify_certificate(trace.certificate).ok
    report = fiber_transport_check(trace.certificate, seed=2, samples=12)
    assert report.ok, report.issues


def test_to_yagzhev_runs_normalize_when_needed():
    x = V(1, 0)
    f = PolyMap([x ** 2 + x.scale(2) + Poly.const(1, 1)])
    g, trace = to_yagzhev(f)
    assert is_yagzhev(g)
    assert "normalize" in trace.stage_names
    assert verify_certificate(trace.certificate).ok


def test_to_yagzhev_keller_input_gives_nilpotent_correction():
    u, v = V(2, 0), V(2, 1)
    f = PolyMap([u + v ** 4, v])
    assert jacobian_det(f) == Poly.const(2, 1)
    g, trace = to_yagzhev(f)
    jg = jacobian_det(g)
    assert jg.is_constant()
    n = g.n_in
    correction = PolyMap(
        [c - V(n, i) for i, c in enumerate(g.components)]
    )
    verdict, witness = is_nilpotent(jacobian(correction), n)
    assert verdict is True, witness


def test_to_yagzhev_fixed_point():
    u, v = V(2, 0), V(2, 1)
    f = PolyMap([u + v ** 3, v])
    g, trace = to_yagzhev(f)
    assert g == f
    assert trace.certificate.moves == []


# --------------------------------------------------------------------- Meng


def test_meng_two_var_example():
    u, v = V(2, 0), V(2, 1)
    f = PolyMap([u + v ** 2, v])
    g, cert, h = meng_symmetrize(f)
    x1, x2, v1, v2 = (V(4, i) for i in range(4))
    assert g == PolyMap([v1 + v2 ** 2, v2, x1, v2.scale(2) * x1 + x2])
    assert verify_certificate(cert).ok
    # G is the gradient of the potential
    assert [h.derive(i) for i in range(4)] == list(g.components)
    # block determinant: (-1)^2 * j(F)(v)^2 = 1
    assert jacobian_det(g) == Poly.const(4, 1)


def test_meng_one_var_square():
    x = V(1, 0)
    g, cert, h = meng_symmetrize(PolyMap([x ** 2]))
    X, W = V(2, 0), V(2, 1)
    assert g == PolyMap([W ** 2, X.scale(2) * W])
    assert verify_certificate(cert).ok
    assert jacobian_det(g) == (W ** 2).scale(-4)  # (-1)^1 (2v)^2


def test_meng_identity():
    f = PolyMap.identity(2)
    g, cert, h = meng_symmetrize(f)
    assert g == PolyMap([V(4, 2), V(4, 3), V(4, 0), V(4, 1)])
    assert verify_certificate(cert).ok


def test_meng_symmetric_gradient_random():
    rng = random.Random(9)
    f = random_map(rng, 2, 3)
    g, cert, h = meng_symmetrize(f)
    jac = jacobian(g)
    for i in range(4):
        for j in range(4):
            assert jac[i][j] == jac[j][i]
    assert [h.derive(i) for i in range(4)] == list(g.components)
    assert verify_certificate(cert).ok
    report = fiber_transport_check(cert, seed=4, samples=8)
    assert report.ok, report.issues


def test_meng_twist_inverse_tracks_keller():
    u, v = V(2, 0), V(2, 1)
    keller = PolyMap([u + v ** 3, v])
    _, cert, _ = meng_symmetrize(keller)
    twists = [m for m in cert.moves if m.auto is not None]
    assert twists[0].auto.inverse.den == Poly.const(4, 1)

    x = V(1, 0)
    _, cert2, _ = meng_symmetrize(PolyMap([x ** 2]))
    twists2 = [m for m in cert2.moves if m.auto is not None]
    assert not twists2[0].auto.inverse.den.is_constant()
    assert verify_certificate(cert2).ok


def test_meng_degenerate_raises():
    x, y = V(2, 0), V(2, 1)
    with pytest.raises(GenericityError):
        meng_symmetrize(PolyMap([(x + y) ** 2, x + y]))


# ------------------------------------------------------------------ gluing


def test_concat_certificates_rejects_gap():
    x = V(1, 0)
    _, c1 = lower_degree(PolyMap([x ** 4]))
    _, c2 = normalize(PolyMap([x ** 2 + x.scale(2) + Poly.const(1, 1)]))
    with pytest.raises(ValueError):
        concat_certificates([c1, c2], "broken")
