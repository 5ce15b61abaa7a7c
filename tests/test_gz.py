import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bfc_by_compose, decompose_cubes_dense, pad_by_trial_ranks,
                     pair_up_by_dense_forms)
from polyred.certs import fiber_transport_check, verify_certificate
from polyred.examples import corpus
from polyred.gz import (
    CubicLinearMap,
    GZPairing,
    _basis_padding,
    _pushed_down,
    decompose_cubes,
    pair_down,
    pair_up,
    pairing_to_equivalence,
    verify_pairing,
)
from polyred.linalg import RatMatrix
from polyred.maps import PolyMap, is_druzkowski, is_yagzhev
from polyred.poly import Poly, as_coeff
from polyred.textio import cubic_linear_text, polymap_to_document, print_map


def V(n, i):
    return Poly.variable(n, i)


def decomposed(h):
    return [(c, Poly(h.varcount, {((i, 1),): a for i, a in key})) for c, key in decompose_cubes(h)]


def reassemble(parts, n):
    total = Poly(n)
    for c, form in parts:
        total = total + (form ** 3).scale(c)
    return total


def random_cubic_form(rng, n):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        mono = {}
        for _ in range(3):
            v = rng.randrange(n)
            mono[v] = mono.get(v, 0) + 1
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, Fraction(0)) + rng.randrange(-3, 4)
    return Poly(n, {m: c for m, c in terms.items() if c})


def random_yagzhev(rng, n):
    return PolyMap([
        V(n, i) + random_cubic_form(rng, n) for i in range(n)
    ])


# --------------------------------------------------------- decompose_cubes


def test_single_cube():
    x = V(1, 0)
    assert decomposed(x ** 3) == [(Fraction(1), x)]


def test_polarization_of_x2y():
    x, y = V(2, 0), V(2, 1)
    h = (x ** 2 * y).scale(6)
    # spot value first: 6 * 1^2 * 2 = 12 at (1, 2)
    assert h.eval_at([1, 2]) == 12
    parts = decomposed(h)
    assert reassemble(parts, 2) == h
    assert sum((f ** 3).scale(c).eval_at([1, 2]) for c, f in parts) == 12


def test_polarization_of_xyz():
    x, y, z = (V(3, i) for i in range(3))
    h = (x * y * z).scale(6)
    parts = decomposed(h)
    assert reassemble(parts, 3) == h


def test_decompose_random_forms():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randrange(2, 5)
        h = random_cubic_form(rng, n)
        assert reassemble(decomposed(h), n) == h


def test_decompose_zero_and_bad_degree():
    assert decompose_cubes(Poly(2)) == []
    x = V(1, 0)
    with pytest.raises(ValueError):
        decompose_cubes(x ** 2)
    with pytest.raises(ValueError):
        decompose_cubes(x ** 3 + x)


def test_forms_merge_up_to_scalar():
    x = V(1, 0)
    # 8x^3 = (2x)^3 should fold into a single pooled form
    parts = decomposed((x ** 3).scale(8))
    assert parts == [(Fraction(8), x)]


def test_keys_are_sparse_and_primitive():
    x, y = V(2, 0), V(2, 1)
    # 6 x^2 y: (2x+y)^3 - (2x)^3 - 2 (x+y)^3 + 2 x^3 + y^3, with (2x)^3
    # folded into x^3 as -8 x^3 and the x^3 pieces summed to -6
    assert decompose_cubes((x ** 2 * y).scale(6)) == [
        (1, ((0, 2), (1, 1))), (-6, ((0, 1),)), (-2, ((0, 1), (1, 1))), (1, ((1, 1),))]
    # the doubled variable last: its entry 2 still sits in variable order
    assert decompose_cubes((x * y ** 2).scale(6))[0] == (1, ((0, 1), (1, 2)))


def test_cancelled_forms_drop_out():
    x, y = V(2, 0), V(2, 1)
    # x^3 + x^2 y: x's pieces sum to 1 - 8/6 + 2/6 = 0
    parts = decompose_cubes(x ** 3 + x ** 2 * y)
    assert ((0, 1),) not in [key for _, key in parts]
    assert all(c for c, _ in parts)
    assert decomposed(x ** 3 + x ** 2 * y) == decompose_cubes_dense(x ** 3 + x ** 2 * y)


COEFFS = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def cubic_forms(draw, m):
    """A cubic form in m variables; u^2 w and u^3 monomials are common, so
    the (2u)^3 pieces and cancelling sums on u are too."""
    monos = [tuple(sorted(Counter(c).items()))
             for c in combinations_with_replacement(range(m), 3)]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
    terms = {mono: as_coeff(draw(COEFFS)) for mono in chosen}
    return Poly(m, {mono: c for mono, c in terms.items() if c})


@st.composite
def yagzhev_maps(draw):
    """x + H(x) whose components often repeat an earlier component's form,
    scaled, so forms are shared across rows of P (the pool's order)."""
    m = draw(st.integers(1, 4))
    forms = []
    for _ in range(m):
        if forms and draw(st.booleans()):
            forms.append(draw(st.sampled_from(forms)).scale(draw(COEFFS)))
        else:
            forms.append(draw(cubic_forms(m)))
    return PolyMap([V(m, i) + h for i, h in enumerate(forms)])


@settings(max_examples=200, deadline=None)
@given(g=yagzhev_maps())
def test_sparse_keys_match_the_dense_route(g):
    m = g.n_in
    for i in range(m):
        h = g.components[i] - V(m, i)
        want = decompose_cubes_dense(h)
        got = decomposed(h)
        assert got == want
        assert [type(c) for c, _ in got] == [type(c) for c, _ in want]
    p = pair_up(g)
    assert (p.A, p.B, p.C) == pair_up_by_dense_forms(g)
    assert verify_pairing(p).ok


def test_sparse_keys_match_the_dense_route_on_corpus_maps():
    maps = [e.document.to_polymap() for e in corpus()]
    maps = [g for g in maps if g.n_in <= 4 and is_yagzhev(g)]
    assert len(maps) >= 10
    for g in maps:
        p = pair_up(g)
        assert (p.A, p.B, p.C) == pair_up_by_dense_forms(g)


# ------------------------------------------------------------------ pair_up


def test_pair_up_unit_example():
    x = V(1, 0)
    p = pair_up(PolyMap([x + x ** 3]))
    assert p.A == RatMatrix.dense([[0, 0], [1, 1]])
    assert p.B == RatMatrix.dense([[1, 1]])
    assert p.C == RatMatrix.dense([[1], [0]])
    u, v = V(2, 0), V(2, 1)
    assert p.F == PolyMap([u, v + (u + v) ** 3])
    assert verify_pairing(p).ok


def test_pair_up_identity_pads_to_full_rank():
    g = PolyMap.identity(3)
    p = pair_up(g)
    assert p.F.n_in == 6
    assert p.A.rank() == 3
    assert is_druzkowski(p.F.to_polymap())[0]
    assert verify_pairing(p).ok


def test_pair_up_rejects_inhomogeneous():
    x, y = V(2, 0), V(2, 1)
    with pytest.raises(ValueError):
        pair_up(PolyMap([x + y ** 2, y]))


def test_pair_up_dimension_bookkeeping():
    rng = random.Random(3)
    g = random_yagzhev(rng, 3)
    p = pair_up(g)
    m = 3
    r = p.F.n_in - m
    assert p.A.nrows == p.A.ncols == m + r
    assert (p.B.nrows, p.B.ncols) == (m, m + r)
    assert (p.C.nrows, p.C.ncols) == (m + r, m)
    assert verify_pairing(p).ok


# ---------------------------------------------------------------- pair_down


def test_pair_down_unit_example():
    u, v = V(2, 0), V(2, 1)
    F = PolyMap([u, v + (u + v) ** 3])
    A = RatMatrix.dense([[0, 0], [1, 1]])
    p = pair_down(F, A)
    x = V(1, 0)
    assert p.G == PolyMap([x + x ** 3])
    assert p.B == RatMatrix.dense([[1, 1]])
    assert p.C == RatMatrix.dense([[1], [0]])
    assert verify_pairing(p).ok


def test_pair_down_zero_matrix_rejected():
    with pytest.raises(ValueError):
        pair_down(PolyMap.identity(2), RatMatrix.zero(2, 2))


def test_pair_down_inconsistent_map_rejected():
    u, v = V(2, 0), V(2, 1)
    F = PolyMap([u, v + u ** 3])
    A = RatMatrix.dense([[0, 0], [1, 1]])  # says (u+v)^3, map has u^3
    with pytest.raises(ValueError):
        pair_down(F, A)


def test_pair_down_rank_two_in_dimension_four():
    rows = [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 1, 1, 1],
        [0, 0, 0, 0],
    ]
    A = RatMatrix.dense([[Fraction(a) for a in r] for r in rows])
    assert A.rank() == 2
    comps = []
    for i in range(4):
        form = Poly(4)
        for j, a in enumerate(rows[i]):
            if a:
                form = form + V(4, j).scale(a)
        comps.append(V(4, i) + form ** 3)
    p = pair_down(PolyMap(comps), A)
    assert p.G.n_in == 2
    assert verify_pairing(p).ok


# -------------------------------------------------------------- roundtrips


def test_round_trip_reproduces_g_exactly():
    for seed in range(8):
        rng = random.Random(seed)
        g = random_yagzhev(rng, rng.randrange(1, 4))
        p = pair_up(g)
        back = pair_down(p.F.to_polymap(), p.A)
        assert back.G == g
        assert back.B == p.B and back.C == p.C
        assert verify_pairing(p).ok and verify_pairing(back).ok


# ----------------------------------------------------------- verification


def test_verify_catches_kernel_mismatch():
    A = RatMatrix.dense([[0, 0], [1, 1]])
    F = CubicLinearMap(A)
    B = RatMatrix.dense([[1, 0]])
    C = RatMatrix.dense([[1], [0]])
    x = V(1, 0)
    tampered = GZPairing(A, B, C, F, PolyMap([x]))
    report = verify_pairing(tampered)
    assert not report.ok
    assert any("kernel" in s for s in report.issues)


def test_verify_catches_bc_tampering():
    x = V(1, 0)
    p = pair_up(PolyMap([x + x ** 3]))
    bad = GZPairing(p.A, p.B, RatMatrix.dense([[2], [0]]), p.F, p.G)
    report = verify_pairing(bad)
    assert not report.ok
    assert any("identity" in s for s in report.issues)


# -------------------------------------------------------------- equivalence


def test_equivalence_certificate_unit_example():
    x = V(1, 0)
    p = pair_up(PolyMap([x + x ** 3]))
    cert = pairing_to_equivalence(p)
    assert len(cert.moves) == 4
    assert cert.target == p.F
    assert verify_certificate(cert).ok
    report = fiber_transport_check(cert, seed=0, samples=20)
    assert report.ok and report.samples_run == 20


def test_equivalence_certificate_identity_g():
    p = pair_up(PolyMap.identity(2))
    cert = pairing_to_equivalence(p)
    assert verify_certificate(cert).ok
    assert cert.target == p.F


def test_equivalence_random_pairings():
    for seed in (2, 5, 7):
        rng = random.Random(seed)
        g = random_yagzhev(rng, 2)
        cert = pairing_to_equivalence(pair_up(g))
        assert verify_certificate(cert).ok
        assert fiber_transport_check(cert, seed=seed, samples=10).ok


def test_equivalence_refuses_invalid_pairing():
    x = V(1, 0)
    p = pair_up(PolyMap([x + x ** 3]))
    bad = GZPairing(p.A, p.B, RatMatrix.dense([[2], [0]]), p.F, p.G)
    with pytest.raises(ValueError):
        pairing_to_equivalence(bad)


# ------------------------------------------- the partner stored as its matrix

# n <= 3 prints over x y z, n >= 4 over x1 x2 ...
SIZES = pytest.mark.parametrize("sizes", [(1, 3), (4, 6)])

ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)),
)


def matrices(nrows, ncols):
    """Rational matrices with zero rows, negative, integral and fractional
    entries."""
    row = st.one_of(st.just([0] * ncols),
                    st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    return st.lists(row, min_size=nrows, max_size=nrows).map(RatMatrix.dense)


def perturbed(f: PolyMap, data) -> PolyMap:
    """f with one term of one component changed: an existing coefficient
    moved or cancelled, or a square x_j^2 added."""
    n = f.n_in
    i = data.draw(st.integers(0, n - 1))
    terms = dict(f.components[i].terms)
    monos = sorted(terms) + [((j, 2),) for j in range(n)]
    mono = data.draw(st.sampled_from(monos))
    c = data.draw(st.integers(-3, 3).filter(bool))
    terms[mono] = as_coeff(terms.get(mono, 0) + c)
    if not terms[mono]:
        del terms[mono]
    comps = list(f.components)
    comps[i] = Poly(n, terms)
    return PolyMap(comps)


@SIZES
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cubic_linear_text_matches_the_printed_expansion(sizes, data):
    n = data.draw(st.integers(*sizes))
    F = CubicLinearMap(data.draw(matrices(n, n)))
    assert cubic_linear_text(F) == print_map(polymap_to_document(F.to_polymap()))


@SIZES
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pushed_down_matches_composition(sizes, data):
    # B F(C x) in dimension m against F expanded and composed with C;
    # B C is rarely the identity here
    n = data.draw(st.integers(*sizes))
    m = data.draw(st.integers(1, n))
    A = data.draw(matrices(n, n))
    B = data.draw(matrices(m, n))
    C = data.draw(matrices(n, m))
    expected = bfc_by_compose(B, CubicLinearMap(A).to_polymap(), C)
    assert _pushed_down(B, A, C) == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_g_axiom_matches_composition_under_tampering(seed, data):
    # pair_up's pairing, C replaced or kept: the G issue appears exactly
    # when the composition oracle says G differs from B F(C x)
    rng = random.Random(seed)
    p = pair_up(random_yagzhev(rng, rng.randrange(1, 4)))
    n, m = p.F.n_in, p.G.n_in
    C = data.draw(st.one_of(st.just(p.C), matrices(n, m)))
    bad = GZPairing(p.A, p.B, C, p.F, p.G)
    differs = p.G != bfc_by_compose(p.B, p.F.to_polymap(), C)
    assert ("G is not B F(C x)" in verify_pairing(bad).issues) == differs
    assert differs == (p.G != _pushed_down(p.B, p.A, C))


@SIZES
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cubic_linear_equality_matches_expanded_equality(sizes, data):
    n = data.draw(st.integers(*sizes))
    A = data.draw(matrices(n, n))
    F = CubicLinearMap(A)
    expanded = F.to_polymap()
    other = CubicLinearMap(data.draw(st.one_of(st.just(A), matrices(n, n))))
    assert (F == other) == (expanded == other.to_polymap())
    assert (F == other.to_polymap()) == (expanded == other.to_polymap())
    assert (other.to_polymap() == F) == (F == other)
    changed = perturbed(expanded, data)
    assert F != changed and changed != F and not F == changed
    assert (F == changed) == (expanded == changed)


def test_pairing_refuses_an_expanded_partner():
    p = pair_up(PolyMap([V(1, 0) + V(1, 0) ** 3]))
    with pytest.raises(TypeError, match="pair_down"):
        GZPairing(p.A, p.B, p.C, p.F.to_polymap(), p.G)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_basis_padding_matches_the_trial_rank_loop(data):
    # integer rows of Q, as pair_up's primitive pool keys are, with zero,
    # repeated and dependent rows among them
    m = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(0, 6))
    rows = [data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
            for _ in range(r)]
    want = [{j: 1 for j, e in enumerate(row) if e} for row in pad_by_trial_ranks(rows, m)]
    q_rows = [{j: a for j, a in enumerate(row) if a} for row in rows]
    assert _basis_padding(q_rows, m) == want
