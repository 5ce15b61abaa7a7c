import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_scaled_int, from_terms, linear_part, translation_map
from polyred import maps
from polyred.elim import poly_matrix_det
from polyred.examples import builtin_example, corpus
from polyred.linalg import RatMatrix
from polyred.maps import (
    Budget,
    PolyMap,
    SAMPLE_BLOCK,
    Unknown,
    classify,
    eval_jacobian_sparse,
    is_druzkowski,
    is_nilpotent,
    is_yagzhev,
    jacobian,
    jacobian_degree_bound,
    jacobian_det,
    poly_block_values,
    recognize_cube,
    sample_points,
    sample_tally,
    sparse_jacobian,
)
from polyred.poly import Poly


def V(n, i):
    return Poly.variable(n, i)


def C(n, c):
    return Poly.const(n, c)


def random_map(rng, n, max_deg=3):
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            exps = [0] * n
            for _ in range(rng.randrange(max_deg + 1)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = Fraction(rng.randrange(-4, 5))
        comps.append(from_terms(n, terms))
    return PolyMap(comps)


def test_eval_and_compose_consistency():
    rng = random.Random(50)
    for _ in range(20):
        n = rng.randrange(1, 4)
        f = random_map(rng, n)
        g = random_map(rng, n)
        pt = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 3)) for _ in range(n)]
        assert f.compose(g).eval_at(pt) == f.eval_at(g.eval_at(pt))


def polys(varcount, max_terms=3, max_exp=2):
    exps = st.lists(st.integers(0, max_exp), min_size=varcount, max_size=varcount)
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    return st.dictionaries(exps.map(tuple), coeffs, max_size=max_terms).map(
        lambda d: from_terms(varcount, d))


def polymaps(n_in, n_out):
    return st.lists(polys(n_in), min_size=n_out, max_size=n_out).map(PolyMap)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_is_associative(data):
    # h: Q^k -> Q^l, g: Q^l -> Q^m, f: Q^m -> Q^p
    k, l, m, p = (data.draw(st.integers(1, 3)) for _ in range(4))
    h = data.draw(polymaps(k, l))
    g = data.draw(polymaps(l, m))
    f = data.draw(polymaps(m, p))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))
    assert f.compose(PolyMap.identity(m)) == f
    assert PolyMap.identity(p).compose(f) == f


def tally_poly(p, rng, samples, box):
    """sample_tally over p's block values: (zeros, first zero, first two
    distinct values of den**D * p / content(p))."""
    return sample_tally(poly_block_values(p), rng, p.varcount, samples, box)


def tally_by_fraction_values(p, rng, samples, box):
    """The zero count and first zero of tally_poly, with every sample
    value built as a Fraction."""
    zeros = 0
    first_zero = None
    for nums, den in sample_points(rng, p.varcount, samples, box):
        if p.eval_at([Fraction(a, den) for a in nums]) == 0:
            zeros += 1
            if first_zero is None:
                first_zero = (list(nums), den)
    return zeros, first_zero


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sample_tally_matches_fraction_values(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, max_terms=4, max_exp=3))
    seed = data.draw(st.integers(0, 1000))
    samples = data.draw(st.integers(1, 12))
    box = data.draw(st.integers(1, 4))
    zeros, first_zero, _ = tally_poly(p, random.Random(seed), samples, box)
    assert (zeros, first_zero) == \
        tally_by_fraction_values(p, random.Random(seed), samples, box)


def tally_by_point(p, rng, samples, box):
    """tally_poly one point at a time, through the integer evaluation
    that the block kernel replaced."""
    _, items = p.content_and_integer_terms()
    d = p.degree() or 0
    zeros = 0
    first_zero = None
    distinct = []
    for nums, den in sample_points(rng, p.varcount, samples, box):
        value = eval_scaled_int(items, nums, den, d)
        if value == 0:
            zeros += 1
            if first_zero is None:
                first_zero = (list(nums), den)
        if len(distinct) < 2 and value not in distinct:
            distinct.append(value)
    return zeros, first_zero, distinct


@pytest.mark.parametrize("samples", [0, 1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                                     SAMPLE_BLOCK + 1, 600])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_block_sampler_matches_pointwise_evaluation(samples, data):
    n = data.draw(st.integers(1, 3))
    kind = data.draw(st.sampled_from(["any", "constant", "skips"]))
    if kind == "constant":
        p = C(n, data.draw(st.integers(-2, 2)))
    elif kind == "skips" and n > 1:
        # a polynomial in x_0..x_{n-2} seen in n variables: x_{n-1} unused
        p = data.draw(polys(n - 1, max_terms=4, max_exp=3)).extend(n)
    else:
        p = data.draw(polys(n, max_terms=4, max_exp=3))
    seed = data.draw(st.integers(0, 1000))
    box = data.draw(st.integers(1, 4))
    assert tally_poly(p, random.Random(seed), samples, box) == \
        tally_by_point(p, random.Random(seed), samples, box)


def test_block_sampler_finds_a_first_zero_in_a_later_block():
    # x_0 * x_1 - 7 vanishes only where x_0 * x_1 = 7 den**2; at seed 39
    # and box 40 both such points among 600 fall in the second block
    x, y = V(2, 0), V(2, 1)
    p = x * y - C(2, 7)
    points = list(sample_points(random.Random(39), 2, 600, 40))
    first = next(i for i, (nums, den) in enumerate(points)
                 if p.eval_at([Fraction(a, den) for a in nums]) == 0)
    assert first >= SAMPLE_BLOCK
    tally = tally_poly(p, random.Random(39), 600, 40)
    assert tally == tally_by_point(p, random.Random(39), 600, 40)
    zeros, first_zero, _ = tally
    assert zeros == 2
    assert first_zero == tuple(points[first])


def test_exact_and_sampled_routes_agree_on_sampled_zeros():
    """Both routes of classify evaluate det J exactly at the same seeded
    points, so wherever det J is nonzero they find the same zeros."""
    compared = 0
    for entry in corpus():
        f = entry.document.to_polymap()
        det = jacobian_det(f)
        if not f.is_endomorphism() or isinstance(det, Unknown) or det.is_zero():
            continue
        for seed in (0, 5):
            exact = classify(f, seed=seed, samples=200)
            sampled = classify(f, Budget(max_exact_det_dim=0), seed=seed, samples=200)
            assert (exact.mode, sampled.mode) == ("exact", "sampled")
            assert exact.nonsingular_sampled == sampled.nonsingular_sampled, entry.id
            vanishes = [[n for n in c.notes if n.startswith("jacobian vanishes")]
                        for c in (exact, sampled)]
            assert vanishes[0] == vanishes[1], entry.id
        compared += 1
    assert compared == 31


def test_identity_and_linear_parts():
    ident = PolyMap.identity(3)
    assert ident.is_identity()
    assert RatMatrix.dense(linear_part(ident)) == RatMatrix.identity(3)
    m = RatMatrix.dense([[1, 2], [3, 4]])
    lm = PolyMap.from_matrix(m)
    assert RatMatrix.dense(linear_part(lm)) == m
    assert lm.eval_at([1, 1]) == [3, 7]
    tr = translation_map([1, -2])
    assert tr.eval_at([0, 0]) == [1, -2]
    assert [c.constant_term() for c in tr.components] == [1, -2]


def test_jacobian_entries():
    n = 2
    f = PolyMap([V(n, 0) * V(n, 0) * V(n, 1), V(n, 1)])
    j = jacobian(f)
    assert j[0][0] == V(n, 0).scale(2) * V(n, 1)
    assert j[0][1] == V(n, 0) * V(n, 0)
    assert j[1][0].is_zero()
    assert j[1][1] == C(n, 1)


def dense_jacobian_at(f, point):
    """The symbolic Jacobian evaluated entry by entry: the dense reference
    for eval_jacobian_sparse."""
    return RatMatrix.dense([[p.eval_at(point) for p in row] for row in jacobian(f)])


def test_jacobian_chain_rule_at_point():
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randrange(1, 4)
        f = random_map(rng, n, max_deg=2)
        g = random_map(rng, n, max_deg=2)
        pt = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        lhs = dense_jacobian_at(f.compose(g), pt)
        rhs = dense_jacobian_at(f, g.eval_at(pt)) * dense_jacobian_at(g, pt)
        assert lhs == rhs


def test_jacobian_det_and_budget():
    f = PolyMap([V(2, 0) + V(2, 1) ** 3, V(2, 1)])
    d = jacobian_det(f)
    assert isinstance(d, Poly)
    assert d == C(2, 1)
    tight = Budget(max_exact_det_dim=1)
    u = jacobian_det(f, tight)
    assert isinstance(u, Unknown)
    assert "cap" in u.reason


def test_eval_jacobian_sparse_matches_dense():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randrange(1, 4)
        f = random_map(rng, n)
        pt = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        dense = dense_jacobian_at(f, pt)
        sparse = eval_jacobian_sparse(sparse_jacobian(f), pt)
        for i in range(n):
            for j in range(n):
                assert dense[i, j] == sparse[i].get(j, Fraction(0))


def test_jacobian_degree_bound():
    f = PolyMap([V(2, 0) ** 4, V(2, 1) ** 2])
    assert jacobian_degree_bound(f) == 4
    d = jacobian_det(f)
    assert d.degree() <= 4


def test_classify_exact_keller():
    f = PolyMap([V(2, 0) + V(2, 1) ** 3, V(2, 1)])
    c = classify(f)
    assert c.mode == "exact"
    assert c.nondegenerate is True
    assert c.keller is True
    assert c.nonsingular_sampled is True


def test_classify_exact_degenerate():
    f = PolyMap([V(2, 0) * V(2, 1), V(2, 0) * V(2, 1)])
    c = classify(f)
    assert c.nondegenerate is False
    assert c.keller is False


def test_classify_exact_nonkeller():
    f = PolyMap([V(2, 0) ** 2, V(2, 1)])
    c = classify(f, seed=3, samples=200)
    assert c.nondegenerate is True
    assert c.keller is False
    assert c.nonsingular_sampled is False  # jacobian vanishes on x0 = 0


def test_classify_sampled_mode():
    # force the sampled route with a tiny budget
    f = PolyMap([V(2, 0) ** 2 + V(2, 1), V(2, 1) + C(2, 1)])
    c = classify(f, Budget(max_exact_det_dim=1), seed=7, samples=60)
    assert c.mode == "sampled"
    assert c.nondegenerate is True  # some sampled determinant was nonzero
    assert c.keller is False  # two distinct determinant values seen
    f2 = PolyMap([V(2, 0) + V(2, 1) ** 3, V(2, 1)])
    c2 = classify(f2, Budget(max_exact_det_dim=1), seed=7, samples=60)
    assert c2.nondegenerate is True
    assert c2.keller is None  # constant-looking from samples, not provable
    assert c2.nonsingular_sampled is True


def test_sampled_classify_with_a_zero_beside_nonzero_values():
    # det J = 2 x0: a sampled zero beside nonzero values refutes Keller
    # through the two distinct values it makes
    f = PolyMap([V(2, 0) ** 2, V(2, 1)])
    c = classify(f, Budget(max_exact_det_dim=1), seed=0, samples=200)
    assert c.mode == "sampled"
    assert c.keller is False
    assert c.nonsingular_sampled is False
    assert "jacobian determinant takes two distinct sampled values" in c.notes
    assert "jacobian vanishes at sampled point ([0, 19], 3)" in c.notes


def test_sampled_classify_derives_each_entry_once(monkeypatch):
    f = builtin_example("yagzhev-4d-b").document.to_polymap()
    entries = sum(len(c.variables_used()) for c in f.components)
    calls = []
    derive = Poly.derive

    def counted(self, var):
        calls.append(var)
        return derive(self, var)

    monkeypatch.setattr(Poly, "derive", counted)
    c = classify(f, Budget(max_exact_det_dim=1), samples=200)
    assert c.mode == "sampled"
    assert len(calls) == entries


def test_is_cubic_and_yagzhev():
    n = 3
    h = (V(n, 1) + V(n, 2)) ** 3
    f = PolyMap([V(n, 0) + h, V(n, 1), V(n, 2)])
    assert f.degree() == 3
    assert is_yagzhev(f)
    assert not is_yagzhev(PolyMap([V(2, 0) + V(2, 1) ** 2, V(2, 1)]))
    # wrong linear part
    assert not is_yagzhev(PolyMap([V(2, 1) + V(2, 0) ** 3, V(2, 0)]))
    assert is_yagzhev(PolyMap.identity(2))


def test_recognize_cube():
    n = 3
    form = V(n, 0) + V(n, 1).scale(2) - V(n, 2)
    h = (form ** 3).scale(Fraction(5, 2))
    rec = recognize_cube(h)
    assert rec is not None
    scale, coeffs = rec
    assert scale == Fraction(5, 2)
    assert coeffs == [Fraction(1), Fraction(2), Fraction(-1)]
    assert recognize_cube(V(n, 0) ** 3 + V(n, 1) ** 3) is None
    assert recognize_cube(Poly.zero(n)) == (0, [0, 0, 0])
    # scale soaks up non-unit lead coefficients: 2x^3 is (2) * x^3
    rec2 = recognize_cube(V(n, 0).scale(2) ** 3)
    assert rec2 == (8, [1, 0, 0])


def test_is_druzkowski():
    n = 2
    u, v = V(n, 0), V(n, 1)
    f = PolyMap([u, v + (u + v) ** 3])
    ok, data = is_druzkowski(f)
    assert ok
    assert data[0][0] == 0
    assert data[1] == (1, [Fraction(1), Fraction(1)])
    g = PolyMap([u + v ** 2, v])
    assert is_druzkowski(g) == (False, None)


def test_is_nilpotent_exact():
    n = 2
    zero = Poly.zero(n)
    x = V(n, 0)
    strict_upper = [[zero, x], [zero, zero]]
    verdict, _ = is_nilpotent(strict_upper, n)
    assert verdict is True
    not_nilp = [[x, zero], [zero, zero]]
    verdict2, why = is_nilpotent(not_nilp, n)
    assert verdict2 is False
    assert "trace" in why


def test_is_nilpotent_exact_nontrivial():
    # nilpotent but with no zero entries: conjugate a strict upper form
    n = 2
    a = [[from_terms(n, {(1, 0): 1}), from_terms(n, {(1, 0): 1})],
         [from_terms(n, {(1, 0): -1}), from_terms(n, {(1, 0): -1})]]
    verdict, _ = is_nilpotent(a, n)
    assert verdict is True


def test_is_nilpotent_sampled(monkeypatch):
    monkeypatch.setattr(maps, "EXACT_NILPOTENT_DIM", 1)
    n = 3
    x = V(n, 0)
    zero = Poly.zero(n)
    m = [[x, zero, zero], [zero, zero, zero], [zero, zero, zero]]
    verdict, witness = is_nilpotent(m, n, seed=5)
    assert verdict is False
    assert witness["power"] == 1
    nil = [[zero, x, zero], [zero, zero, x], [zero, zero, zero]]
    verdict2, _ = is_nilpotent(nil, n, seed=5)
    assert verdict2 is None  # sampling cannot prove nilpotency


def test_shape_errors():
    with pytest.raises(ValueError):
        PolyMap([])
    with pytest.raises(ValueError):
        PolyMap([Poly.zero(1), Poly.zero(2)])
    with pytest.raises(ValueError):
        jacobian_det(PolyMap([Poly.zero(2)]))
