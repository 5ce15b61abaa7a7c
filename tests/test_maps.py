import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyred.elim import poly_matrix_det
from polyred.linalg import RatMatrix
from polyred.maps import (
    Budget,
    PolyMap,
    Unknown,
    classify,
    eval_jacobian_sparse,
    is_druzkowski,
    is_nilpotent,
    is_yagzhev,
    jacobian,
    jacobian_degree_bound,
    jacobian_det,
    recognize_cube,
    sample_points,
    sample_poly_values,
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
        comps.append(Poly.from_terms(n, terms))
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
        lambda d: Poly.from_terms(varcount, d))


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


def sample_poly_values_oracle(p, rng, samples, box):
    """sample_poly_values with every sample value built as a Fraction."""
    values = []
    zeros = 0
    first_zero = None
    for nums, den in sample_points(rng, p.varcount, samples, box):
        value = p.eval_at([Fraction(a, den) for a in nums])
        values.append(value)
        if value == 0:
            zeros += 1
            if first_zero is None:
                first_zero = (list(nums), den)
    distinct = any(v != values[0] for v in values)
    return samples, zeros, samples - zeros, first_zero, distinct


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sample_poly_values_matches_fraction_values(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(polys(n, max_terms=4, max_exp=3))
    seed = data.draw(st.integers(0, 1000))
    samples = data.draw(st.integers(1, 12))
    box = data.draw(st.integers(1, 4))
    rep = sample_poly_values(p, random.Random(seed), samples, box)
    got = (rep.samples, rep.zero_points, rep.nonzero_points, rep.first_zero,
           rep.distinct_values)
    assert got == sample_poly_values_oracle(p, random.Random(seed), samples, box)


def test_identity_and_linear_parts():
    ident = PolyMap.identity(3)
    assert ident.is_identity()
    assert ident.linear_part() == RatMatrix.identity(3)
    m = RatMatrix([[1, 2], [3, 4]])
    lm = PolyMap.from_matrix(m)
    assert lm.linear_part() == m
    assert lm.eval_at([1, 1]) == [3, 7]
    tr = PolyMap.translation([1, -2])
    assert tr.eval_at([0, 0]) == [1, -2]
    assert tr.constant_part() == [1, -2]


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
    return RatMatrix([[p.eval_at(point) for p in row] for row in jacobian(f)])


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
        sparse = eval_jacobian_sparse(f, pt)
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
    a = [[Poly.from_terms(n, {(1, 0): 1}), Poly.from_terms(n, {(1, 0): 1})],
         [Poly.from_terms(n, {(1, 0): -1}), Poly.from_terms(n, {(1, 0): -1})]]
    verdict, _ = is_nilpotent(a, n)
    assert verdict is True


def test_is_nilpotent_sampled():
    n = 3
    x = V(n, 0)
    zero = Poly.zero(n)
    m = [[x, zero, zero], [zero, zero, zero], [zero, zero, zero]]
    budget = Budget(max_exact_nilpotent_dim=1)
    verdict, witness = is_nilpotent(m, n, budget, seed=5)
    assert verdict is False
    assert witness["power"] == 1
    nil = [[zero, x, zero], [zero, zero, x], [zero, zero, zero]]
    verdict2, _ = is_nilpotent(nil, n, budget, seed=5)
    assert verdict2 is None  # sampling cannot prove nilpotency


def test_shape_errors():
    with pytest.raises(ValueError):
        PolyMap([])
    with pytest.raises(ValueError):
        PolyMap([Poly.zero(1), Poly.zero(2)])
    with pytest.raises(ValueError):
        jacobian_det(PolyMap([Poly.zero(2)]))
