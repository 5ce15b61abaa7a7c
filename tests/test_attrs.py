"""Fiber statistics: rotations, dex, real fiber counts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polyred import attrs, cli, maps
from polyred.attrs import (AttributeReport, _eliminable, _plane_rows,
                           _require_nondegenerate, _rotate, _rotation_context,
                           _rows_poly, _specialize, dex2, fiber_count_real,
                           generic_rotation, mfs_sample)
from polyred.elim import resultant, uni_coeffs, z_mul, z_rows
from polyred.examples import builtin_example
from polyred.maps import GenericityError, PolyMap, jacobian_det
from polyred.poly import Poly


def _map(eid):
    return builtin_example(eid).document.to_polymap()


def _plane(*exprs):
    return PolyMap(list(exprs))


X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)


# -- the Fraction rotation, kept as the oracle for the integer rows -----------


def rotate_by(f: PolyMap, c: Fraction) -> PolyMap:
    """f(x1 + c*x2, -c*x1 + x2) through Poly.substitute."""
    images = [X + Y.scale(c), X.scale(-c) + Y]
    return PolyMap([comp.substitute(images) for comp in f.components])


def eliminable_fraction(f: PolyMap) -> bool:
    """Every component that moves with x2 has a constant leading
    x2-coefficient, and at least one component does move."""
    some = False
    for comp in f.components:
        cs = uni_coeffs(comp, 1)
        if len(cs) - 1 > 0:
            some = True
            if not cs[-1].is_constant():
                return False
    return some


@st.composite
def plane_component(draw):
    # a constant or x2-free component is drawn as often as a general one
    kind = draw(st.sampled_from(("general", "x2-free", "constant")))
    terms = {}
    for _ in range(draw(st.integers(0 if kind == "constant" else 1, 6))):
        if kind == "constant":
            exps = (0, 0)
        else:
            i = draw(st.integers(0, 6))
            j = 0 if kind == "x2-free" else draw(st.integers(0, 6 - i))
            exps = (i, j)
        terms[exps] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
    return Poly.from_terms(2, terms)


plane_maps = st.builds(lambda a, b: PolyMap([a, b]), plane_component(), plane_component())
fractions = st.builds(Fraction, st.integers(-19, 19), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(plane_maps, fractions)
def test_integer_rotation_equals_fraction_rotation(f, c):
    g = rotate_by(f, c)
    rows = [_rotate(comp, c) for comp in _plane_rows(f)]
    assert [_rows_poly(comp) for comp in rows] == g.components
    # and with the very scale z_rows picks: the lcm of the denominators
    assert rows == _plane_rows(g)


@settings(max_examples=200, deadline=None)
@given(plane_maps, fractions)
def test_eliminable_rows_equals_fraction_test(f, c):
    assert _eliminable(_plane_rows(f)) == eliminable_fraction(f)
    rows = [_rotate(comp, c) for comp in _plane_rows(f)]
    assert _eliminable(rows) == eliminable_fraction(rotate_by(f, c))


@settings(max_examples=200, deadline=None)
@given(plane_maps, fractions, fractions, fractions)
def test_specialized_rows_equal_g_minus_y(f, c, y1, y2):
    g = rotate_by(f, c)
    rows = [_rotate(comp, c) for comp in _plane_rows(f)]
    for comp, comp_rows, y in zip(g.components, rows, (y1, y2)):
        spec = _specialize(comp_rows, y)
        assert _rows_poly(spec) == comp - Poly.const(2, y)
        assert spec == z_rows(comp - Poly.const(2, y))


def test_specialize_cancels_the_constant():
    # x + 1/2 at 1/2 is x, cleared by 1 and not by 2
    assert _specialize(z_rows(X + Poly.const(2, Fraction(1, 2))), Fraction(1, 2)) == (1, [[0, 1]])
    # a constant component at its own value is the zero polynomial
    assert _specialize(z_rows(Poly.const(2, 3)), Fraction(3)) == (1, [])
    assert _specialize(z_rows(Poly(2, {})), Fraction(-2, 3)) == (3, [[2]])


# -- generic_rotation ------------------------------------------------------


def test_rotation_leaves_cube_alone():
    f = _map("cube-x")
    g, auto = generic_rotation(f)
    assert g == f
    assert auto.forward.is_identity()


def test_rotation_fixes_bad_leading_coefficient():
    f = _plane(X * Y, Y)   # leading x2-coefficient of x*y is x
    g, auto = generic_rotation(f, seed=3)
    assert auto.verify_two_sided() is None
    # g really is f composed with the rotation
    composed = PolyMap([c.substitute(auto.forward.components) for c in f.components])
    assert g == composed
    # and now the top coefficient in x2 is a constant for both components
    from polyred.elim import uni_coeffs
    for comp in g.components:
        cs = uni_coeffs(comp, 1)
        assert cs[-1].is_constant()


def test_rotation_rejects_non_plane_maps():
    with pytest.raises(ValueError):
        generic_rotation(PolyMap([Poly.variable(3, 0)] * 3))


# -- dex -------------------------------------------------------------------


def test_dex_identity():
    assert dex2(_map("identity2")) == 1


def test_dex_cube():
    assert dex2(_map("cube-x")) == 3


def test_dex_degenerate_rejected():
    with pytest.raises(ValueError):
        dex2(_plane(X, X))


# -- nondegeneracy -----------------------------------------------------------


def test_attributes_rejects_a_dependent_pair(capsys, tmp_path):
    path = tmp_path / "dependent.map"
    path.write_text("vars x y\npoly p = x + y^2\npoly q = (x + y^2)^2\n")
    assert cli.main(["attributes", str(path), "--samples", "4", "--json"]) == 1
    err = capsys.readouterr().err
    assert "degenerate map: jacobian determinant is identically zero" in err


def test_determinant_zero_at_every_point_goes_symbolic(monkeypatch):
    # (x1, F(x2)) with F' the product of x2 - t over the points' x2
    # coordinates: det J = F'(x2) vanishes at every point tried, but it
    # is not identically zero
    roots = sorted({t for _, t in attrs._DET_POINTS})
    dF = [1]
    for t in roots:
        dF = z_mul(dF, [-t, 1])
    F = Poly.from_terms(2, {(0, k + 1): Fraction(c, k + 1) for k, c in enumerate(dF)})
    f = _plane(X, F)
    calls = []

    def symbolic(g):
        calls.append(g)
        return jacobian_det(g)

    monkeypatch.setattr(maps, "jacobian_det", symbolic)
    _require_nondegenerate(f, _plane_rows(f))
    assert calls == [f]
    assert dex2(f) == len(roots) + 1


@st.composite
def maybe_dependent_maps(draw):
    """A random plane map, half the time (a, g(a)) for a univariate g."""
    a = draw(plane_component())
    if draw(st.booleans()):
        b = Poly.const(2, draw(fractions))
        for k, c in enumerate(draw(st.lists(fractions, max_size=3)), 1):
            b = b + (a ** k).scale(c)
    else:
        b = draw(plane_component())
    return _plane(a, b) if draw(st.booleans()) else _plane(b, a)


@settings(max_examples=200, deadline=None)
@given(maybe_dependent_maps())
def test_nondegeneracy_verdict_equals_symbolic_determinant(f):
    try:
        _require_nondegenerate(f, _plane_rows(f))
    except ValueError:
        assert jacobian_det(f).is_zero()
    else:
        assert not jacobian_det(f).is_zero()


def test_dex_sees_through_stacked_fibers():
    # fibers of (x^3, y^3+y) carry three points per x1 value in the raw
    # coordinates; only a genuine rotation separates them
    f = _plane(X ** 3, Y ** 3 + Y)
    assert dex2(f) == 9


def test_dex_invariant_under_linear_precompose():
    f = _map("cube-x")
    base = dex2(f)
    a, b, c, d = Fraction(2), Fraction(1), Fraction(1), Fraction(1)
    images = [X.scale(a) + Y.scale(b), X.scale(c) + Y.scale(d)]
    g = PolyMap([comp.substitute(images) for comp in f.components])
    assert dex2(g, seed=5) == base


def test_dex_invariant_under_translation_postcompose():
    f = _map("triple-root")
    base = dex2(f)
    g = PolyMap([f.components[0] + Poly.const(2, Fraction(7, 2)),
                 f.components[1] - Poly.const(2, 3)])
    assert dex2(g, seed=2) == base


def test_dex_deterministic():
    f = _map("triple-root")
    assert dex2(f, seed=11) == dex2(f, seed=11)


# -- fiber counts ----------------------------------------------------------


def test_cube_fiber_at_8_0():
    fib = fiber_count_real(_map("cube-x"), (Fraction(8), Fraction(0)))
    assert fib.real_count == 1
    assert fib.complex_count == 3
    # the witness polynomial is exactly x^3 - 8
    assert fib.resultant_sf == X ** 3 - Poly.const(2, 8)


def test_triple_root_fiber_at_origin():
    fib = fiber_count_real(_map("triple-root"), (Fraction(0), Fraction(0)))
    assert fib.real_count == 3
    assert fib.complex_count == 3


def test_empty_real_fiber_recorded():
    fib = fiber_count_real(_map("square-x"), (Fraction(-1), Fraction(0)))
    assert fib.real_count == 0
    assert fib.complex_count == 2


def test_fiber_counts_bounded_by_dex():
    for eid in ("cube-x", "triple-root", "square-x", "plane-quad"):
        f = _map(eid)
        d = dex2(f)
        for k, target in enumerate([(2, 3), (-1, 2), (Fraction(1, 2), -5), (0, 7)]):
            fib = fiber_count_real(f, (Fraction(target[0]), Fraction(target[1])),
                                   seed=k)
            assert fib.real_count <= fib.complex_count <= d, (eid, target)


def test_fiber_witness_equals_fraction_path():
    # the integer kernel's witness is exactly the squarefree part of the
    # Fraction resultant over the same rotation and target
    checked = 0
    for eid in ("triple-root", "plane-quad", "yagzhev-2d-b", "random-d4-n2",
                "random-d6-n2", "pinchuk"):
        f = _map(eid)
        fr = _plane_rows(f)
        rows, ref = _rotation_context(fr, seed=3)
        g = PolyMap([_rows_poly(comp) for comp in rows])
        for target in [(2, 3), (Fraction(-7, 3), Fraction(5, 2)), (0, 0)]:
            t = (Fraction(target[0]), Fraction(target[1]))
            r = resultant(g.components[0] - Poly.const(2, t[0]),
                          g.components[1] - Poly.const(2, t[1]), 1)
            if r.degree_in(0) != ref:
                continue
            fib = fiber_count_real(f, t, _ctx=(fr, (rows, ref)))
            sf = oracles.squarefree_part(r)
            assert fib.resultant_sf == sf, (eid, target)
            assert fib.real_count == oracles.count_real_roots(sf), (eid, target)
            assert fib.complex_count == sf.degree_in(0), (eid, target)
            checked += 1
    assert checked >= 15


# -- sampled reports -------------------------------------------------------


def test_mfs_cube():
    rep = mfs_sample(_map("cube-x"), seed=0, samples=30)
    assert rep.dex == 3
    assert rep.mfs_observed == 1
    assert rep.dex % 2 == 1 and rep.mfs_observed % 2 == 1
    assert rep.parity_consistent


def test_mfs_identity():
    rep = mfs_sample(_map("identity2"), seed=4, samples=10)
    assert rep.dex == 1
    assert rep.mfs_observed == 1
    assert rep.parity_consistent


def test_mfs_report_bookkeeping():
    rep = mfs_sample(_map("identity2"), seed=9, samples=6, sag_external=1)
    assert rep.samples == 6
    assert rep.seed == 9
    assert rep.sag_external == 1
    assert rep.genericity_retries == 0


def test_mfs_deterministic():
    a = mfs_sample(_map("triple-root"), seed=3, samples=20)
    b = mfs_sample(_map("triple-root"), seed=3, samples=20)
    assert a == b


def test_mfs_triple_root_attains_three():
    # x^3 - 3x takes every value in (-2, 2) three times over the reals
    rep = mfs_sample(_map("triple-root"), seed=0, samples=40)
    assert rep.dex == 3
    assert rep.mfs_observed == 3
    assert rep.parity_consistent

