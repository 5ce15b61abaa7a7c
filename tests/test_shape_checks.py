"""Every shape relative to the identity is read from F - X in one place.

maps.terms_minus_x yields the terms of f_i - x_i from f_i's own term
dict.  is_yagzhev, is_druzkowski, gz.pair_up and reduce's stage checks
(to_yagzhev's skip of normalize, segre_step's precondition and
eliminate_quadratic's split of (X + tQ + t^2 C, t)) all go through it.
Here they are held against tests/oracles.py's routes, which built
f_i - x_i as a Poly first, and a run-level pin checks that the reduction
and pairing commands subtract no Poly at all.
"""

import contextlib
import io
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from polyred import cli, reduce
from polyred.certs import SegreExtend, apply_move
from polyred.examples import corpus
from polyred.maps import PolyMap, is_yagzhev, terms_minus_x
from polyred.poly import Poly

# the coefficients of x_i in f_i that the shape checks must tell apart
OWN_COEFFS = [0, 1, -1, 2, Fraction(1, 2)]


def V(n, i):
    return Poly.variable(n, i)


def monomials(n, degree):
    """Every monomial of one total degree in n variables, sorted pairs."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        out.append(tuple((v, combo.count(v)) for v in sorted(set(combo))))
    return out


@st.composite
def terms_of_degrees(draw, n, degrees, max_terms=3):
    """A term dict with up to max_terms monomials, each of a degree drawn
    from degrees, int and Fraction coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = draw(st.sampled_from(monomials(n, draw(st.sampled_from(degrees)))))
        terms[mono] = draw(st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-2, 3)]))
    return terms


@st.composite
def shaped_maps(draw):
    """Maps in n = 1..5 variables whose component i is a * x_i plus terms
    from one degree pattern, so identity, Yagzhev, Segre-ready and
    unnormalized components all come up: a zero component, constants,
    degree-1 cross terms and mixed degrees included."""
    n = draw(st.integers(1, 5))
    comps = []
    for i in range(n):
        own = draw(st.sampled_from(OWN_COEFFS))
        degrees = draw(st.sampled_from([(3,), (3,), (2, 3), (2, 3), (0,), (1,),
                                        (0, 1, 2, 3), (4,)]))
        p = Poly(n, draw(terms_of_degrees(n, degrees)))
        if own:
            p = p + V(n, i).scale(own)
        comps.append(p)
    return PolyMap(comps)


def _same_split(f):
    """reduce._split_t_shape and the oracle agree: the same (n, C), or
    the same ValueError text."""
    try:
        want = oracles.split_t_shape_by_subtraction(f)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            reduce._split_t_shape(f)
        assert str(got.value) == str(e)
        return False
    assert reduce._split_t_shape(f) == want
    return True


def _segre_verdict(f):
    """None when segre_step accepts f, else the message it raised."""
    try:
        reduce.segre_step(f)
    except ValueError as e:
        return str(e)
    return None


class _Reached(Exception):
    pass


def _first_stage_after_lowering(f):
    """'normalize' or 'segre-extension', whichever to_yagzhev calls first
    on a map of degree <= 3 that is not yet Yagzhev."""
    def stop(name):
        def refuse(*args, **kwargs):
            raise _Reached(name)
        return refuse

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduce, "normalize", stop("normalize"))
        mp.setattr(reduce, "segre_step", stop("segre-extension"))
        with pytest.raises(_Reached) as reached:
            reduce.to_yagzhev(f)
    return str(reached.value)


def _check_against_oracles(f):
    n = f.n_in
    for i, c in enumerate(f.components):
        # the same terms, in the same order, as the Poly built by subtraction
        assert list(terms_minus_x(c, i)) == \
            list(oracles.minus_x_by_subtraction(c, i).terms.items())
    assert is_yagzhev(f) == oracles.is_yagzhev_by_subtraction(f)
    bad = oracles.segre_failure_by_subtraction(f)
    verdict = _segre_verdict(f)
    if bad is None:
        assert verdict is None
    else:
        assert verdict.startswith(f"component {bad} is not x_{bad} ")
    if (f.degree() or 0) <= 3 and not is_yagzhev(f):
        want = "normalize" if oracles.needs_normalize_by_parts(f) else "segre-extension"
        assert _first_stage_after_lowering(f) == want
    if n >= 2:
        _same_split(f)


@settings(max_examples=150, deadline=None)
@given(shaped_maps())
def test_shape_checks_match_the_subtracting_routes(f):
    _check_against_oracles(f)


@st.composite
def t_shaped_maps(draw):
    """Segre extensions (X + tQ + t^2 C, t) of Segre-ready maps, half of
    them with one stray term t^e * (monomial of degree d in X) added to a
    component, the t one included."""
    n = draw(st.integers(1, 4))
    comps = [V(n, i) + Poly(n, draw(terms_of_degrees(n, (2, 3))))
             for i in range(n)]
    g = apply_move(PolyMap(comps), SegreExtend())
    if draw(st.booleans()):
        e = draw(st.integers(0, 3))
        mono = draw(st.sampled_from(monomials(n, draw(st.integers(0, 4)))))
        mono += ((n, e),) if e else ()
        k = draw(st.integers(0, n))
        comps = list(g.components)
        comps[k] = comps[k] + Poly(n + 1, {mono: draw(st.sampled_from([1, -1, 2]))})
        g = PolyMap(comps)
    return g


@settings(max_examples=150, deadline=None)
@given(t_shaped_maps())
def test_t_shape_split_matches_the_subtracting_route(g):
    _check_against_oracles(g)


def test_t_shape_split_sweeps_stray_terms():
    # t^e * x^d added to component 0 of one (X + tQ + t^2 C, t): only
    # t * x^2 and t^2 * x^3 keep the shape
    x, y = V(2, 0), V(2, 1)
    g = apply_move(PolyMap([x + y ** 2 + x ** 3, y + x * y ** 2]), SegreExtend())
    for e, d in itertools.product(range(4), range(5)):
        mono = (((0, d),) if d else ()) + (((2, e),) if e else ())
        h = PolyMap([g.components[0] + Poly(3, {mono: 1})] + g.components[1:])
        assert _same_split(h) == ((e, d) in ((1, 2), (2, 3))), (e, d)


def test_shape_checks_sweep_own_coefficients_and_extra_terms():
    # every x_0 coefficient against every kind of extra term, in two
    # variables, with component 1 fixed in each of three shapes
    x, y = V(2, 0), V(2, 1)
    one = Poly.const(2, 1)
    extras = [Poly(2), one, y, x * y, y ** 3, x * y ** 2 + y ** 2, y ** 4]
    seconds = [y + x ** 3, y + x ** 2, Poly(2)]
    split_ok = 0
    for own, extra, second in itertools.product(OWN_COEFFS, extras, seconds):
        f = PolyMap([x.scale(own) + extra if own else extra, second])
        _check_against_oracles(f)
        # the Segre move needs zero constant terms
        if all(c.constant_term() == 0 for c in f.components):
            split_ok += _same_split(apply_move(f, SegreExtend()))
    assert split_ok > 0


# -- boundaries of the skip test and of segre_step's precondition -----------------


@pytest.mark.parametrize("extra, own", [
    (Poly.const(2, 1), 1),   # one constant
    (V(2, 1), 1),            # one degree-1 cross term
    (Poly(2), 2),            # x_0 with coefficient 2
])
def test_one_unnormalized_term_still_gets_a_normalize_stage(extra, own):
    x, y = V(2, 0), V(2, 1)
    normalized = PolyMap([x + y ** 2, y + x ** 3])
    assert reduce.to_yagzhev(normalized)[1].stage_names == [
        "input", "lower-degree", "segre-extension", "eliminate-quadratic"]
    f = PolyMap([x.scale(own) + y ** 2 + extra, y + x ** 3])
    g, trace = reduce.to_yagzhev(f)
    assert trace.stage_names == [
        "input", "lower-degree", "normalize", "segre-extension", "eliminate-quadratic"]
    assert is_yagzhev(g)


@pytest.mark.parametrize("second", [
    lambda x, y: y + x,                # degree-1 cross term
    lambda x, y: y.scale(2) + x ** 3,  # y with coefficient 2
    lambda x, y: y + x ** 2 + 1,       # a constant
    lambda x, y: Poly(2),              # the zero component
])
def test_segre_names_the_first_component_that_fails(second):
    x, y = V(2, 0), V(2, 1)
    f = PolyMap([x + y ** 2 + x * y ** 2, second(x, y)])
    with pytest.raises(ValueError, match=r"^component 1 is not x_1 \+ quadratic"):
        reduce.segre_step(f)


# -- run-level pin -------------------------------------------------------------


def test_reduction_and_pairing_subtract_no_poly(monkeypatch):
    """With Poly.__sub__ refusing, reduce pinchuk --to yagzhev, and
    pair-up and reduce --to yagzhev on every Yagzhev corpus map, still
    run: no shape check builds f_i - x_i."""
    def refuse(self, other):
        raise AssertionError("Poly.__sub__ reached")

    monkeypatch.setattr(Poly, "__sub__", refuse)
    runs = [["reduce", "pinchuk", "--to", "yagzhev"]]
    for e in corpus("yagzhev"):
        runs += [["pair-up", e.id], ["reduce", e.id, "--to", "yagzhev"]]
    assert len(runs) == 1 + 2 * 13
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0, argv
